(* Top-level SoftBound API: compile, transform, run.

   This is the library a downstream user programs against:

   {[
     let m = Softbound.compile source in
     match Softbound.run_protected m with
     | { outcome = Trapped (Bounds_violation _); _ } -> ...
   ]} *)

module Ir = Sbir.Ir

(* [softbound] is the library's root module; re-export the submodules. *)
module Config = Config
module Transform = Transform
module Elim = Elim

type mode = Config.mode = Full_checking | Store_only
type options = Config.options

(** Parse + typecheck + lower a MiniC source to IR.  By default the
    optimizer (constant folding, copy propagation, DCE) and the
    small-function inliner run afterwards, matching the paper's
    post-optimization instrumentation point (section 6.1); pass
    [~inline:false] and/or [~optimize:false] for the raw lowering. *)
let compile ?(inline = true) ?(optimize = true) (src : string) : Ir.modul =
  let m = Sbir.Lower.compile src in
  let m = if optimize then Sbir.Opt.run m else m in
  let m = if inline then Sbir.Inline.run m else m in
  if optimize && inline then Sbir.Opt.run m else m

(** Apply the SoftBound transformation. *)
let instrument ?(opts = Config.default) (m : Ir.modul) : Ir.modul =
  Transform.transform ~opts m

(** Like {!instrument}, also returning the number of instrumentation
    sites assigned (see {!Transform.transform_with_sites}). *)
let instrument_with_sites ?(opts = Config.default) (m : Ir.modul) :
    Ir.modul * int =
  Transform.transform_with_sites ~opts m

(** The interpreter facility for a {!Config.facility}: the identity, as
    [Config.facility] re-exports {!Interp.State.meta_facility}.  Kept
    only because the benchmark harness ([perfbench/pipeline.ml]) names
    it. *)
let facility_of (f : Config.facility) : Interp.State.meta_facility = f

(** Run an *uninstrumented* module (the baseline the paper normalizes
    against). *)
let run_unprotected ?(cfg = Interp.State.default_config) (m : Ir.modul) :
    Interp.Vm.result =
  Interp.Engine.run ~cfg m

(** [cfg] set up to run code instrumented under [opts]: its metadata
    facility, and store-only checking in the runtime wrappers. *)
let protected_cfg ~(opts : options) (cfg : Interp.State.config) :
    Interp.State.config =
  {
    cfg with
    Interp.State.meta = Some opts.Config.facility;
    store_only = opts.Config.mode = Config.Store_only;
  }

(** Instrument and run under SoftBound. *)
let run_protected ?(opts = Config.default)
    ?(cfg = Interp.State.default_config) (m : Ir.modul) : Interp.Vm.result =
  Interp.Engine.run ~cfg:(protected_cfg ~opts cfg) (instrument ~opts m)

(** Did the run abort with a SoftBound spatial-safety violation? *)
let detected (r : Interp.Vm.result) =
  match r.Interp.Vm.outcome with
  | Interp.State.Trapped (Interp.State.Bounds_violation _) -> true
  | _ -> false

(** Did the run demonstrate a successful control-flow hijack? *)
let hijacked (r : Interp.Vm.result) =
  match r.Interp.Vm.outcome with
  | Interp.State.Trapped (Interp.State.Hijack _) -> true
  | _ -> false
