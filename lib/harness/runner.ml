(* Shared pipeline driver for the experiments: compile once, run a module
   under any of the named protection schemes, and summarize outcomes. *)

module Ir = Sbir.Ir

type scheme =
  | Unprotected
  | Softbound of Softbound.Config.options
  | Registered of Schemes.entry

let scheme_name = function
  | Unprotected -> "unprotected"
  | Softbound o ->
      Printf.sprintf "softbound-%s-%s"
        (Softbound.Config.mode_name o.Softbound.Config.mode)
        (Softbound.Config.facility_name o.Softbound.Config.facility)
  | Registered e -> e.Schemes.sname

(* The four SoftBound configurations of Figure 2. *)
let sb_full_shadow = Softbound.Config.default

let sb_full_hash =
  { Softbound.Config.default with facility = Softbound.Config.Hash_table }

let sb_store_shadow = Softbound.Config.store_only

let sb_store_hash =
  { Softbound.Config.store_only with facility = Softbound.Config.Hash_table }

(* ------------------------------------------------------------------ *)
(* Transform cache                                                      *)
(* ------------------------------------------------------------------ *)

(* The metadata facility is a pure runtime choice — the transformation
   emits the same IR for shadow-space and hash-table runs — so the
   cache key normalizes it away: the 8 scheme configurations of the
   ablation matrix (full/store × shadow/hash × elim on/off) share 4
   transforms per program.

   Modules are keyed by the module VALUE (physical identity); options
   compare structurally.  Identical programs still share one transform
   because the module comes from a cache too: [compile_source_cached]
   returns one module value per source text (every serve request, every
   repeated CLI call in one process), and [compile_workload] one per
   workload (every experiment).  A module built any other way is its
   own entry, so a cache miss costs no more than the transform itself:
   no key is computed from the module's contents. *)

let transform_count = ref 0

(* The transform and compile caches below are the only mutable state
   shared between domains when a harness driver fans out (parallel fuzz
   evaluates self-contained cases and never lands here, but the
   parallel experiment runners do).  One lock serializes both: the
   transform itself runs under it, so a module/options pair is
   transformed exactly once no matter how many domains race to it, and
   [transforms_performed] counts the same work a sequential run does. *)
let cache_lock = Mutex.create ()

let with_lock f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let transforms_performed () = with_lock (fun () -> !transform_count)

let norm_opts (o : Softbound.Config.options) =
  { o with Softbound.Config.facility = Softbound.Config.Shadow_space }

let cache_capacity = 32

let cache :
    ((Ir.modul * Softbound.Config.options) * (Ir.modul * int)) list ref =
  ref []

let instrument_cached ?(opts = Softbound.Config.default) (m : Ir.modul) :
    Ir.modul * int =
  with_lock @@ fun () ->
  let opts' = norm_opts opts in
  let rec find acc = function
    | [] -> None
    | (((m', o'), v) as e) :: rest when m' == m && o' = opts' ->
        (* move the hit to the front (LRU) *)
        cache := e :: List.rev_append acc rest;
        Some v
    | e :: rest -> find (e :: acc) rest
  in
  match find [] !cache with
  | Some v -> v
  | None ->
      incr transform_count;
      let v = Softbound.instrument_with_sites ~opts m in
      let pruned =
        if List.length !cache >= cache_capacity then
          List.filteri (fun i _ -> i < cache_capacity - 1) !cache
        else !cache
      in
      cache := ((m, opts'), v) :: pruned;
      v

let run ?(argv = []) ?(inputs = []) ?(max_steps = 2_000_000_000)
    ?(cfg = Interp.State.default_config) (scheme : scheme) (m : Ir.modul) :
    Interp.Vm.result =
  let base = { cfg with Interp.State.argv; inputs; max_steps } in
  match scheme with
  | Unprotected -> Softbound.run_unprotected ~cfg:base m
  | Softbound opts | Registered { impl = Schemes.Transform opts; _ } ->
      let m', _sites = instrument_cached ~opts m in
      Interp.Engine.run ~cfg:(Softbound.protected_cfg ~opts base) m'
  | Registered e ->
      (* a plugin: the module runs unchanged with the checker observing *)
      Schemes.run ~cfg:base e m

exception
  Workload_failed of {
    workload : string;
    scheme : string;
    quick : bool;
    outcome : string;
  }

let () =
  Printexc.register_printer (function
    | Workload_failed { workload; scheme; quick; outcome } ->
        Some
          (Printf.sprintf
             "workload %S under scheme %S (%s args) did not run cleanly: %s"
             workload scheme
             (if quick then "quick" else "full")
             outcome)
    | _ -> None)

let check_clean ?(quick = false) ~workload ~scheme (o : Interp.State.outcome) :
    unit =
  match o with
  | Interp.State.Exit 0 -> ()
  | o ->
      raise
        (Workload_failed
           {
             workload;
             scheme;
             quick;
             outcome = Interp.State.string_of_outcome o;
           })

(** Classify a run for detection tables. *)
type verdict =
  | Detected of string  (** the scheme reported a violation *)
  | Hijacked of string  (** the attack took control *)
  | Clean of int  (** normal exit *)
  | Crashed of string  (** other trap (segfault, runtime error, ...) *)

let verdict_of (r : Interp.Vm.result) : verdict =
  match r.outcome with
  | Interp.State.Exit n -> Clean n
  | Interp.State.Trapped (Interp.State.Bounds_violation _ as t) ->
      Detected (Interp.State.string_of_trap t)
  | Interp.State.Trapped (Interp.State.Object_violation _ as t) ->
      Detected (Interp.State.string_of_trap t)
  | Interp.State.Trapped (Interp.State.Hijack s) -> Hijacked s
  | Interp.State.Trapped t -> Crashed (Interp.State.string_of_trap t)

let yes_no b = if b then "yes" else "no"

(** Simulated-cycle overhead of [r] relative to baseline [b]. *)
let overhead (r : Interp.Vm.result) (b : Interp.Vm.result) : float =
  float_of_int r.stats.Interp.State.cycles
  /. float_of_int b.stats.Interp.State.cycles
  -. 1.0

(* Memoized per workload name: the experiments (fig1, fig2, elim,
   breakdown) each recompile the same kernels; one IR value per
   workload also makes the transform cache, keyed on the module value,
   hit across experiments within a process. *)
let compiled_workloads : (string, Ir.modul) Hashtbl.t = Hashtbl.create 16

let compile_workload (w : Workloads.workload) : Ir.modul =
  (* under [cache_lock]: parallel drivers must agree on ONE module value
     per workload, or the transform cache above sees distinct modules
     and re-instruments per domain *)
  with_lock @@ fun () ->
  match Hashtbl.find_opt compiled_workloads w.Workloads.name with
  | Some m -> m
  | None ->
      let m = Softbound.compile w.Workloads.source in
      Hashtbl.add compiled_workloads w.Workloads.name m;
      m

(* Source text -> compiled module, keyed by content digest.  Returning
   the SAME module value for identical text is what lets everything
   keyed on the module value downstream (the transform cache above, the
   VM's module image) hit when the serve daemon sees the same program
   again, request after request. *)
let source_cache_capacity = 64
let source_compile_count = ref 0
let source_cache : (string * Ir.modul) list ref = ref []

let compile_source_cached (src : string) : Ir.modul =
  with_lock @@ fun () ->
  let key = Digest.string src in
  let rec find acc = function
    | [] -> None
    | ((k', m) as e) :: rest when String.equal k' key ->
        source_cache := e :: List.rev_append acc rest;
        Some m
    | e :: rest -> find (e :: acc) rest
  in
  match find [] !source_cache with
  | Some m -> m
  | None ->
      incr source_compile_count;
      let m = Softbound.compile src in
      let pruned =
        if List.length !source_cache >= source_cache_capacity then
          List.filteri (fun i _ -> i < source_cache_capacity - 1) !source_cache
        else !source_cache
      in
      source_cache := (key, m) :: pruned;
      m

let source_compiles_performed () = with_lock (fun () -> !source_compile_count)
