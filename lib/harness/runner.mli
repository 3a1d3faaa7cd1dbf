(** Shared pipeline driver for the experiments: run a compiled module
    under any protection scheme with uniform accounting. *)

module Ir = Sbir.Ir

(** A protection scheme: nothing, a SoftBound configuration, one of the
    baseline tools, or one of the related-work schemes from {!Schemes}
    (CGuard object headers, FRAMER frame tags, L4 wide pointers). *)
type scheme =
  | Unprotected
  | Softbound of Softbound.Config.options
  | Jones_kelly
  | Memcheck
  | Mudflap
  | Mscc
  | Cguard
  | Framer
  | L4_pointer

val scheme_name : scheme -> string

(** {1 The four SoftBound configurations of Figure 2} *)

val sb_full_shadow : Softbound.Config.options
val sb_full_hash : Softbound.Config.options
val sb_store_shadow : Softbound.Config.options
val sb_store_hash : Softbound.Config.options

val run :
  ?argv:string list ->
  ?inputs:string list ->
  ?max_steps:int ->
  ?cfg:Interp.State.config ->
  scheme ->
  Ir.modul ->
  Interp.Vm.result
(** Run a module under a scheme.  [cfg] supplies the non-scheme VM
    settings (observability, tracing, cache use); [argv]/[inputs]/
    [max_steps] override the corresponding [cfg] fields.  SoftBound
    schemes instrument through {!instrument_cached}. *)

val instrument_cached :
  ?opts:Softbound.Config.options -> Ir.modul -> Ir.modul * int
(** Transform-result cache, keyed by the module VALUE (physical
    equality, [==]) and the transform-relevant options (the metadata
    facility is normalized away — shadow and hash runs share one
    transform).  Identical programs share an entry because their module
    values are shared upstream: {!compile_source_cached} returns one
    module value per source text and {!compile_workload} one per
    workload, which is what keeps the serve daemon from re-instrumenting
    every request.  A module built any other way is its own entry.
    Returns the instrumented module and its assigned-site count. *)

val transforms_performed : unit -> int
(** Process-wide count of actual (non-cached) transform runs — the
    regression hook for "the transform runs once per (program, elim)
    pair". *)

val compile_source_cached : string -> Ir.modul
(** Compile MiniC source through a digest-keyed LRU: identical text
    yields the identical (physically equal) module value, so repeated
    submissions share one compile, one transform, and one closure-engine
    compilation.  Frontend errors (lex/parse/type/lower) propagate to
    the caller and are never cached. *)

val source_compiles_performed : unit -> int
(** Process-wide count of actual (non-cached) source compiles — the
    cache-hit regression hook for {!compile_source_cached}. *)

exception
  Workload_failed of {
    workload : string;  (** which benchmark *)
    scheme : string;  (** which protection configuration *)
    quick : bool;  (** quick or full argument set *)
    outcome : string;  (** how it actually ended *)
  }
(** Raised (with a registered printer) when an experiment expected a
    clean exit and did not get one — replaces the old bare [failwith]
    that died without saying which kernel/config failed. *)

val check_clean :
  ?quick:bool ->
  workload:string ->
  scheme:string ->
  Interp.Vm.result ->
  unit
(** [check_clean ~workload ~scheme r] raises {!Workload_failed} unless
    [r] exited 0. *)

(** {1 Outcome classification for the detection tables} *)

type verdict =
  | Detected of string  (** the scheme reported a violation *)
  | Hijacked of string  (** the attack took control *)
  | Clean of int  (** normal exit *)
  | Crashed of string  (** other trap (segfault, runtime error, ...) *)

val verdict_of : Interp.Vm.result -> verdict
val detected : verdict -> bool
val yes_no : bool -> string

val overhead : Interp.Vm.result -> Interp.Vm.result -> float
(** [overhead r base]: simulated-cycle overhead of [r] relative to
    [base] (0.79 = 79%). *)

val compile_workload : Workloads.workload -> Ir.modul

val pointer_op_fraction : Interp.Vm.result -> float
(** Fraction of memory operations that moved pointer values — Figure 1's
    metric. *)
