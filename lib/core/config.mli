(** Configuration of the SoftBound transformation and runtime. *)

(** Checking mode (paper sections 1 and 6.3).

    [Full_checking] inserts a bounds check before every load and store —
    complete spatial-violation detection.  [Store_only] fully propagates
    all metadata but checks only memory writes — sufficient to stop
    memory-corruption exploits (which need at least one out-of-bounds
    write) at a much lower overhead. *)
type mode = Full_checking | Store_only

(** Metadata organization (re-export of {!Interp.State.meta_facility}):
    [Hash_table] and [Shadow_space] are the paper's two organizations
    (section 5.1); [Obj_header] (CGuard), [Frame_tag] (FRAMER) and
    [Wide_inline] (L4 Pointer) are related-work cost models over the
    shadow space (see {!Schemes}). *)
type facility = Interp.State.meta_facility =
  | Hash_table
  | Shadow_space
  | Obj_header
  | Frame_tag
  | Wide_inline

type options = {
  mode : mode;
  facility : facility;
  shrink_bounds : bool;
      (** narrow bounds when creating pointers to struct fields
          (section 3.1, "Shrinking Pointer Bounds"); turning this off
          reproduces the sub-object blindness of object-table tools *)
  memcpy_heuristic : bool;
      (** skip the metadata copy for memcpy calls whose static operand
          types are pointer-free (section 5.2, "Memcpy") *)
  clear_free_meta : bool;
      (** zero the metadata of pointer-bearing heap blocks on free *)
  fptr_signatures : bool;
      (** the paper's future-work extension (section 5.2, "Function
          pointers"): dynamically check that the pointer/non-pointer
          signature of an indirect callee matches the call site *)
  prune_liveness : bool;
      (** drop metadata that no check/call/return/store can observe —
          standing in for the paper's re-run of LLVM's optimizers over
          the instrumented code (section 6.1) *)
  eliminate_checks : bool;
      (** run the redundant-check elimination / metadata-lookup
          hoisting pass ({!Elim}) over the instrumented code — the
          redundancy half of the section 6.1 optimizer re-run
          ([prune_liveness] is the liveness half) *)
  widen_checks : bool;
      (** within {!Elim}, run the induction-variable check-widening and
          in-block coalescing sub-passes (SCEV-lite loop span checks).
          Off (CLI [--no-widen]) keeps hoisting/CSE but leaves every
          per-iteration check in place — the widening ablation's
          control configuration.  No effect when [eliminate_checks] is
          off. *)
}

val default : options
(** Full checking, shadow space, every paper behaviour on,
    [fptr_signatures] off (matching the paper's prototype). *)

val store_only : options
(** [default] with [mode = Store_only]. *)

val facility_name : facility -> string
val mode_name : mode -> string
