(* Configuration of the SoftBound transformation and runtime. *)

(** Checking mode (paper section 1 and 6.3).

    [Full_checking] inserts a bounds check before every load and store —
    complete spatial-violation detection.  [Store_only] fully propagates
    all metadata but checks only memory writes — sufficient to stop
    security exploits (which need at least one out-of-bounds write) at a
    much lower overhead. *)
type mode = Full_checking | Store_only

(** Metadata organization, re-exported from
    {!Interp.State.meta_facility} (documented there). *)
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
          signature of an indirect callee matches the call site, so casts
          between incompatible function-pointer types cannot manufacture
          improper base and bounds *)
  prune_liveness : bool;
      (** drop metadata that no check/call/return/store can observe —
          standing in for the paper's re-run of LLVM's optimizers over
          the instrumented code (section 6.1).  The MSCC-style baseline
          disables this (it eschews such whole-function cleanup). *)
  eliminate_checks : bool;
      (** run the redundant-check elimination / metadata-lookup
          hoisting pass ({!Elim}) over the instrumented code — the
          redundancy half of the section 6.1 optimizer re-run
          ([prune_liveness] is the liveness half).  Off reproduces the
          uncleaned instrumentation for the ablation experiment. *)
  widen_checks : bool;
      (** within {!Elim}, run the induction-variable check-widening and
          in-block coalescing sub-passes (SCEV-lite loop span checks).
          Off (CLI [--no-widen]) keeps hoisting/CSE but leaves every
          per-iteration check in place — the widening ablation's
          control configuration.  No effect when [eliminate_checks] is
          off. *)
}

let default =
  {
    mode = Full_checking;
    facility = Shadow_space;
    shrink_bounds = true;
    memcpy_heuristic = true;
    clear_free_meta = true;
    fptr_signatures = false; (* matches the paper's prototype *)
    prune_liveness = true;
    eliminate_checks = true;
    widen_checks = true;
  }

let store_only = { default with mode = Store_only }

let facility_name = function
  | Hash_table -> "hash-table"
  | Shadow_space -> "shadow-space"
  | Obj_header -> "obj-header"
  | Frame_tag -> "frame-tag"
  | Wide_inline -> "wide-inline"

let mode_name = function
  | Full_checking -> "full"
  | Store_only -> "store-only"
