(** Heap allocator over the simulated heap segment.

    First-fit free list with a bump-pointer fallback.  Blocks are
    separated by a 16-byte guard gap; as in common production allocators
    the gap is plain unused (and, at segment granularity, accessible)
    memory, so a heap overflow silently scribbles into it unless a
    checker objects.  Block bookkeeping lives on the OCaml side (queried
    by the baseline checkers and by free/realloc); the payload bytes live
    in simulated memory.

    A block's capacity (what the allocator carved out for it) is tracked
    separately from the requested size, so reusing a large free block
    for a small request either splits it or, when swallowed whole,
    returns the full capacity on free — no bytes leak.  The conservation
    invariant, checked by a property test over random traces:

    {[ grabbed_bytes = sum of live capacities + sum of free capacities
                       + gap * (live blocks + free-list entries) ]} *)

type block = {
  baddr : int;
  mutable bsize : int;  (** requested size; mutated by in-place realloc *)
  bcap : int;  (** capacity carved out of the segment *)
  mutable live : bool;
}

type t

exception Bad_free of int  (** double free or free of a wild pointer *)

val gap : int
(** Guard gap between blocks, in bytes. *)

val create : Memory.t -> t

val malloc : t -> int -> int option
(** Allocate; returns the payload address, or [None] when the simulated
    heap is exhausted. *)

val free : t -> int -> unit
(** Free the live block at exactly this address; freeing [0] is a
    no-op; raises {!Bad_free} otherwise. *)

val realloc : t -> int -> int -> int option
(** Reallocate, preserving [min old_size new_size] bytes of contents;
    stays in place when the new size fits the block's capacity. *)

val block_size : t -> int -> int option
(** Size of the live block starting at exactly this address. *)

val containing_block : t -> int -> block option
(** The live block containing the address, if any (linear scan; the
    baseline checkers keep their own indexes for speed). *)

val iter_live : t -> (int -> int -> unit) -> unit
(** [iter_live h f] calls [f base size] for every live block. *)

val live_bytes : t -> int
val peak_bytes : t -> int
val total_allocs : t -> int

val grabbed_bytes : t -> int
(** Total bytes taken from the heap segment (guard gaps included). *)

val free_regions : t -> (int * int) list
(** Current free list as [(address, capacity)] pairs. *)

val live_regions : t -> (int * int * int) list
(** Live blocks as [(address, requested size, capacity)] triples. *)
