(** Sparse paged byte-addressable memory for the simulated 64-bit machine.

    Pages (4 KiB) are materialized on first write; reads of untouched
    pages return zeroes without allocating — mirroring the paper's
    zero-initialized, demand-paged shadow space (section 5.1).

    Validity is segment-granular: an access outside every live segment
    raises {!Segfault}, while an out-of-bounds access *within* a segment
    silently corrupts neighbouring data — exactly the behaviour that
    makes the attack suite (Table 3) and the BugBench programs (Table 4)
    genuinely dangerous when run unprotected. *)

exception Segfault of int  (** faulting address *)

val align_up : int -> int -> int
(** [align_up x a] rounds [x] up to a multiple of [a]. *)

val page_bits : int
val page_size : int

type t

val create : unit -> t

val resident_pages : t -> int
(** Number of materialized pages — the simulated resident set. *)

val resident_bytes : t -> int

val valid : t -> int -> bool
(** Segment-level validity of an address for *program* accesses.  The
    metadata regions (hash table, shadow space) are only touched by the
    checker runtimes, which bypass this check. *)

val check_program_access : t -> int -> int -> unit
(** [check_program_access m addr len] raises {!Segfault} unless the
    first and last byte of the range lie in live segments. *)

(** {1 Raw byte access (no validity checks)} *)

val read_byte : t -> int -> int
val write_byte : t -> int -> int -> unit

val read_int : t -> int -> int -> int
(** [read_int m addr len] : little-endian unsigned read of [len]
    (1, 2, 4 or 8) bytes. *)

val write_int : t -> int -> int -> int -> unit
(** [write_int m addr len v] : little-endian write of the low [len]
    bytes of [v] (two's complement for negative values). *)

val sign_extend : int -> int -> int
(** [sign_extend v len] sign-extends an unsigned [len]-byte value read
    by {!read_int}. *)

val read_i64 : t -> int -> int64
val write_i64 : t -> int -> int64 -> unit

(** {2 Byte-loop reference paths}

    The word-granular accessors above take fast paths — direct
    multi-byte loads/stores within a page, and flat-region words in the
    shadow space — and fall back to these byte loops only for accesses
    that straddle a page or region edge.  The byte loops are the
    semantic reference: the qcheck equivalence suite asserts that fast
    and slow paths agree on values *and* on page materialization
    ({!resident_bytes}) for arbitrary access sequences. *)

val read_int_slow : t -> int -> int -> int
val write_int_slow : t -> int -> int -> int -> unit
val read_i64_slow : t -> int -> int64
val write_i64_slow : t -> int -> int64 -> unit

val read_f64 : t -> int -> float
val write_f64 : t -> int -> float -> unit
val read_f32 : t -> int -> float
val write_f32 : t -> int -> float -> unit

val read_cstring : ?max:int -> t -> int -> string
(** Read a NUL-terminated string (capped at [max], default 1 MiB). *)

val write_string : t -> int -> string -> unit
val write_cstring : t -> int -> string -> unit

val blit : t -> src:int -> dst:int -> len:int -> unit
(** Overlap-safe byte copy (memmove semantics). *)

val fill : t -> int -> int -> int -> unit
(** [fill m addr len byte]. *)

(** {1 Segment management} *)

val alloc_global : t -> size:int -> align:int -> int
(** Allocate [size] bytes in the globals segment; returns the address. *)

val heap_sbrk : t -> int -> int option
(** Grow the heap bump pointer; [None] when the simulated heap limit is
    reached. *)

val set_stack_low : t -> int -> unit
(** Record stack growth.  The low watermark is monotonic: memory once
    made valid by stack growth stays readable, as on a real machine.
    Raises {!Segfault} past the stack limit. *)
