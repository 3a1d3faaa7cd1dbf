(* x86-equivalent instruction-count cost model.

   The paper quantifies its metadata facilities in x86 instruction counts
   (section 5.1): "In the common case of no collisions, the [hash table]
   lookup is approximately nine x86 instructions ... A shadow space lookup
   is approximately five x86 instructions."  The dereference check is two
   compares and a branch.  These constants drive the simulated-cycle
   accounting in the interpreter, so Figure 2's overhead shape emerges
   from executed instructions rather than wall-clock noise. *)

let basic = 1 (* mov/add/and/or/shift/compare/branch *)
let mul = 3
let div = 20
let fdiv = 20
let fbasic = 2 (* fp add/sub/mul *)
let load = 1 (* plus cache penalty *)
let store = 1 (* plus cache penalty *)
let call = 2
let ret = 2
let alloca = 1

(** Bounds check: two compares + a fused branch, as inlined by the
    prototype. *)
let check = 2

(** Hash-table metadata lookup: "shift, mask, multiply, add, three loads,
    compare, and branch" — nine x86 instructions, one of them a multiply
    (3 cycles here) and the three loads serially dependent (the tag
    compare gates the base/bound fetches), giving ~16 cycle-equivalents
    on the modeled in-order pipeline. *)
let hash_lookup = 16

(** Hash-table metadata update: same addressing arithmetic, three stores
    (tag, base, bound). *)
let hash_update = 14

(** Collision probe: one extra compare+load+branch round per probe. *)
let hash_probe = 3

(** Shadow-space lookup: "shift, mask, add, and two loads" — five x86
    instructions whose two loads issue independently: ~6
    cycle-equivalents. *)
let shadow_lookup = 6

let shadow_update = 6

(** CGuard-style object-header lookup: the bounds live in a 16-byte
    header placed immediately before the object, so a metadata load is
    an add (header address) plus two loads that issue independently —
    cheaper than either SoftBound facility but tied to the object, not
    the pointer. *)
let header_lookup = 4

(** CGuard-style metadata "update" on a pointer store: the object tag
    travels in the pointer's spare bits, so propagating it is a single
    mask/or — no memory traffic. *)
let header_update = 1

(** FRAMER-style frame-tag decode: recover the frame header from the
    tagged pointer (shift, mask, add, compare for the small/large-frame
    split, then two loads from the header) — ~8 cycle-equivalents, the
    per-access price of keeping pointers one word wide. *)
let frame_lookup = 8

(** FRAMER tag propagation on a pointer store: the tag rides in the
    pointer's top byte, one mask/or. *)
let frame_update = 1

(** L4-Pointer-style wide-pointer decode: base and bound are inline in
    the 128-bit pointer, so a metadata "lookup" is the extract of the
    upper half — one extra load adjacent to the pointer plus a shift. *)
let wide_lookup = 2

(** Writing a wide pointer stores both halves: one extra store. *)
let wide_update = 2

(** Cost of one libc runtime call's fixed overhead. *)
let libc_call = 4

(** Hardware transcendental/sqrt latency (x86 sqrtsd ~18 cycles). *)
let math_fn = 18

(** Per-byte cost of bulk memory routines (memcpy/strcpy etc.); real
    implementations move words, so charge a fraction per byte. *)
let per_byte_bulk_x8 = 2 (* 2 cycles per 8 bytes *)

let bulk_cost nbytes = ((nbytes + 7) / 8 * per_byte_bulk_x8) + libc_call
