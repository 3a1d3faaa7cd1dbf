(** A small set-associative cache simulator with LRU replacement.

    The paper attributes part of the hash-table metadata facility's
    overhead to additional memory pressure (section 6.3's cache-miss
    simulations).  Routing every simulated memory access — program data
    and metadata alike — through this model makes that effect emerge
    rather than being assumed. *)

type config = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;
  miss_penalty : int;  (** extra cycles charged per miss *)
}

val default_config : config
(** 32 KiB, 8-way, 64-byte lines, 30-cycle miss penalty. *)

type t

val create : ?cfg:config -> unit -> t
(** Create a cache.  Raises [Invalid_argument] unless [line_bytes],
    [size_bytes] and [assoc] are all powers of two and the cache holds
    at least one full set — line indexing shifts and masks, so
    non-power-of-two geometries would silently mis-map addresses to
    lines. *)

val access : t -> int -> int
(** Access one address; returns the cycle penalty (0 on a hit). *)

val hits : t -> int
val misses : t -> int
val miss_rate : t -> float
