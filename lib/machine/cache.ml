(* A small set-associative cache simulator with LRU replacement.

   The paper attributes part of the hash-table facility's overhead to
   "additional memory pressure ... contributing to the runtime overheads"
   (section 6.3, simulations of cache miss rates).  Routing every simulated
   memory access — program data and metadata alike — through this model
   makes that effect emerge rather than being assumed. *)

type config = {
  size_bytes : int;
  assoc : int;
  line_bytes : int;
  miss_penalty : int;  (** extra cycles charged per miss *)
}

let default_config =
  { size_bytes = 32 * 1024; assoc = 8; line_bytes = 64; miss_penalty = 30 }

type t = {
  cfg : config;
  n_sets : int;
  line_bits : int;
  (* tags.(set * assoc + way); -1 = invalid *)
  tags : int array;
  (* LRU stamps, monotone counter *)
  stamps : int array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
}

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* Exact integer log2 of a power of two. *)
let log2 n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let create ?(cfg = default_config) () =
  (* Line indexing shifts and masks, so every geometry parameter must be
     a power of two; a float log2 rounded to the nearest integer
     silently mis-masked here for non-power-of-two line sizes, folding
     distinct lines together and overstating hit rates. *)
  if not (is_pow2 cfg.line_bytes) then
    invalid_arg
      (Printf.sprintf "Cache.create: line_bytes %d is not a power of two"
         cfg.line_bytes);
  if not (is_pow2 cfg.size_bytes) then
    invalid_arg
      (Printf.sprintf "Cache.create: size_bytes %d is not a power of two"
         cfg.size_bytes);
  if not (is_pow2 cfg.assoc) then
    invalid_arg
      (Printf.sprintf "Cache.create: assoc %d is not a power of two" cfg.assoc);
  if cfg.size_bytes < cfg.line_bytes * cfg.assoc then
    invalid_arg
      (Printf.sprintf
         "Cache.create: size_bytes %d holds no full set (line_bytes %d x \
          assoc %d)"
         cfg.size_bytes cfg.line_bytes cfg.assoc);
  let n_lines = cfg.size_bytes / cfg.line_bytes in
  let n_sets = max 1 (n_lines / cfg.assoc) in
  let line_bits = log2 cfg.line_bytes in
  {
    cfg;
    n_sets;
    line_bits;
    tags = Array.make (n_sets * cfg.assoc) (-1);
    stamps = Array.make (n_sets * cfg.assoc) 0;
    clock = 0;
    hits = 0;
    misses = 0;
  }

(** Access one address; returns the cycle penalty (0 on hit).
    This is the hottest function in the whole simulator (it runs for
    every simulated memory access, metadata probe and control-data
    touch), so the way scan is allocation-free and unchecked — indices
    are in bounds by construction of [tags]/[stamps]. *)
let access c addr =
  c.clock <- c.clock + 1;
  let line = addr lsr c.line_bits in
  let set = line land (c.n_sets - 1) in
  let assoc = c.cfg.assoc in
  let base = set * assoc in
  let tags = c.tags in
  let rec find w =
    if w >= assoc then -1
    else if Array.unsafe_get tags (base + w) = line then w
    else find (w + 1)
  in
  let w = find 0 in
  if w >= 0 then begin
    c.hits <- c.hits + 1;
    Array.unsafe_set c.stamps (base + w) c.clock;
    0
  end
  else begin
    c.misses <- c.misses + 1;
    (* evict LRU way *)
    let stamps = c.stamps in
    let victim = ref 0 in
    for w = 1 to assoc - 1 do
      if
        Array.unsafe_get stamps (base + w)
        < Array.unsafe_get stamps (base + !victim)
      then victim := w
    done;
    Array.unsafe_set tags (base + !victim) line;
    Array.unsafe_set stamps (base + !victim) c.clock;
    c.cfg.miss_penalty
  end

let hits c = c.hits
let misses c = c.misses

let miss_rate c =
  let total = c.hits + c.misses in
  if total = 0 then 0.0 else float_of_int c.misses /. float_of_int total
