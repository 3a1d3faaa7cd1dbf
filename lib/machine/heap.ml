(* Heap allocator over the simulated heap segment.

   First-fit free list with a bump-pointer fallback.  Blocks are separated
   by a 16-byte guard gap — as in common production allocators the gap is
   plain unused (and, at segment granularity, accessible) memory, so a
   heap overflow silently scribbles into it unless a checker objects.
   Block bookkeeping lives on the OCaml side (queried by checkers and by
   free/realloc); the payload bytes live in simulated memory.

   A block's capacity [bcap] (what the allocator carved out for it) is
   tracked separately from its requested size [bsize]: a free-list block
   reused for a smaller request either splits — the tail, minus one guard
   gap, returns to the free list — or, when too small to split, is
   swallowed whole, and [free] returns the full capacity either way.
   (Conflating the two leaked [capacity - round_cap size] bytes per
   reuse, inflating resident-set and cache-pressure measurements on
   allocation-heavy workloads.)  The conservation invariant, checked by a
   property test over random malloc/free/realloc traces:

     grabbed_bytes = sum of live capacities + sum of free capacities
                     + gap * (live blocks + free-list entries)        *)

type block = {
  baddr : int;
  mutable bsize : int;  (** requested size; mutated by in-place realloc *)
  bcap : int;  (** capacity carved out of the segment, >= round_cap bsize *)
  mutable live : bool;
}

type t = {
  mem : Memory.t;
  blocks : (int, block) Hashtbl.t;  (** payload address -> block *)
  mutable free_list : (int * int) list;  (** (addr, capacity) *)
  mutable live_bytes : int;
  mutable peak_bytes : int;
  mutable total_allocs : int;
  mutable grabbed_bytes : int;  (** total sbrk'ed, guard gaps included *)
}

let gap = 16

(* Smallest block worth carving off: a split's tail must hold a minimal
   16-byte block plus its own guard gap. *)
let min_split = 16

let create mem =
  {
    mem;
    blocks = Hashtbl.create 16;
    free_list = [];
    live_bytes = 0;
    peak_bytes = 0;
    total_allocs = 0;
    grabbed_bytes = 0;
  }

let round_cap size = Memory.align_up (Int.max size 1) 16

(** Allocate [size] bytes; returns the payload address, or [None] when the
    simulated heap is exhausted. *)
let malloc h size =
  if size < 0 then None
  else begin
    let cap = round_cap size in
    let found =
      (* first fit; split when the surplus can stand as its own block *)
      let rec pick acc = function
        | [] -> None
        | (a, c) :: rest when c >= cap ->
            if c >= cap + gap + min_split then begin
              h.free_list <-
                List.rev_append acc ((a + cap + gap, c - cap - gap) :: rest);
              Some (a, cap)
            end
            else begin
              h.free_list <- List.rev_append acc rest;
              Some (a, c)
            end
        | x :: rest -> pick (x :: acc) rest
      in
      match pick [] h.free_list with
      | Some _ as r -> r
      | None -> (
          match Memory.heap_sbrk h.mem (cap + gap) with
          | None -> None
          | Some a ->
              h.grabbed_bytes <- h.grabbed_bytes + cap + gap;
              Some (a, cap))
    in
    match found with
    | None -> None
    | Some (a, bcap) ->
        Hashtbl.replace h.blocks a { baddr = a; bsize = size; bcap; live = true };
        h.live_bytes <- h.live_bytes + size;
        h.peak_bytes <- Int.max h.peak_bytes h.live_bytes;
        h.total_allocs <- h.total_allocs + 1;
        Some a
  end

exception Bad_free of int

let free h addr =
  if addr = 0 then ()
  else
    match Hashtbl.find_opt h.blocks addr with
    | Some b when b.live ->
        b.live <- false;
        h.live_bytes <- h.live_bytes - b.bsize;
        h.free_list <- (b.baddr, b.bcap) :: h.free_list
    | Some _ -> raise (Bad_free addr) (* double free *)
    | None -> raise (Bad_free addr)

let realloc h addr size =
  if addr = 0 then malloc h size
  else
    match Hashtbl.find_opt h.blocks addr with
    | Some b when b.live ->
        if size >= 0 && round_cap size <= b.bcap then begin
          (* grow or shrink in place within the block's capacity *)
          h.live_bytes <- h.live_bytes + size - b.bsize;
          h.peak_bytes <- Int.max h.peak_bytes h.live_bytes;
          b.bsize <- size;
          Some addr
        end
        else begin
          match malloc h size with
          | None -> None
          | Some a' ->
              Memory.blit h.mem ~src:addr ~dst:a' ~len:(Int.min b.bsize size);
              free h addr;
              Some a'
        end
    | _ -> raise (Bad_free addr)

(** Size of the live block at exactly [addr]. *)
let block_size h addr =
  match Hashtbl.find_opt h.blocks addr with
  | Some b when b.live -> Some b.bsize
  | _ -> None

(** The live block containing [addr], if any (linear in block count; used
    only by checker baselines, which keep their own indexes for speed). *)
let containing_block h addr =
  Hashtbl.fold
    (fun _ b acc ->
      if b.live && addr >= b.baddr && addr < b.baddr + b.bsize then Some b
      else acc)
    h.blocks None

let iter_live h f =
  Hashtbl.iter (fun _ b -> if b.live then f b.baddr b.bsize) h.blocks

let live_bytes h = h.live_bytes
let peak_bytes h = h.peak_bytes
let total_allocs h = h.total_allocs
let grabbed_bytes h = h.grabbed_bytes
let free_regions h = h.free_list

let live_regions h =
  Hashtbl.fold
    (fun _ b acc -> if b.live then (b.baddr, b.bsize, b.bcap) :: acc else acc)
    h.blocks []
