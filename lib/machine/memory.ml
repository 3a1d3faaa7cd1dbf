(* Sparse paged byte-addressable memory.

   Pages (4 KiB) are materialized on first write; reads of untouched pages
   return zeroes without allocating, mirroring the paper's zero-initialized
   mmap'd shadow space with demand paging.

   Validity is segment-granular: an access outside every live segment is a
   simulated segmentation fault.  Within a segment, out-of-bounds accesses
   silently corrupt neighbouring data — exactly the behaviour that makes
   the attack suite (Table 3) and BugBench programs (Table 4) genuinely
   dangerous when run unprotected.

   Host-side performance: a small direct-mapped translation cache sits in
   front of the page hash table, and 2/4/8-byte accesses that do not
   straddle a page boundary go through [Bytes.get_int64_le]-family
   primitives instead of per-byte composition.  Both are invisible to the
   simulation — the page-materialization behaviour (and hence
   [resident_bytes]) and every value read or written are bit-identical to
   the byte-loop paths, which remain as the straddling fallback. *)

exception Segfault of int  (** address *)

let align_up x a = (x + a - 1) / a * a

let page_bits = 12
let page_size = 1 lsl page_bits
let page_mask = page_size - 1

(* translation cache: direct-mapped on the low page-index bits *)
let tlb_bits = 8
let tlb_size = 1 lsl tlb_bits
let tlb_mask = tlb_size - 1

(** Sentinel for "page not materialized"; compared with [==]. *)
let no_page = Bytes.create 0

(* --- flat shadow storage ---

   The tag-less shadow space maps program address [a] to
   [shadow_base + 2 * (a land lnot 7)] (16 metadata bytes per aligned
   double-word), so the shadow image of each program segment is a single
   contiguous address range twice the segment's size.  Backing those
   three ranges with growable flat [Bytes] regions bypasses page
   translation (and the TLB, whose slots shadow traffic would otherwise
   share with program pages) for every metadata load/store.

   The flat path is host-only: values read and written are bit-identical
   to the paged path, untouched bytes read as zero exactly like
   unmaterialized pages, and [resident_pages] stays exact because each
   region tracks which would-be pages a write has materialized (the
   region anchors are page-aligned, so region-relative pages partition
   the address space exactly like absolute pages).  Shadow addresses
   outside the three program segments' images — reachable only through
   observer-side probes — fall back to paged memory. *)

type sregion = {
  sr_base : int;  (** absolute shadow address of the region's start *)
  sr_limit : int;  (** one past the region's last byte *)
  sr_down : bool;
      (** stack image: the backing store is anchored at [sr_limit] and
          grows toward [sr_base], mirroring the stack itself *)
  mutable sr_data : Bytes.t;
  mutable sr_pages : Bytes.t;  (** materialization bitmap, 1 bit/page *)
  mutable sr_resident : int;  (** set bits in [sr_pages] *)
}

(* shadow images of the three program segments (globals and heap are
   contiguous in program space, but kept separate so the heap region's
   offsets — and hence its backing allocation — start at zero) *)
let sh_glob_base = Layout.shadow_base + (2 * Layout.globals_base)
let sh_glob_limit = Layout.shadow_base + (2 * Layout.heap_base)
let sh_heap_limit = Layout.shadow_base + (2 * Layout.heap_limit)
let sh_stack_base = Layout.shadow_base + (2 * Layout.stack_limit)
let sh_stack_limit = Layout.shadow_base + (2 * Layout.stack_top)

let sr_make ~base ~limit ~down =
  {
    sr_base = base;
    sr_limit = limit;
    sr_down = down;
    sr_data = Bytes.create 0;
    sr_pages = Bytes.create 0;
    sr_resident = 0;
  }

type t = {
  pages : (int, Bytes.t) Hashtbl.t;
  tlb_tag : int array;  (** page index + 1; 0 = empty slot *)
  tlb_page : Bytes.t array;
  sregions : sregion array;  (** globals, heap, stack shadow images *)
  mutable globals_brk : int;
  mutable heap_brk : int;
  mutable stack_low : int;  (** lowest stack address currently in use *)
}

let create () =
  {
    (* starts small: a short run touches a handful of pages, and the
       table grows with the ones a long run materializes *)
    pages = Hashtbl.create 16;
    tlb_tag = Array.make tlb_size 0;
    tlb_page = Array.make tlb_size no_page;
    sregions =
      [|
        sr_make ~base:sh_glob_base ~limit:sh_glob_limit ~down:false;
        sr_make ~base:sh_glob_limit ~limit:sh_heap_limit ~down:false;
        sr_make ~base:sh_stack_base ~limit:sh_stack_limit ~down:true;
      |];
    globals_brk = Layout.globals_base;
    heap_brk = Layout.heap_base;
    stack_low = Layout.stack_top;
  }

(** Number of materialized pages — the simulated resident set.  Flat
    shadow regions count the pages the paged path would have
    materialized. *)
let resident_pages m =
  Hashtbl.length m.pages
  + m.sregions.(0).sr_resident
  + m.sregions.(1).sr_resident
  + m.sregions.(2).sr_resident

let resident_bytes m = resident_pages m * page_size

(* --- flat shadow access --- *)

(** Region index for a shadow address; -1 = outside every flat region
    (falls back to paged memory). *)
let sr_index a =
  if a >= sh_glob_base && a < sh_heap_limit then
    if a >= sh_glob_limit then 1 else 0
  else if a >= sh_stack_base && a < sh_stack_limit then 2
  else -1

(* The backing store of an up-region covers addresses
   [sr_base, sr_base + cap); the down-region's covers
   [sr_limit - cap, sr_limit).  [sr_pos] maps an address to its index in
   the current store (an index outside [0, cap) means "not covered yet":
   reads see zero, writes grow).  All region bounds are page-aligned, so
   the anchor-relative page ids used by the bitmap partition addresses
   exactly like the absolute page ids of the paged path. *)

let sr_pos r a =
  if r.sr_down then a - r.sr_limit + Bytes.length r.sr_data
  else a - r.sr_base

(** Grow [r]'s backing store (and page bitmap) until [sr_pos r a] is a
    valid index.  Doubling from 64 KiB keeps reallocation amortized;
    fresh bytes are zero, matching unmaterialized pages. *)
let sr_grow r a =
  let cap = Bytes.length r.sr_data in
  let need = if r.sr_down then r.sr_limit - a else a - r.sr_base + 1 in
  let cap' = ref (max 65536 (cap * 2)) in
  while !cap' < need do
    cap' := !cap' * 2
  done;
  let data = Bytes.make !cap' '\000' in
  if r.sr_down then Bytes.blit r.sr_data 0 data (!cap' - cap) cap
  else Bytes.blit r.sr_data 0 data 0 cap;
  r.sr_data <- data;
  let pcap = Bytes.length r.sr_pages in
  let pcap' = max 32 (!cap' lsr (page_bits + 3)) in
  if pcap' > pcap then begin
    let pages = Bytes.make pcap' '\000' in
    Bytes.blit r.sr_pages 0 pages 0 pcap;
    r.sr_pages <- pages
  end

(** Record that a write touched the page holding address [a] — exactly
    the page [page_for_write] would have materialized. *)
let sr_mark_page r a =
  let pidx =
    if r.sr_down then (r.sr_limit - 1 - a) lsr page_bits
    else (a - r.sr_base) lsr page_bits
  in
  let byte = pidx lsr 3 and bit = pidx land 7 in
  let b = Char.code (Bytes.get r.sr_pages byte) in
  if b land (1 lsl bit) = 0 then begin
    Bytes.set r.sr_pages byte (Char.chr (b lor (1 lsl bit)));
    r.sr_resident <- r.sr_resident + 1
  end

let sr_read_byte r a =
  let pos = sr_pos r a in
  if pos < 0 || pos >= Bytes.length r.sr_data then 0
  else Char.code (Bytes.unsafe_get r.sr_data pos)

let sr_write_byte r a v =
  let pos = sr_pos r a in
  let pos =
    if pos >= 0 && pos < Bytes.length r.sr_data then pos
    else begin
      sr_grow r a;
      sr_pos r a
    end
  in
  Bytes.unsafe_set r.sr_data pos (Char.unsafe_chr (v land 0xff));
  sr_mark_page r a

(** Segment-level validity for program accesses.  The metadata regions
    (hash table, shadow space) are only touched by the checker runtimes,
    which bypass this check. *)
let valid m a =
  (a >= Layout.globals_base && a < (m.globals_brk + page_size) land lnot page_mask)
  || (a >= Layout.heap_base && a < (m.heap_brk + page_size) land lnot page_mask)
  || (a >= m.stack_low && a < Layout.stack_top)

let check_program_access m a len =
  if not (valid m a && (len <= 1 || valid m (a + len - 1))) then
    raise (Segfault a)

(* Positions ascend with addresses in both orientations (the down-region
   mapping is [a - sr_limit + cap], still monotone), so little-endian
   word primitives apply to the flat store directly. *)

(** Read [len] <= 8 bytes at shadow address [a]; the whole range must lie
    inside region [r]. *)
let sr_read_word r a len =
  let pos = sr_pos r a in
  if pos >= 0 && pos + len <= Bytes.length r.sr_data then
    match len with
    | 8 -> Int64.to_int (Bytes.get_int64_le r.sr_data pos)
    | 1 -> Char.code (Bytes.unsafe_get r.sr_data pos)
    | 2 -> Bytes.get_uint16_le r.sr_data pos
    | 4 -> Int32.to_int (Bytes.get_int32_le r.sr_data pos) land 0xffffffff
    | _ ->
        let v = ref 0 in
        for i = len - 1 downto 0 do
          v := (!v lsl 8) lor Char.code (Bytes.unsafe_get r.sr_data (pos + i))
        done;
        !v
  else if pos + len <= 0 || pos >= Bytes.length r.sr_data then 0
  else begin
    (* partially covered: per-byte, uncovered bytes read as zero *)
    let v = ref 0 in
    for i = len - 1 downto 0 do
      v := (!v lsl 8) lor sr_read_byte r (a + i)
    done;
    !v
  end

let sr_write_word r a len v =
  let pos = sr_pos r a in
  let pos =
    if pos >= 0 && pos + len <= Bytes.length r.sr_data then pos
    else begin
      (* growing to cover the extreme end covers the whole range: the
         other end is bounded by the region edge the store is anchored
         at *)
      sr_grow r (if r.sr_down then a else a + len - 1);
      sr_pos r a
    end
  in
  (match len with
  | 8 -> Bytes.set_int64_le r.sr_data pos (Int64.of_int v)
  | 1 -> Bytes.unsafe_set r.sr_data pos (Char.unsafe_chr (v land 0xff))
  | 2 -> Bytes.set_uint16_le r.sr_data pos (v land 0xffff)
  | 4 -> Bytes.set_int32_le r.sr_data pos (Int32.of_int v)
  | _ ->
      let v = ref v in
      for i = 0 to len - 1 do
        Bytes.unsafe_set r.sr_data (pos + i) (Char.unsafe_chr (!v land 0xff));
        v := !v asr 8
      done);
  sr_mark_page r a;
  if len > 1 then sr_mark_page r (a + len - 1)

(* --- page lookup --- *)

(** Page for a read: [no_page] when untouched (never materializes).
    Only present pages enter the translation cache, so a later write is
    guaranteed to see the slot as a miss and materialize normally. *)
let page_for_read m idx =
  let slot = idx land tlb_mask in
  if Array.unsafe_get m.tlb_tag slot = idx + 1 then
    Array.unsafe_get m.tlb_page slot
  else
    match Hashtbl.find_opt m.pages idx with
    | Some p ->
        Array.unsafe_set m.tlb_tag slot (idx + 1);
        Array.unsafe_set m.tlb_page slot p;
        p
    | None -> no_page

(** Page for a write: materializes on first touch. *)
let page_for_write m idx =
  let slot = idx land tlb_mask in
  if Array.unsafe_get m.tlb_tag slot = idx + 1 then
    Array.unsafe_get m.tlb_page slot
  else begin
    let p =
      match Hashtbl.find_opt m.pages idx with
      | Some p -> p
      | None ->
          let p = Bytes.make page_size '\000' in
          Hashtbl.replace m.pages idx p;
          p
    in
    Array.unsafe_set m.tlb_tag slot (idx + 1);
    Array.unsafe_set m.tlb_page slot p;
    p
  end

(* --- raw byte access (no validity check) ---

   Every accessor first routes shadow-segment addresses to the flat
   regions; shadow addresses outside the three program-segment images
   (observer probes of nonsensical locations) stay on the paged path. *)

let read_byte m a =
  if a >= Layout.shadow_base && sr_index a >= 0 then
    sr_read_byte (Array.unsafe_get m.sregions (sr_index a)) a
  else
    let p = page_for_read m (a lsr page_bits) in
    if p == no_page then 0
    else Char.code (Bytes.unsafe_get p (a land page_mask))

let write_byte m a v =
  if a >= Layout.shadow_base && sr_index a >= 0 then
    sr_write_byte (Array.unsafe_get m.sregions (sr_index a)) a v
  else
    let p = page_for_write m (a lsr page_bits) in
    Bytes.unsafe_set p (a land page_mask) (Char.unsafe_chr (v land 0xff))

(* byte-loop fallbacks for accesses that straddle a page boundary (or
   have an irregular width); also the reference the fast paths must
   agree with, which the qcheck equivalence suite enforces *)

let read_int_slow m a len =
  let v = ref 0 in
  for i = len - 1 downto 0 do
    v := (!v lsl 8) lor read_byte m (a + i)
  done;
  !v

let write_int_slow m a len v =
  let v = ref v in
  for i = 0 to len - 1 do
    write_byte m (a + i) (!v land 0xff);
    v := !v asr 8
  done

(** Little-endian unsigned read of [len] (1, 2, 4 or 8) bytes. *)
let read_int m a len =
  if a >= Layout.shadow_base then begin
    let i = sr_index a in
    if i >= 0 then begin
      let r = Array.unsafe_get m.sregions i in
      if a + len <= r.sr_limit then sr_read_word r a len
      else read_int_slow m a len (* straddles a region edge *)
    end
    else read_int_slow m a len
  end
  else
  let off = a land page_mask in
  if off + len <= page_size then
    let p = page_for_read m (a lsr page_bits) in
    if p == no_page then 0
    else
      match len with
      | 1 -> Char.code (Bytes.unsafe_get p off)
      | 2 -> Bytes.get_uint16_le p off
      | 4 ->
          (* get_int32_le sign-extends; the byte-loop contract is an
             unsigned composition, so mask back down *)
          Int32.to_int (Bytes.get_int32_le p off) land 0xffffffff
      | 8 ->
          (* [to_int] truncates mod 2^63 — exactly what composing eight
             bytes with [lsl]/[lor] into a 63-bit int produces *)
          Int64.to_int (Bytes.get_int64_le p off)
      | _ -> read_int_slow m a len
  else read_int_slow m a len

let write_int m a len v =
  if a >= Layout.shadow_base then begin
    let i = sr_index a in
    if i >= 0 then begin
      let r = Array.unsafe_get m.sregions i in
      if a + len <= r.sr_limit then sr_write_word r a len v
      else write_int_slow m a len v
    end
    else write_int_slow m a len v
  end
  else
  let off = a land page_mask in
  if off + len <= page_size then
    let p = page_for_write m (a lsr page_bits) in
    match len with
    | 1 -> Bytes.unsafe_set p off (Char.unsafe_chr (v land 0xff))
    | 2 -> Bytes.set_uint16_le p off (v land 0xffff)
    | 4 -> Bytes.set_int32_le p off (Int32.of_int v)
    | 8 ->
        (* of_int sign-extends 63→64 bits, matching the [asr]-driven
           byte loop's sign-extension of the top byte *)
        Bytes.set_int64_le p off (Int64.of_int v)
    | _ -> write_int_slow m a len v
  else write_int_slow m a len v

(** Sign-extend an unsigned [len]-byte value read by {!read_int}. *)
let sign_extend v len =
  if len >= 8 then v
  else
    let bits = len * 8 in
    let sign = 1 lsl (bits - 1) in
    if v land sign <> 0 then v - (1 lsl bits) else v

let read_i64_slow m a =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (read_byte m (a + i)))
  done;
  !v

let write_i64_slow m a (v : int64) =
  let v = ref v in
  for i = 0 to 7 do
    write_byte m (a + i) (Int64.to_int (Int64.logand !v 0xffL));
    v := Int64.shift_right_logical !v 8
  done

let read_i64 m a =
  if a >= Layout.shadow_base then begin
    let i = sr_index a in
    if i >= 0 then begin
      let r = Array.unsafe_get m.sregions i in
      let pos = sr_pos r a in
      if a + 8 <= r.sr_limit && pos >= 0 && pos + 8 <= Bytes.length r.sr_data
      then Bytes.get_int64_le r.sr_data pos
      else if a + 8 <= r.sr_limit && (pos + 8 <= 0 || pos >= Bytes.length r.sr_data)
      then 0L
      else read_i64_slow m a
    end
    else read_i64_slow m a
  end
  else
    let off = a land page_mask in
    if off + 8 <= page_size then
      let p = page_for_read m (a lsr page_bits) in
      if p == no_page then 0L else Bytes.get_int64_le p off
    else read_i64_slow m a

let write_i64 m a (v : int64) =
  if a >= Layout.shadow_base then begin
    let i = sr_index a in
    if i >= 0 then begin
      let r = Array.unsafe_get m.sregions i in
      if a + 8 <= r.sr_limit then begin
        let pos = sr_pos r a in
        let pos =
          if pos >= 0 && pos + 8 <= Bytes.length r.sr_data then pos
          else begin
            sr_grow r (if r.sr_down then a else a + 7);
            sr_pos r a
          end
        in
        Bytes.set_int64_le r.sr_data pos v;
        sr_mark_page r a;
        sr_mark_page r (a + 7)
      end
      else write_i64_slow m a v
    end
    else write_i64_slow m a v
  end
  else
    let off = a land page_mask in
    if off + 8 <= page_size then
      let p = page_for_write m (a lsr page_bits) in
      Bytes.set_int64_le p off v
    else write_i64_slow m a v

let read_f64 m a = Int64.float_of_bits (read_i64 m a)
let write_f64 m a v = write_i64 m a (Int64.bits_of_float v)

let read_f32 m a = Int32.float_of_bits (Int32.of_int (read_int m a 4))

let write_f32 m a v =
  write_int m a 4 (Int32.to_int (Int32.bits_of_float v) land 0xffffffff)

(** Read a NUL-terminated string (capped at [max], default 1 MiB).
    Scans page-at-a-time: an untouched page is all zeroes, i.e. an
    immediate terminator. *)
let read_cstring ?(max = 1 lsl 20) m a =
  if a + max > Layout.shadow_base then begin
    (* byte-at-a-time via the routed accessor: coherent with the flat
       shadow store (observer-side probes only) *)
    let buf = Buffer.create 32 in
    let rec go i =
      if i >= max then Buffer.contents buf
      else
        match read_byte m (a + i) with
        | 0 -> Buffer.contents buf
        | c ->
            Buffer.add_char buf (Char.chr (c land 0xff));
            go (i + 1)
    in
    go 0
  end
  else
  let buf = Buffer.create 32 in
  let rec go i =
    if i >= max then Buffer.contents buf
    else
      let addr = a + i in
      let off = addr land page_mask in
      let p = page_for_read m (addr lsr page_bits) in
      if p == no_page then Buffer.contents buf
      else
        let avail = Int.min (page_size - off) (max - i) in
        match Bytes.index_from_opt p off '\000' with
        | Some j when j < off + avail ->
            Buffer.add_subbytes buf p off (j - off);
            Buffer.contents buf
        | _ ->
            Buffer.add_subbytes buf p off avail;
            go (i + avail)
  in
  go 0

let write_string m a s =
  if a + String.length s > Layout.shadow_base then
    String.iteri (fun i c -> write_byte m (a + i) (Char.code c)) s
  else
  let len = String.length s in
  let rec go i =
    if i < len then begin
      let addr = a + i in
      let off = addr land page_mask in
      let p = page_for_write m (addr lsr page_bits) in
      let n = Int.min (page_size - off) (len - i) in
      Bytes.blit_string s i p off n;
      go (i + n)
    end
  in
  go 0

let write_cstring m a s =
  write_string m a s;
  write_byte m (a + String.length s) 0

(** Overlap-safe copy (memmove semantics): gather the source into a
    scratch buffer page-chunk-wise, then scatter — correct for both
    copy directions, and only the destination pages materialize. *)
let blit m ~src ~dst ~len =
  if len > 0 && (src + len > Layout.shadow_base || dst + len > Layout.shadow_base)
  then begin
    (* routed per-byte copy, overlap-safe via the gather buffer *)
    let tmp = Bytes.init len (fun i -> Char.chr (read_byte m (src + i) land 0xff)) in
    Bytes.iteri (fun i c -> write_byte m (dst + i) (Char.code c)) tmp
  end
  else if len > 0 then begin
    let tmp = Bytes.make len '\000' in
    let i = ref 0 in
    while !i < len do
      let addr = src + !i in
      let off = addr land page_mask in
      let n = Int.min (page_size - off) (len - !i) in
      let p = page_for_read m (addr lsr page_bits) in
      if p != no_page then Bytes.blit p off tmp !i n;
      i := !i + n
    done;
    let i = ref 0 in
    while !i < len do
      let addr = dst + !i in
      let off = addr land page_mask in
      let n = Int.min (page_size - off) (len - !i) in
      let p = page_for_write m (addr lsr page_bits) in
      Bytes.blit tmp !i p off n;
      i := !i + n
    done
  end

let fill m a len v =
  if len > 0 && a + len > Layout.shadow_base then
    for i = 0 to len - 1 do
      write_byte m (a + i) v
    done
  else if len > 0 then begin
    let c = Char.chr (v land 0xff) in
    let i = ref 0 in
    while !i < len do
      let addr = a + !i in
      let off = addr land page_mask in
      let n = Int.min (page_size - off) (len - !i) in
      let p = page_for_write m (addr lsr page_bits) in
      Bytes.fill p off n c;
      i := !i + n
    done
  end

(* --- segment management --- *)

(** Allocate [size] bytes in the globals segment, aligned to [align]. *)
let alloc_global m ~size ~align =
  let a = align_up m.globals_brk align in
  m.globals_brk <- a + size;
  a

(** Grow the heap bump pointer (used by the heap allocator). *)
let heap_sbrk m size =
  let a = m.heap_brk in
  if a + size > Layout.heap_limit then None
  else begin
    m.heap_brk <- a + size;
    Some a
  end

(** Record stack growth.  The low watermark is monotonic: memory once made
    valid by stack growth stays readable (as on a real machine, where the
    pages below the deepest stack extent remain mapped). *)
let set_stack_low m sp =
  if sp < Layout.stack_limit then raise (Segfault sp);
  if sp < m.stack_low then m.stack_low <- sp
