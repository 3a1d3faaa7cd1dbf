(* Interpreter state: registers, frames in simulated memory, accounting,
   metadata facilities, and the checker-plugin interface used by the
   baseline tools (Jones–Kelly, Memcheck-style, Mudflap-style). *)

module Ir = Sbir.Ir
module L = Machine.Layout
module Mem = Machine.Memory
module Cost = Machine.Cost

type value = VI of int | VF of float

let as_int = function VI v -> v | VF f -> int_of_float f
let as_float = function VF f -> f | VI v -> float_of_int v

(* ------------------------------------------------------------------ *)
(* Traps and outcomes                                                   *)
(* ------------------------------------------------------------------ *)

type trap =
  | Bounds_violation of {
      addr : int;
      base : int;
      bound : int;
      size : int;
      where : string;
    }  (** raised by SoftBound's [Check]/wrappers: the enforced abort *)
  | Object_violation of { tool : string; addr : int; detail : string }
      (** raised by a baseline checker plugin *)
  | Hijack of string
      (** control flow was diverted by corrupted control data — i.e., an
          attack *succeeded* (Table 3's unprotected runs) *)
  | Segfault of int
  | Bad_free of int
  | Out_of_memory
  | Step_limit
  | Runtime_error of string

exception Trap of trap

type outcome = Exit of int | Trapped of trap

let string_of_trap = function
  | Bounds_violation { addr; base; bound; size; where } ->
      Printf.sprintf
        "SoftBound: bounds violation at %s: ptr=0x%x size=%d not within [0x%x, 0x%x)"
        where addr size base bound
  | Object_violation { tool; addr; detail } ->
      Printf.sprintf "%s: invalid access at 0x%x (%s)" tool addr detail
  | Hijack s -> "CONTROL-FLOW HIJACKED: " ^ s
  | Segfault a -> Printf.sprintf "segmentation fault at 0x%x" a
  | Bad_free a -> Printf.sprintf "invalid free of 0x%x" a
  | Out_of_memory -> "out of memory"
  | Step_limit -> "step limit exceeded"
  | Runtime_error s -> "runtime error: " ^ s

let string_of_outcome = function
  | Exit n -> Printf.sprintf "exit %d" n
  | Trapped t -> string_of_trap t

(* ------------------------------------------------------------------ *)
(* Checker plugins (baseline tools)                                     *)
(* ------------------------------------------------------------------ *)

type alloc_kind = AHeap | AStack | AGlobal

type event =
  | Ev_alloc of { base : int; size : int; kind : alloc_kind }
  | Ev_free of { base : int; size : int; kind : alloc_kind }
  | Ev_access of { addr : int; size : int; is_store : bool }
  | Ev_ptr_arith of { src : int; dst : int }

(** A baseline checker observes events.  [ck_handle] returns the cycle
    cost of the tool's bookkeeping for this event (e.g. the splay-tree
    path length for an object-table tool) plus [Some detail] if the event
    violates the tool's policy. *)
type checker = {
  ck_name : string;
  ck_handle : event -> int * string option;
}

(* ------------------------------------------------------------------ *)
(* Metadata facility (paper section 5.1)                                *)
(* ------------------------------------------------------------------ *)

(** The metadata organization.  [Hash_table] (open addressing, 24-byte
    tagged entries, ~9 x86 instructions per lookup) and [Shadow_space]
    (tag-less, 16 bytes per pointer-aligned word, ~5 instructions) are
    the two SoftBound organizations from section 5.1; the other three
    model related-work schemes' metadata placements for the scheme
    matrix.  The three extras keep the shadow space as the physical
    backing store (the simulated program layout is unchanged, so their
    correctness is identical to [Shadow_space]); what differs is the
    charged cycle cost and the cache traffic pattern of each metadata
    operation:

    - [Obj_header] (CGuard): bounds live in a 16-byte header just
      before the object; a lookup derefs the header, an update is a
      tag move in the pointer's spare bits (no memory traffic).
    - [Frame_tag] (FRAMER): a tag in the pointer's top byte locates a
      frame header; lookups decode the tag then deref the header.
    - [Wide_inline] (L4 Pointer): base/bound ride inline in a 128-bit
      pointer; lookups/updates touch the word next to the pointer. *)
type meta_facility =
  | Hash_table
  | Shadow_space
  | Obj_header
  | Frame_tag
  | Wide_inline

(** Default number of hash-table entries (power of two) at startup.
    24-byte entries: tag, base, bound.  The table grows by doubling
    (with a full rehash) when it fills — see {!meta_store}. *)
let ht_default_entries = 1 lsl 21

let ht_entry_size = 24

(** Maximum linear-probe chain before an insertion triggers a resize.
    Because every successful insertion lands within this displacement of
    its home slot, lookups can soundly stop probing after the same
    bound. *)
let ht_max_probes = 64

(* ------------------------------------------------------------------ *)
(* Frames                                                               *)
(* ------------------------------------------------------------------ *)

(** A frame record.  The run keeps one record per stack depth and
    reuses it for the next call at that depth ({!t.stack}), so every
    field a call sets is mutable.  [fr_pinned] marks a record that a
    setjmp context may still name: it is not reused.  A return drops
    the frame's contexts and unpins it; a frame that longjmp unwinds
    keeps its stale contexts and stays pinned. *)
type frame = {
  mutable fr_func : Ir.func;
  mutable fr_code : Ir.inst array array;  (** per-block instruction arrays *)
  mutable fr_terms : Ir.terminator array;  (** per-block terminators *)
  mutable fr_index : int;
      (** the function's index in the module's definition order — the
          engine's key for its compiled code *)
  (* The register file is stored unboxed: parallel int/float payload
     arrays plus a one-byte-per-register tag ('\001' = the register
     currently holds a float).  Writing an integer result is then two
     plain stores — no [VI] allocation and no [caml_modify] write
     barrier, which together dominated the interpreters' host time when
     registers were a [value array].  A reused record keeps its arrays
     when they are large enough, so they may be longer than the
     function's register count; the registers past it are never
     read. *)
  mutable fr_iregs : int array;
  mutable fr_fregs : float array;
  mutable fr_isf : Bytes.t;
  mutable fr_block : int;
  mutable fr_inst : int;
  mutable fr_fp : int;  (** frame base (old sp); slots below fp-16 *)
  mutable fr_uid : int;  (** the return token is [ret_token_magic + fr_uid] *)
  mutable fr_ret_regs : Ir.reg list;
      (** caller registers receiving our returns; [[]] when the caller
          reads them from [last_rets] instead *)
  mutable fr_expected_savedfp : int;
  mutable fr_pinned : bool;
}

(* Register accessors.  The boxed [value] view is reconstructed on
   demand; the int/float views mirror [as_int]/[as_float] exactly
   (including the [int_of_float]/[float_of_int] coercions), so both
   engines observe the same register semantics as the old boxed file.
   The [u]-prefixed variants skip bounds checks — the threaded-code
   compiler validates every register index against the function's
   [fnregs] at compile time before emitting them; the decoding engine
   keeps the checked forms. *)

let[@inline] reg_value fr r =
  if Bytes.get fr.fr_isf r = '\000' then VI fr.fr_iregs.(r)
  else VF fr.fr_fregs.(r)

let[@inline] reg_int fr r =
  if Bytes.get fr.fr_isf r = '\000' then fr.fr_iregs.(r)
  else int_of_float fr.fr_fregs.(r)

let[@inline] reg_set fr r = function
  | VI n ->
      Bytes.set fr.fr_isf r '\000';
      fr.fr_iregs.(r) <- n
  | VF f ->
      Bytes.set fr.fr_isf r '\001';
      fr.fr_fregs.(r) <- f

let[@inline] reg_set_int fr r n =
  Bytes.set fr.fr_isf r '\000';
  fr.fr_iregs.(r) <- n

let[@inline] ureg_value fr r =
  if Bytes.unsafe_get fr.fr_isf r = '\000' then
    VI (Array.unsafe_get fr.fr_iregs r)
  else VF (Array.unsafe_get fr.fr_fregs r)

let[@inline] ureg_int fr r =
  if Bytes.unsafe_get fr.fr_isf r = '\000' then Array.unsafe_get fr.fr_iregs r
  else int_of_float (Array.unsafe_get fr.fr_fregs r)

let[@inline] ureg_float fr r =
  if Bytes.unsafe_get fr.fr_isf r = '\001' then Array.unsafe_get fr.fr_fregs r
  else float_of_int (Array.unsafe_get fr.fr_iregs r)

let[@inline] ureg_set fr r = function
  | VI n ->
      Bytes.unsafe_set fr.fr_isf r '\000';
      Array.unsafe_set fr.fr_iregs r n
  | VF f ->
      Bytes.unsafe_set fr.fr_isf r '\001';
      Array.unsafe_set fr.fr_fregs r f

let[@inline] ureg_set_int fr r n =
  Bytes.unsafe_set fr.fr_isf r '\000';
  Array.unsafe_set fr.fr_iregs r n

let[@inline] ureg_set_float fr r f =
  Bytes.unsafe_set fr.fr_isf r '\001';
  Array.unsafe_set fr.fr_fregs r f

let ret_token_magic = 0x5e7_0000_0000
let jmp_token_magic = 0x6a7_0000_0000

let slot_addr fr (sl : Ir.slot) =
  fr.fr_fp - 16 - fr.fr_func.Ir.fframe_size + sl.Ir.sl_offset

(** The filler of stack slots no call has reached yet.  It is pinned,
    so {!Vm.push_frame} never reuses it. *)
let no_frame =
  {
    fr_func =
      {
        Ir.fname = "";
        fparams = [];
        frets = [];
        fvariadic = false;
        fva_regs = None;
        fslots = [||];
        fframe_size = 0;
        fblocks = [||];
        fnregs = 0;
      };
    fr_code = [||];
    fr_terms = [||];
    fr_index = -1;
    fr_iregs = [||];
    fr_fregs = [||];
    fr_isf = Bytes.empty;
    fr_block = 0;
    fr_inst = 0;
    fr_fp = 0;
    fr_uid = 0;
    fr_ret_regs = [];
    fr_expected_savedfp = 0;
    fr_pinned = true;
  }

(* ------------------------------------------------------------------ *)
(* VM configuration and state                                           *)
(* ------------------------------------------------------------------ *)

(** How often (in steps) an installed {!config.poll} hook runs: every
    step whose count masks to zero.  16K steps is well under a
    millisecond, fine-grained enough for per-job
    wall-clock timeouts while keeping the no-hook fast path to a single
    predictable branch. *)
let poll_mask = 16383

type config = {
  max_steps : int;
  meta : meta_facility option;
      (** [Some _] when running SoftBound-transformed code *)
  store_only : bool;
      (** store-only checking mode: runtime wrappers skip read checks
          (the transformation independently omits load checks) *)
  checker : checker option;
  obs_enabled : bool;
      (** collect per-site observability counters (never affects
          simulated cycle counts; disable with [--no-obs]) *)
  trace_depth : int;
      (** ring-buffer capacity for the last-N safety-relevant events
          ([--trace=N]); 0 disables tracing *)
  inputs : string list;  (** lines served by [sim_recv] *)
  argv : string list;
  poll : (unit -> unit) option;
      (** cooperative interruption hook, run every {!poll_mask}+1 steps
          by the engine.  It may raise to abort the run — the serve
          daemon uses it for per-job wall-clock deadlines and
          cancellation on shutdown.  Never affects simulated outputs:
          step/cycle accounting is identical with or without it. *)
  ht_entries_init : int;
      (** initial hash-table capacity (rounded up to a power of two);
          the table resizes itself past this, so small values only cost
          early rehashes — the fuzzer and the resize regression tests
          use them to exercise growth cheaply *)
}

let default_config =
  {
    max_steps = 200_000_000;
    meta = None;
    store_only = false;
    checker = None;
    obs_enabled = true;
    trace_depth = 0;
    inputs = [];
    argv = [];
    poll = None;
    ht_entries_init = ht_default_entries;
  }

type stats = {
  mutable insts : int;
  mutable cycles : int;
  mutable mem_reads : int;
  mutable mem_writes : int;
  mutable ptr_mem_ops : int;  (** loads/stores of pointer values *)
  mutable checks : int;
  mutable meta_loads : int;
  mutable meta_stores : int;
  mutable ht_probes : int;
  mutable ht_resizes : int;
  mutable calls : int;
  mutable max_frames : int;
  mutable ck_cycles : int;
      (** cycles charged by a plugged-in baseline checker's [ck_handle]
          — lets the breakdown attribute a plugin scheme's bookkeeping
          to the "check" bucket *)
}

let mk_stats () =
  {
    insts = 0;
    cycles = 0;
    mem_reads = 0;
    mem_writes = 0;
    ptr_mem_ops = 0;
    checks = 0;
    meta_loads = 0;
    meta_stores = 0;
    ht_probes = 0;
    ht_resizes = 0;
    calls = 0;
    max_frames = 0;
    ck_cycles = 0;
  }

(** The state of one run.  Everything derived from the module alone —
    the code-address table, the global layout, the pre-decoded code —
    lives in the shared, read-only module image ({!Vm.image}); this
    record holds only what the run itself can change. *)
type t = {
  cfg : config;
  mem : Mem.t;
  heap : Machine.Heap.t;
  cache : Machine.Cache.t;
  stats : stats;
  obs : Obs.t;
  mutable sp : int;
  mutable stack : frame array;
      (** [stack.(d)] for [d < n_frames] is the live frame at depth [d]
          (the top is [stack.(n_frames - 1)]).  Past the top each slot
          keeps the record last popped or unwound at that depth, and
          the next call there reuses it with its register file, so a
          call allocates nothing.  A pinned record is replaced instead,
          and an unreached slot holds {!no_frame}. *)
  mutable n_frames : int;
  mutable floor : int;
      (** frames at depth below [floor] wait in host code (a builtin
          running a comparator, or the harness) for a frame above them
          to return: a return onto such a frame hands control back to
          the engine's driver instead of continuing the caller in
          place *)
  mutable next_uid : int;
  mutable steps : int;
  out : Buffer.t;
  mutable inputs : string list;
  mutable rand_state : int;
  mutable last_rets : value list;
      (** return values of the most recent return that had no receiving
          registers: a re-entrant builtin-to-interpreted call (qsort
          comparators), a harness boundary call, or the bottom frame *)
  jmp_bufs : (int, frame * int * int * Ir.reg) Hashtbl.t;
      (** live setjmp sites: uid -> (frame, resume block, resume inst,
          result register) *)
  mutable ht_entries : int;
      (** current hash-table capacity (always a power of two) *)
  mutable ht_live : int;
      (** occupied hash-table slots; growth keeps this at most half of
          [ht_entries] so probe chains stay short *)
}

(** The top frame; the stack must not be empty. *)
let top st = st.stack.(st.n_frames - 1)

(* ------------------------------------------------------------------ *)
(* Accounting helpers                                                   *)
(* ------------------------------------------------------------------ *)

let charge st c = st.stats.cycles <- st.stats.cycles + c

let cache_access st addr =
  let penalty = Machine.Cache.access st.cache addr in
  charge st penalty;
  if st.cfg.obs_enabled then
    Obs.record_cache st.obs (L.segment_of addr) ~hit:(penalty = 0)

(** A program-level read of [size] bytes at [addr]: validity check,
    checker event, accounting. *)
let checker_event st ev =
  match st.cfg.checker with
  | Some ck -> (
      let cost, viol = ck.ck_handle ev in
      charge st cost;
      st.stats.ck_cycles <- st.stats.ck_cycles + cost;
      match viol with
      | Some detail ->
          let addr =
            match ev with
            | Ev_access { addr; _ } -> addr
            | Ev_alloc { base; _ } | Ev_free { base; _ } -> base
            | Ev_ptr_arith { dst; _ } -> dst
          in
          raise (Trap (Object_violation { tool = ck.ck_name; addr; detail }))
      | None -> ())
  | None -> ()

let program_read st addr size : unit =
  (match st.cfg.checker with
  | Some _ -> checker_event st (Ev_access { addr; size; is_store = false })
  | None -> ());
  Mem.check_program_access st.mem addr size;
  st.stats.mem_reads <- st.stats.mem_reads + 1;
  charge st Cost.load;
  cache_access st addr

let program_write st addr size : unit =
  (match st.cfg.checker with
  | Some _ -> checker_event st (Ev_access { addr; size; is_store = true })
  | None -> ());
  Mem.check_program_access st.mem addr size;
  st.stats.mem_writes <- st.stats.mem_writes + 1;
  charge st Cost.store;
  cache_access st addr

(* ------------------------------------------------------------------ *)
(* Metadata facility implementation                                     *)
(* ------------------------------------------------------------------ *)

(* Hash table: open addressing with linear probing over 24-byte
   (tag, base, bound) entries.  The tag is the pointer's address + 1 so
   that 0 means "empty" (simulated memory is zero-initialized).

   The table starts at [cfg.ht_entries_init] entries and doubles (with a
   full rehash) whenever an insertion would either exceed the
   [ht_max_probes] chain bound or push occupancy past 50% — it never
   reports "full".  Growth is capped only by the 1 TiB address-space
   region reserved for it in {!Machine.Layout}. *)

let ht_slot_addr st i =
  L.hashtable_base + (i land (st.ht_entries - 1)) * ht_entry_size

let ht_index st addr = (addr lsr 3) land (st.ht_entries - 1)

let ht_region_limit = L.shadow_base - L.hashtable_base

(** Find [addr]'s entry by linear probing from its home slot: its
    (base, bound), or (0, 0) when absent.  [account] charges the walk —
    one cache access per slot read, one {!Cost.hash_probe} per
    collision, the base/bound words of a match — and is false for
    observer-only peeks. *)
let ht_find st ~account addr : int * int =
  let tag = addr + 1 in
  let rec probe i n =
    (* sound cutoff: insertion keeps every live entry within
       [ht_max_probes] of its home slot *)
    if n > ht_max_probes then (0, 0)
    else begin
      let ea = ht_slot_addr st i in
      if account then cache_access st ea;
      let t = Mem.read_int st.mem ea 8 in
      if t = tag then begin
        if account then begin
          cache_access st (ea + 8);
          cache_access st (ea + 16)
        end;
        (Mem.read_int st.mem (ea + 8) 8, Mem.read_int st.mem (ea + 16) 8)
      end
      else if t = 0 then (0, 0)
      else begin
        if account then begin
          st.stats.ht_probes <- st.stats.ht_probes + 1;
          charge st Cost.hash_probe
        end;
        probe (i + 1) (n + 1)
      end
    end
  in
  probe (ht_index st addr) 0

(** Insert (or update/clear) one entry; grows the table instead of
    failing when the probe chain or the load factor is exhausted.
    [account] is false during rehash, whose cost is charged in bulk. *)
let rec ht_insert st ~addr ~base ~bound ~account : unit =
  let tag = addr + 1 in
  let rec probe i n =
    if n > ht_max_probes then begin
      ht_grow st;
      ht_insert st ~addr ~base ~bound ~account
    end
    else begin
      let ea = ht_slot_addr st i in
      if account then cache_access st ea;
      let t = Mem.read_int st.mem ea 8 in
      if t = tag || t = 0 then begin
        (* clearing an absent entry need not allocate one *)
        if not (t = 0 && base = 0 && bound = 0) then begin
          if account then begin
            cache_access st (ea + 8);
            cache_access st (ea + 16)
          end;
          Mem.write_int st.mem ea 8 tag;
          Mem.write_int st.mem (ea + 8) 8 base;
          Mem.write_int st.mem (ea + 16) 8 bound;
          if t = 0 then begin
            st.ht_live <- st.ht_live + 1;
            if 2 * st.ht_live > st.ht_entries then ht_grow st
          end
        end
      end
      else begin
        if account then begin
          st.stats.ht_probes <- st.stats.ht_probes + 1;
          charge st Cost.hash_probe
        end;
        probe (i + 1) (n + 1)
      end
    end
  in
  probe (ht_index st addr) 0

(** Double the table and rehash every live entry.  Entries cleared to
    (0, 0) are dropped — they are indistinguishable from absent ones —
    so rehashing also collects tombstone-like garbage. *)
and ht_grow st : unit =
  st.stats.ht_resizes <- st.stats.ht_resizes + 1;
  let old_entries = st.ht_entries in
  if old_entries * 2 * ht_entry_size > ht_region_limit then
    raise
      (Trap (Runtime_error "metadata hash table exceeds its address region"));
  let live = ref [] in
  for i = 0 to old_entries - 1 do
    let ea = L.hashtable_base + (i * ht_entry_size) in
    let t = Mem.read_int st.mem ea 8 in
    if t <> 0 then begin
      let b = Mem.read_int st.mem (ea + 8) 8 in
      let e = Mem.read_int st.mem (ea + 16) 8 in
      if b <> 0 || e <> 0 then live := (t - 1, b, e) :: !live;
      Mem.write_int st.mem ea 8 0;
      Mem.write_int st.mem (ea + 8) 8 0;
      Mem.write_int st.mem (ea + 16) 8 0
    end
  done;
  st.ht_entries <- old_entries * 2;
  st.ht_live <- 0;
  (* one sweep of reads plus re-writes; charged in bulk rather than per
     probe (a real runtime would remap rather than thrash the cache) *)
  charge st (Cost.bulk_cost (List.length !live * ht_entry_size * 2));
  List.iter
    (fun (addr, base, bound) ->
      ht_insert st ~addr ~base ~bound ~account:false)
    !live

(* Shadow space, and the three related-work facilities (CGuard header,
   FRAMER frame tag, L4 wide pointer) modeled over it: all four store a
   pointer's base/bound words at [L.shadow_addr addr], so every lookup
   returns exactly what a shadow-space run would.  What a facility
   changes is the cycles charged and where the cache traffic lands.
   [cache_access] only consults the simulated cache (it never touches
   memory), so pointing it at a header/frame/wide-slot address models
   that facility's locality without perturbing program state. *)

let shadow_read st addr : int * int =
  let sa = L.shadow_addr addr in
  (Mem.read_int st.mem sa 8, Mem.read_int st.mem (sa + 8) 8)

let shadow_write st addr base bound : unit =
  let sa = L.shadow_addr addr in
  Mem.write_int st.mem sa 8 base;
  Mem.write_int st.mem (sa + 8) 8 bound

(** One cache access for each of the two words at [a] and [a + 8]. *)
let touch_pair st a =
  cache_access st a;
  cache_access st (a + 8)

let meta_load ?(site = 0) st addr : int * int =
  st.stats.meta_loads <- st.stats.meta_loads + 1;
  let cy0 = st.stats.cycles in
  let (mb, me) as res =
    match st.cfg.meta with
    | None -> (0, 0)
    | Some Hash_table ->
        charge st Cost.hash_lookup;
        ht_find st ~account:true addr
    | Some Shadow_space ->
        charge st Cost.shadow_lookup;
        touch_pair st (L.shadow_addr addr);
        shadow_read st addr
    | Some Obj_header ->
        (* CGuard: deref the 16-byte header just before the object the
           pointer's tag names; null metadata has no header to touch *)
        charge st Cost.header_lookup;
        let ((mb, _) as m) = shadow_read st addr in
        if mb <> 0 then touch_pair st (mb - 16);
        m
    | Some Frame_tag ->
        (* FRAMER: decode the top-byte tag, then deref the enclosing
           frame's header (the frame-aligned address below the base) *)
        charge st Cost.frame_lookup;
        let ((mb, _) as m) = shadow_read st addr in
        if mb <> 0 then touch_pair st (mb land lnot 15);
        m
    | Some Wide_inline ->
        (* L4 Pointer: base/bound are the upper half of the 128-bit
           pointer, adjacent to the slot just loaded *)
        charge st Cost.wide_lookup;
        cache_access st (addr + 8);
        shadow_read st addr
  in
  if st.cfg.obs_enabled then begin
    Obs.record_op st.obs Obs.KMetaLoad ~site ~cycles:(st.stats.cycles - cy0);
    if Obs.trace_on st.obs then
      Obs.trace_event st.obs
        (Obs.E_meta_load { site; addr; base = mb; bound = me })
  end;
  res

let meta_store ?(site = 0) st addr base bound : unit =
  st.stats.meta_stores <- st.stats.meta_stores + 1;
  let cy0 = st.stats.cycles in
  (match st.cfg.meta with
  | None -> ()
  | Some Hash_table ->
      charge st Cost.hash_update;
      ht_insert st ~addr ~base ~bound ~account:true
  | Some Shadow_space ->
      charge st Cost.shadow_update;
      touch_pair st (L.shadow_addr addr);
      shadow_write st addr base bound
  | Some Obj_header ->
      (* the object tag travels in the pointer's spare bits: no extra
         memory traffic on a pointer store *)
      charge st Cost.header_update;
      shadow_write st addr base bound
  | Some Frame_tag ->
      charge st Cost.frame_update;
      shadow_write st addr base bound
  | Some Wide_inline ->
      (* storing a wide pointer writes the adjacent upper half too *)
      charge st Cost.wide_update;
      cache_access st (addr + 8);
      shadow_write st addr base bound);
  if st.cfg.obs_enabled then begin
    Obs.record_op st.obs Obs.KMetaStore ~site ~cycles:(st.stats.cycles - cy0);
    if Obs.trace_on st.obs then
      Obs.trace_event st.obs (Obs.E_meta_store { site; addr; base; bound })
  end

(** Observer-only metadata read: no cycle accounting, no cache traffic
    and no observability events.  For harness-side integrity oracles
    (e.g. the adversarial robust-safety snapshots) that must inspect the
    facility without perturbing the simulated run. *)
let meta_peek st addr : int * int =
  match st.cfg.meta with
  | None -> (0, 0)
  | Some Hash_table -> ht_find st ~account:false addr
  | Some (Shadow_space | Obj_header | Frame_tag | Wide_inline) ->
      shadow_read st addr

(* ------------------------------------------------------------------ *)
(* The SoftBound check (paper section 3.1)                              *)
(* ------------------------------------------------------------------ *)

let sb_check ?(site = 0) st ~where ~ptr ~base ~bound ~size =
  st.stats.checks <- st.stats.checks + 1;
  let cy0 = st.stats.cycles in
  charge st Cost.check;
  let ok = not (ptr < base || ptr + size > bound) in
  if st.cfg.obs_enabled then begin
    Obs.record_op st.obs Obs.KCheck ~site ~cycles:(st.stats.cycles - cy0);
    if Obs.trace_on st.obs then
      Obs.trace_event st.obs
        (Obs.E_check { site; addr = ptr; base; bound; size; ok })
  end;
  if not ok then
    raise (Trap (Bounds_violation { addr = ptr; base; bound; size; where }))

(** Widened span check (Elim's [CheckSpan]): one check covering the
    arithmetic progression [first + k*stride], k in [0, count), each
    access [width] bytes.  Vacuously passes when [count <= 0].

    Because the addresses are an arithmetic progression and the legal
    region is an interval, the set of passing k is itself an interval —
    so the first failing k (which is exactly the first iteration whose
    per-iteration check would have trapped in the unwidened program) is
    computable in O(1).  The trap carries that element's address and the
    per-access width, making the report byte-identical to the unwidened
    run's.  Costs a single [Cost.check] however large the span — that is
    the entire point of the widening pass. *)
let sb_check_span ?(site = 0) ?(sites = [||]) st ~where ~first ~count ~stride
    ~width ~base ~bound =
  st.stats.checks <- st.stats.checks + 1;
  let cy0 = st.stats.cycles in
  charge st Cost.check;
  let fail_k =
    if count <= 0 then None
    else if first < base || first + width > bound then Some 0
    else if stride > 0 then
      (* k = 0 passes, so failures are only past the high end; the
         smallest failing k has k*stride > bound - width - first >= 0 *)
      let k = ((bound - width - first) / stride) + 1 in
      if k < count then Some k else None
    else if stride < 0 then
      (* descending: failures are only below base; first - base >= 0 *)
      let k = ((first - base) / -stride) + 1 in
      if k < count then Some k else None
    else None
  in
  let ok = fail_k = None in
  if st.cfg.obs_enabled then begin
    Obs.record_op st.obs Obs.KCheck ~site ~cycles:(st.stats.cycles - cy0);
    if Obs.trace_on st.obs then
      Obs.trace_event st.obs
        (Obs.E_check_span { site; first; count; stride; width; base; bound;
                            ok })
  end;
  match fail_k with
  | None -> ()
  | Some k ->
      let addr = first + (k * stride) in
      let fsite = if k < Array.length sites then sites.(k) else site in
      (* also trace the failing element as a plain check event, with its
         original per-access site: a trapping --trace dump then ends on
         the same line as the unwidened run's *)
      if st.cfg.obs_enabled && Obs.trace_on st.obs then
        Obs.trace_event st.obs
          (Obs.E_check
             { site = fsite; addr; base; bound; size = width; ok = false });
      raise (Trap (Bounds_violation { addr; base; bound; size = width; where }))

(* ------------------------------------------------------------------ *)
(* Output / input / random                                              *)
(* ------------------------------------------------------------------ *)

let output_string st s = Buffer.add_string st.out s
let output_char st c = Buffer.add_char st.out c

let next_input_line st =
  match st.inputs with
  | [] -> None
  | l :: rest ->
      st.inputs <- rest;
      Some l

(** Deterministic LCG so benchmark runs are reproducible. *)
let rand st =
  st.rand_state <- ((st.rand_state * 0x27bb2ee687b0b0fd) + 0x14057b7ef767814f) land max_int;
  (st.rand_state lsr 17) land 0x3fffffff

let srand st seed = st.rand_state <- seed
