(* The IR interpreter.

   Frames live in simulated memory with the classic x86 shape — locals
   below a saved-frame-pointer word and a return token — so stack-smashing
   attacks genuinely corrupt control data, and hijacks are *observed*
   (via token/function-pointer validation at control transfers), not
   assumed.  Costs are charged per executed instruction from the
   {!Machine.Cost} model plus cache penalties, which is what the benchmark
   harness reports as simulated cycles. *)

module Ir = Sbir.Ir
open State
module Mem = Machine.Memory
module L = Machine.Layout
module Cost = Machine.Cost

(* ------------------------------------------------------------------ *)
(* The module image                                                     *)
(* ------------------------------------------------------------------ *)

(** A module function, pre-decoded at image build: per-block instruction
    arrays and terminators (with [Glob]/[GlobEnd]/[Func] operands
    resolved to immediate addresses) and the parameter registers as an
    array.  An instruction or terminator with nothing to resolve is the
    module's own, physically, so an image keeps no second copy of it. *)
type fentry = {
  fe_func : Ir.func;  (** the module's function itself *)
  fe_code : Ir.inst array array;
  fe_terms : Ir.terminator array;
  fe_params : Ir.reg array;
  fe_index : int;  (** position in the module's definition order *)
  fe_addr : int;  (** code address *)
  fe_sig : int;
      (** signature hash of the (transformed) parameter and return
          kinds, for the dynamic function-pointer signature check *)
}

(** Engine-specific code hung off an image: the threaded-code engine
    attaches its compiled chains here.  An extensible variant keeps this
    module independent of the compiler's types. *)
type attached = ..

type attached += No_code

(** Everything derived from a module alone, built once per physical
    module and shared — read-only — by every run and domain that loads
    it.  Globals are laid out as on fresh memory, so their addresses are
    the same in every run.  The one field written after construction is
    [im_code], exactly once, under the image lock. *)
type image = {
  im_modul : Ir.modul;  (** cache key, compared physically *)
  im_funcs : fentry array;  (** the module's functions, in definition order *)
  im_targets : Builtins.target array;
      (** code-address index -> call target: the module's functions in
          definition order, then the builtins the module does not
          define, plain and [_sb_] form *)
  im_callees : (string, Builtins.target) Hashtbl.t;
      (** name -> call target, for the module's functions and every
          direct callee *)
  im_globals : (string, int * int) Hashtbl.t;  (** name -> (addr, size) *)
  im_globals_size : int;
      (** bytes of the globals segment in use, alignment included *)
  im_inits : (int * Ir.gval) array;
      (** initializer writes in order, at absolute addresses; address
          initializers are already folded to [GInt (addr, 8)] *)
  im_code : attached Atomic.t;
}

(* --- pre-decode: resolve name-valued operands to addresses --- *)

(* Globals are laid out (and function indices assigned) before any code
   is decoded, so [Glob]/[GlobEnd]/[Func] operands can be folded to
   immediate addresses once per image.  Names that don't resolve are left
   in place: they keep trapping lazily at evaluation time. *)
let resolve_operand globals func_index (o : Ir.operand) : Ir.operand =
  match o with
  | Ir.Glob g -> (
      match Hashtbl.find_opt globals g with
      | Some (a, _) -> Ir.ImmI a
      | None -> o)
  | Ir.GlobEnd g -> (
      match Hashtbl.find_opt globals g with
      | Some (a, s) -> Ir.ImmI (a + s)
      | None -> o)
  | Ir.Func f -> (
      match Hashtbl.find_opt func_index f with
      | Some i -> Ir.ImmI (L.func_addr i)
      | None -> o)
  | o -> o

(** Resolve the operands of an instruction or terminator with [map],
    returning [x] itself when none resolves. *)
let predecode resolve map x =
  let changed = ref false in
  let x' =
    map
      (fun o ->
        let o' = resolve o in
        if o' != o then changed := true;
        o')
      x
  in
  if !changed then x' else x

let predecode_inst resolve (i : Ir.inst) : Ir.inst =
  match i with
  | Ir.Call ({ callee = Ir.Func _; args; _ } as c) ->
      (* a direct callee keeps its name — calls dispatch by name, not by
         code address *)
      let args' = predecode resolve List.map args in
      if args' == args then i else Ir.Call { c with args = args' }
  | i -> predecode resolve Ir.map_inst_operands i

let build_image (m : Ir.modul) : image =
  let n_funcs = List.length m.Ir.mfunc_order in
  let func_index = Hashtbl.create (2 * (n_funcs + 64)) in
  List.iteri (fun i n -> Hashtbl.replace func_index n i) m.Ir.mfunc_order;
  let builtins =
    List.filter
      (fun (t : Builtins.target) -> not (Hashtbl.mem func_index t.tg_name))
      Builtins.targets
  in
  let targets =
    Array.of_list
      (List.mapi (fun i n -> Builtins.func_target n i) m.Ir.mfunc_order
      @ builtins)
  in
  Array.iteri
    (fun i (t : Builtins.target) -> Hashtbl.replace func_index t.tg_name i)
    targets;
  let callees = Hashtbl.create (2 * n_funcs) in
  for i = 0 to n_funcs - 1 do
    Hashtbl.replace callees targets.(i).tg_name targets.(i)
  done;
  (* lay out globals: addresses first, then initializers, which may
     reference other globals' addresses *)
  let globals = Hashtbl.create 16 in
  let brk =
    List.fold_left
      (fun brk (g : Ir.global) ->
        let a = Mem.align_up brk (max 1 g.Ir.galign) in
        Hashtbl.replace globals g.Ir.gname (a, g.Ir.gsize);
        a + g.Ir.gsize)
      L.globals_base m.Ir.mglobals
  in
  let inits =
    List.concat_map
      (fun (g : Ir.global) ->
        let base, _ = Hashtbl.find globals g.Ir.gname in
        List.filter_map
          (fun (off, v) ->
            match v with
            | Ir.GInt _ | Ir.GF32 _ | Ir.GF64 _ -> Some (base + off, v)
            | Ir.GAddr (name, o) ->
                let a, _ = Hashtbl.find globals name in
                Some (base + off, Ir.GInt (a + o, 8))
            | Ir.GFuncAddr name -> (
                match Hashtbl.find_opt func_index name with
                | Some i -> Some (base + off, Ir.GInt (L.func_addr i, 8))
                | None -> None))
          g.Ir.ginit)
      m.Ir.mglobals
  in
  let resolve = resolve_operand globals func_index in
  let entry i name =
    let f = Hashtbl.find m.Ir.mfuncs name in
    {
      fe_func = f;
      fe_code =
        Array.map
          (fun (b : Ir.block) ->
            Array.of_list (List.map (predecode_inst resolve) b.Ir.insts))
          f.Ir.fblocks;
      fe_terms =
        Array.map
          (fun (b : Ir.block) -> predecode resolve Ir.map_term_operands b.Ir.term)
          f.Ir.fblocks;
      fe_params = Array.of_list (List.map fst f.Ir.fparams);
      fe_index = i;
      fe_addr = L.func_addr i;
      fe_sig =
        Ir.sig_hash
          {
            Ir.cargs = List.map snd f.Ir.fparams;
            crets = f.Ir.frets;
            cvariadic = f.Ir.fvariadic;
          };
    }
  in
  let funcs = Array.of_list (List.mapi entry m.Ir.mfunc_order) in
  (* the direct callees: a builtin's target is the one at its code
     address; only a name without one is decoded here *)
  Ir.iter_funcs m (fun f ->
      Array.iter
        (fun (b : Ir.block) ->
          List.iter
            (function
              | Ir.Call { callee = Ir.Func n; _ }
                when not (Hashtbl.mem callees n) ->
                  Hashtbl.replace callees n
                    (match Hashtbl.find_opt func_index n with
                    | Some i -> targets.(i)
                    | None -> Builtins.decode n)
              | _ -> ())
            b.Ir.insts)
        f.Ir.fblocks);
  {
    im_modul = m;
    im_funcs = funcs;
    im_targets = targets;
    im_callees = callees;
    im_globals = globals;
    im_globals_size = brk - L.globals_base;
    im_inits = Array.of_list inits;
    im_code = Atomic.make No_code;
  }

(* The image cache: the one per-module cache of the VM.  Keyed by
   physical equality of the (immutable) module value — the same key
   discipline as Runner's transform cache, which this composes with:
   Runner memoizes the transformed module per (module, options), and
   each distinct transformed module gets one image here.  Images are
   built under the lock, so a module racing into several domains is
   built exactly once and [images_built] counts the same work a
   sequential run does. *)

let image_capacity = 32
let image_lock = Mutex.create ()
let images : image list ref = ref []
let image_count = ref 0

let with_image_lock f =
  Mutex.lock image_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock image_lock) f

(** Number of module images built so far in this process. *)
let images_built () = with_image_lock (fun () -> !image_count)

(** The image of [m], built on first sight.  Most recently used first;
    past {!image_capacity} images the least recently used is dropped. *)
let image_of (m : Ir.modul) : image =
  with_image_lock (fun () ->
      match !images with
      | img :: _ when img.im_modul == m -> img
      | cached -> (
          match List.find_opt (fun img -> img.im_modul == m) cached with
          | Some img ->
              images := img :: List.filter (fun i -> i != img) cached;
              img
          | None ->
              let img = build_image m in
              incr image_count;
              images := img :: List.filteri (fun i _ -> i < image_capacity - 1) cached;
              img))

(** The engine code attached to [img], building and attaching it with
    [build] on first request.  The build runs under the image lock, so
    it happens once per image however many domains ask. *)
let attached_code (img : image) (build : unit -> attached) : attached =
  match Atomic.get img.im_code with
  | No_code ->
      with_image_lock (fun () ->
          match Atomic.get img.im_code with
          | No_code ->
              let c = build () in
              Atomic.set img.im_code c;
              c
          | c -> c)
  | c -> c

(** The call target named [name]; every module function and every
    direct callee has one. *)
let callee (img : image) (name : string) : Builtins.target =
  Hashtbl.find img.im_callees name

(** A module function of the image, if [name] is one. *)
let find_func (img : image) (name : string) : fentry option =
  match Hashtbl.find_opt img.im_callees name with
  | Some { tg_kind = Func i; _ } -> Some img.im_funcs.(i)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Loading                                                              *)
(* ------------------------------------------------------------------ *)

type loaded = {
  st : t;  (** the run's own state *)
  img : image;  (** the shared module image *)
  mutable cur : frame;
      (** the top frame, {!State.no_frame} when the stack is empty: the
          current frame of the threaded-code engine's closures.
          {!set_depth}, the one writer of [st.n_frames], keeps it equal
          to [top st]. *)
  mutable reenter : (loaded -> fentry -> value list -> value list) option;
      (** hook for re-entrant builtin-to-interpreted calls (qsort
          comparators): the threaded-code engine installs its own
          push-and-run-to-return here so comparators execute on the same
          engine as the rest of the program.  [None] (the reference
          decode loop) falls back to {!call_function}. *)
}

(** Load a module for one run: look up (or build) its image, then
    allocate only the state the run can touch — fresh memory holding the
    initialized globals, heap, cache simulator, counters and output. *)
let create ?(cfg = default_config) (m : Ir.modul) : loaded =
  let img = image_of m in
  let mem = Mem.create () in
  (* the image laid the globals out from the segment base: claim the
     same extent, then write the initializers *)
  ignore (Mem.alloc_global mem ~size:img.im_globals_size ~align:1);
  Array.iter
    (fun (a, v) ->
      match v with
      | Ir.GInt (x, w) -> Mem.write_int mem a w x
      | Ir.GF32 f -> Mem.write_f32 mem a f
      | Ir.GF64 f -> Mem.write_f64 mem a f
      | Ir.GAddr _ | Ir.GFuncAddr _ -> assert false)
    img.im_inits;
  (* round the requested initial hash-table capacity up to a power of
     two (the probe index masks with [ht_entries - 1]) *)
  let ht_entries0 =
    let rec up n = if n >= max 64 cfg.ht_entries_init then n else up (n * 2) in
    up 64
  in
  let st =
    {
      cfg;
      mem;
      heap = Machine.Heap.create mem;
      cache = Machine.Cache.create ();
      stats = mk_stats ();
      obs = Obs.create ~trace_depth:cfg.trace_depth ();
      sp = L.stack_top;
      stack = Array.make 16 no_frame;
      n_frames = 0;
      floor = 0;
      next_uid = 1;
      steps = 0;
      tick_limit = next_tick_limit cfg 0;
      fused = 0;
      bounces = 0;
      out = Buffer.create 256;
      inputs = cfg.inputs;
      rand_state = 42;
      last_rets = [];
      jmp_bufs = Hashtbl.create 1;
      ht_entries = ht_entries0;
      ht_live = 0;
    }
  in
  (* checker sees the globals as objects *)
  if Option.is_some cfg.checker then
    List.iter
      (fun (g : Ir.global) ->
        let base, size = Hashtbl.find img.im_globals g.Ir.gname in
        checker_event st (Ev_alloc { base; size; kind = AGlobal }))
      m.Ir.mglobals;
  { st; img; cur = no_frame; reenter = None }

(* ------------------------------------------------------------------ *)
(* Operand evaluation                                                   *)
(* ------------------------------------------------------------------ *)

let func_addr_of ld name =
  match find_func ld.img name with
  | Some fe -> fe.fe_addr
  | None -> raise (Trap (Runtime_error ("unknown function " ^ name)))

(* Pre-decode resolved every known [Glob]/[GlobEnd]/[Func] operand to an
   [ImmI]; a surviving name is unknown in this module and traps here, at
   evaluation time. *)
let eval fr (o : Ir.operand) : value =
  match o with
  | Ir.Reg r -> reg_value fr r
  | Ir.ImmI n -> VI n
  | Ir.ImmF f -> VF f
  | Ir.Glob g | Ir.GlobEnd g ->
      raise (Trap (Runtime_error ("unknown global " ^ g)))
  | Ir.Func f -> raise (Trap (Runtime_error ("unknown function " ^ f)))

let eval_int fr o =
  match o with
  | Ir.Reg r -> reg_int fr r
  | Ir.ImmI n -> n
  | o -> as_int (eval fr o)

(* ------------------------------------------------------------------ *)
(* ALU                                                                  *)
(* ------------------------------------------------------------------ *)

(** Integer half of {!exec_bin}, unboxed: [t] must not be a float type.
    The threaded-code engine specialises every other operator by width
    and calls this for division, remainder and narrow unsigned [Shr]. *)
let exec_bin_int st (op : Ir.binop) (t : Ir.ity) (x : int) (y : int) : int =
  let signed = Ir.ity_signed t in
  let r =
    match op with
    | Ir.Add ->
        charge st Cost.basic;
        x + y
    | Ir.Sub ->
        charge st Cost.basic;
        x - y
    | Ir.Mul ->
        charge st Cost.mul;
        x * y
    | Ir.Div ->
        charge st Cost.div;
        (* an unsigned divisor is its view: nonzero bits above the type's
           width must not reach the host division *)
        let d = if signed then y else Ir.unsigned_view t y in
        if d = 0 then raise (Trap (Runtime_error "division by zero"));
        if signed then x / y else Ir.unsigned_view t x / d
    | Ir.Rem ->
        charge st Cost.div;
        let d = if signed then y else Ir.unsigned_view t y in
        if d = 0 then raise (Trap (Runtime_error "modulo by zero"));
        if signed then x mod y else Ir.unsigned_view t x mod d
    | Ir.And ->
        charge st Cost.basic;
        x land y
    | Ir.Or ->
        charge st Cost.basic;
        x lor y
    | Ir.Xor ->
        charge st Cost.basic;
        x lxor y
    | Ir.Shl ->
        charge st Cost.basic;
        x lsl (y land 63)
    | Ir.Shr ->
        charge st Cost.basic;
        if signed then x asr (y land 63)
        else Ir.unsigned_view t x lsr (y land 63)
  in
  Ir.norm_int t r

(** Float half of {!exec_bin}, unboxed. *)
let exec_bin_float st (op : Ir.binop) (x : float) (y : float) : float =
  match op with
  | Ir.Add ->
      charge st Cost.fbasic;
      x +. y
  | Ir.Sub ->
      charge st Cost.fbasic;
      x -. y
  | Ir.Mul ->
      charge st Cost.fbasic;
      x *. y
  | Ir.Div ->
      charge st Cost.fdiv;
      x /. y
  | _ -> raise (Trap (Runtime_error "float bitwise operation"))

let exec_bin st (op : Ir.binop) (t : Ir.ity) (a : value) (b : value) : value =
  if Ir.ity_is_float t then VF (exec_bin_float st op (as_float a) (as_float b))
  else VI (exec_bin_int st op t (as_int a) (as_int b))

(** Integer half of {!exec_cmp}, unboxed (returns 0 or 1): [t] must not
    be a float type. *)
let exec_cmp_int st (op : Ir.cmpop) (t : Ir.ity) (x : int) (y : int) : int =
  charge st Cost.basic;
  (* monomorphic compares: the polymorphic primitive is a C call per
     executed comparison *)
  let c =
    if Ir.ity_signed t then Int.compare x y
    else Int.compare (Ir.unsigned_view t x) (Ir.unsigned_view t y)
  in
  let r =
    match op with
    | Ir.Ceq -> c = 0
    | Ir.Cne -> c <> 0
    | Ir.Clt -> c < 0
    | Ir.Cle -> c <= 0
    | Ir.Cgt -> c > 0
    | Ir.Cge -> c >= 0
  in
  if r then 1 else 0

(** Float half of {!exec_cmp}, unboxed (returns 0 or 1). *)
let exec_cmp_float st (op : Ir.cmpop) (x : float) (y : float) : int =
  charge st Cost.basic;
  (* agrees with the int path's [Int.compare] shape on floats, NaN
     included *)
  let c = Float.compare x y in
  let r =
    match op with
    | Ir.Ceq -> c = 0
    | Ir.Cne -> c <> 0
    | Ir.Clt -> c < 0
    | Ir.Cle -> c <= 0
    | Ir.Cgt -> c > 0
    | Ir.Cge -> c >= 0
  in
  if r then 1 else 0

let exec_cmp st (op : Ir.cmpop) (t : Ir.ity) (a : value) (b : value) : value =
  if Ir.ity_is_float t then
    VI (exec_cmp_float st op (as_float a) (as_float b))
  else VI (exec_cmp_int st op t (as_int a) (as_int b))

let exec_cast st (to_ : Ir.ity) (from_ : Ir.ity) (v : value) : value =
  charge st Cost.basic;
  match (Ir.ity_is_float to_, Ir.ity_is_float from_) with
  | true, true ->
      let f = as_float v in
      (match to_ with
      | Ir.F32 -> VF (Int32.float_of_bits (Int32.bits_of_float f))
      | _ -> VF f)
  | true, false -> VF (float_of_int (as_int v))
  | false, true ->
      let f = as_float v in
      let i =
        if Float.is_nan f then 0
        else if f >= 4.611686018427388e18 then max_int
        else if f <= -4.611686018427388e18 then min_int
        else int_of_float f
      in
      VI (Ir.norm_int to_ i)
  | false, false -> VI (Ir.norm_int to_ (as_int v))

(* ------------------------------------------------------------------ *)
(* Memory access                                                        *)
(* ------------------------------------------------------------------ *)

let do_load st (t : Ir.ity) addr : value =
  let size = Ir.ity_size t in
  program_read st addr size;
  (match t with
  | Ir.P -> st.stats.ptr_mem_ops <- st.stats.ptr_mem_ops + 1
  | _ -> ());
  match t with
  | Ir.F64 -> VF (Mem.read_f64 st.mem addr)
  | Ir.F32 -> VF (Mem.read_f32 st.mem addr)
  | Ir.P -> VI (Mem.read_int st.mem addr 8)
  | t ->
      let raw = Mem.read_int st.mem addr (Ir.ity_size t) in
      VI
        (if Ir.ity_signed t then Mem.sign_extend raw (Ir.ity_size t) else raw)

(** [do_load] for a statically-known float [t], unboxed. *)
let do_load_float st (t : Ir.ity) addr : float =
  match t with
  | Ir.F64 ->
      program_read st addr 8;
      Mem.read_f64 st.mem addr
  | _ ->
      program_read st addr 4;
      Mem.read_f32 st.mem addr

(** [do_store] for a statically-known float [t], unboxed. *)
let do_store_float st (t : Ir.ity) addr (x : float) : unit =
  match t with
  | Ir.F64 ->
      program_write st addr 8;
      Mem.write_f64 st.mem addr x
  | _ ->
      program_write st addr 4;
      Mem.write_f32 st.mem addr x

let do_store st (t : Ir.ity) addr (v : value) : unit =
  match t with
  | Ir.F64 | Ir.F32 -> do_store_float st t addr (as_float v)
  | t ->
      let size = Ir.ity_size t in
      program_write st addr size;
      (match t with
      | Ir.P -> st.stats.ptr_mem_ops <- st.stats.ptr_mem_ops + 1
      | _ -> ());
      Mem.write_int st.mem addr size (as_int v)

(* ------------------------------------------------------------------ *)
(* Frames                                                               *)
(* ------------------------------------------------------------------ *)

exception Program_exit of int

(** Assign returned values to the caller's receiving registers (extra
    values on either side are ignored). *)
let assign_rets (fr : frame) (ret_regs : Ir.reg list) (out : value list) : unit =
  let rec go rs out =
    match (rs, out) with
    | r :: rs, v :: out ->
        reg_set fr r v;
        go rs out
    | _, _ -> ()
  in
  go ret_regs out

(** Set the frame stack's depth and the current frame with it. *)
let set_depth ld n =
  let st = ld.st in
  st.n_frames <- n;
  ld.cur <- (if n > 0 then Array.unsafe_get st.stack (n - 1) else no_frame)

(** Double the frame stack's capacity. *)
let grow_stack st =
  let n = Array.length st.stack in
  let a = Array.make (2 * n) no_frame in
  Array.blit st.stack 0 a 0 n;
  st.stack <- a

(** Push a frame for [fe], called with [nargs] arguments whose values the
    caller then writes into the parameter registers (the engine copies
    them straight from its own register file; see {!push_call} for a
    list of values).  The arguments cannot trap, so writing them after
    the push is unobservable.  The record and register file at the new
    depth are reused unless pinned: a call allocates nothing. *)
let push_frame ld (fe : fentry) ~nargs (ret_regs : Ir.reg list) : frame =
  let st = ld.st in
  let f = fe.fe_func in
  st.stats.calls <- st.stats.calls + 1;
  charge st Cost.call;
  if st.n_frames > 100_000 then
    raise (Trap (Runtime_error "call stack overflow"));
  let fp = st.sp in
  let total = 16 + f.Ir.fframe_size in
  let new_sp = fp - total in
  (try Mem.set_stack_low st.mem new_sp
   with Mem.Segfault a -> raise (Trap (Segfault a)));
  let uid = st.next_uid in
  st.next_uid <- uid + 1;
  let token = ret_token_magic + uid in
  let depth = st.n_frames in
  let saved_fp = if depth = 0 then L.stack_top else (top st).fr_fp in
  (* the return token and saved frame pointer live in simulated memory,
     where an overflowing local buffer can reach them *)
  Mem.write_int st.mem (fp - 8) 8 token;
  Mem.write_int st.mem (fp - 16) 8 saved_fp;
  (* control-data traffic is charged (cache + ret/call cost) but not
     counted as program loads/stores: Figure 1's metric counts only the
     program's own memory operations *)
  cache_access st (fp - 8);
  cache_access st (fp - 16);
  let nparams = Array.length fe.fe_params in
  if nargs <> nparams then
    raise
      (Trap
         (Runtime_error
            (Printf.sprintf "%s: called with %d args, expects %d" f.Ir.fname
               nargs nparams)));
  let nregs = Int.max 1 f.Ir.fnregs in
  if depth = Array.length st.stack then grow_stack st;
  let fr =
    let fr = Array.unsafe_get st.stack depth in
    if not fr.fr_pinned then fr
    else begin
      (* a setjmp context may still name the record here: leave it *)
      let fresh = { no_frame with fr_pinned = false } in
      Array.unsafe_set st.stack depth fresh;
      fresh
    end
  in
  (* pointer fields are written only when they change: a recursive call
     reuses its own function's record without a write barrier *)
  if fr.fr_index <> fe.fe_index then begin
    fr.fr_func <- f;
    fr.fr_code <- fe.fe_code;
    fr.fr_terms <- fe.fe_terms;
    fr.fr_index <- fe.fe_index
  end;
  if Array.length fr.fr_iregs < nregs then begin
    fr.fr_iregs <- Array.make nregs 0;
    fr.fr_fregs <- Array.make nregs 0.0;
    fr.fr_isf <- Bytes.make nregs '\000'
  end
  else begin
    (* a fresh register file reads as integer zero; the float lane
       needs no clearing, since no tag byte selects it *)
    let ir = fr.fr_iregs and tags = fr.fr_isf in
    for i = 0 to nregs - 1 do
      Array.unsafe_set ir i 0;
      Bytes.unsafe_set tags i '\000'
    done
  end;
  fr.fr_block <- 0;
  fr.fr_inst <- 0;
  fr.fr_fp <- fp;
  fr.fr_uid <- uid;
  if fr.fr_ret_regs != ret_regs then fr.fr_ret_regs <- ret_regs;
  fr.fr_expected_savedfp <- saved_fp;
  st.sp <- new_sp;
  set_depth ld (depth + 1);
  if st.n_frames > st.stats.max_frames then
    st.stats.max_frames <- st.n_frames;
  (* baseline checkers track each slot as an object *)
  if Option.is_some st.cfg.checker then
    Array.iter
      (fun sl ->
        checker_event st
          (Ev_alloc { base = slot_addr fr sl; size = sl.Ir.sl_size; kind = AStack }))
      f.Ir.fslots;
  fr

(** {!push_frame} with the argument values in a list: the entry into
    [main], re-entrant calls from builtins, and the reference loop. *)
let push_call ld (fe : fentry) (args : value list) (ret_regs : Ir.reg list) :
    unit =
  let fr = push_frame ld fe ~nargs:(List.length args) ret_regs in
  List.iteri (fun i v -> reg_set fr fe.fe_params.(i) v) args

(** The call target at code address [v], if [v] is one. *)
let target_at ld v : Builtins.target option =
  if L.is_function_addr v then begin
    let targets = ld.img.im_targets in
    let idx = L.func_index v in
    if idx >= 0 && idx < Array.length targets then Some targets.(idx) else None
  end
  else None

let describe_code_value ld v =
  match target_at ld v with Some t -> Some t.tg_name | None -> None

(** Pop the top frame, up to handing over its return values: charge the
    return, verify the control data read back from simulated memory,
    release the slots to a checker and drop the frame's setjmp contexts.
    The popped record stays readable until the next push. *)
let pop_frame ld : unit =
  let st = ld.st in
  charge st Cost.ret;
  if st.n_frames = 0 then raise (Trap (Runtime_error "return with no frame"));
  let fr = top st in
  (* control-data integrity: read the return token and saved frame
     pointer back from simulated memory *)
  let token = Mem.read_int st.mem (fr.fr_fp - 8) 8 in
  let savedfp = Mem.read_int st.mem (fr.fr_fp - 16) 8 in
  cache_access st (fr.fr_fp - 8);
  cache_access st (fr.fr_fp - 16);
  if token <> ret_token_magic + fr.fr_uid then begin
    match describe_code_value ld token with
    | Some f ->
        raise
          (Trap
             (Hijack
                (Printf.sprintf
                   "return address overwritten; control transfers to %s" f)))
    | None ->
        raise
          (Trap
             (Hijack (Printf.sprintf "return address corrupted (0x%x)" token)))
  end;
  if savedfp <> fr.fr_expected_savedfp then
    raise
      (Trap
         (Hijack
            (Printf.sprintf "saved frame pointer corrupted (0x%x)" savedfp)));
  if Option.is_some st.cfg.checker then
    Array.iter
      (fun sl ->
        checker_event st
          (Ev_free
             { base = slot_addr fr sl; size = sl.Ir.sl_size; kind = AStack }))
      fr.fr_func.Ir.fslots;
  (* only a frame that called setjmp has contexts to drop (collect
     first, then remove: no mutation under iteration); once they are
     gone no context names the record, and the next call at this depth
     may reuse it *)
  if fr.fr_pinned then begin
    let dead =
      Hashtbl.fold
        (fun uid ((f : frame), _, _, _) acc ->
          if f.fr_uid = fr.fr_uid then uid :: acc else acc)
        st.jmp_bufs []
    in
    List.iter (fun uid -> Hashtbl.remove st.jmp_bufs uid) dead;
    fr.fr_pinned <- false
  end;
  st.sp <- fr.fr_fp;
  set_depth ld (st.n_frames - 1)

(** Hand the popped frame [fr]'s return values to its caller: into the
    caller's receiving registers, or into [last_rets] when there are
    none.  Popping the bottom frame ends the program with the first
    value as exit code. *)
let return_values ld (fr : frame) (rets : value list) : unit =
  let st = ld.st in
  if st.n_frames = 0 then begin
    st.last_rets <- rets;
    raise (Program_exit (match rets with VI v :: _ -> v | _ -> 0))
  end;
  match fr.fr_ret_regs with
  | [] -> st.last_rets <- rets
  | regs -> assign_rets (top st) regs rets

(* ------------------------------------------------------------------ *)
(* setjmp / longjmp                                                     *)
(* ------------------------------------------------------------------ *)

let exec_setjmp ld ~checked (args : value list) (ret_regs : Ir.reg list) =
  let st = ld.st in
  let fr = top st in
  let buf, meta =
    match args with
    | VI b :: rest -> (b, rest)
    | _ -> raise (Trap (Runtime_error "setjmp: bad arguments"))
  in
  (if checked then
     match meta with
     | [ VI b; VI e ] ->
         sb_check st ~where:"setjmp" ~ptr:buf ~base:b ~bound:e ~size:64
     | _ -> raise (Trap (Runtime_error "setjmp: missing metadata")));
  let uid = st.next_uid in
  st.next_uid <- uid + 1;
  let ret_reg =
    match ret_regs with r :: _ -> r | [] -> -1
  in
  (* resume point: the PC was pre-incremented, so it already denotes the
     instruction after this setjmp call *)
  Hashtbl.replace st.jmp_bufs uid (fr, fr.fr_block, fr.fr_inst, ret_reg);
  fr.fr_pinned <- true;
  let token = jmp_token_magic + uid in
  let pc = func_addr_of ld fr.fr_func.Ir.fname in
  program_write st buf 8;
  Mem.write_int st.mem buf 8 token;
  program_write st (buf + 8) 8;
  Mem.write_int st.mem (buf + 8) 8 pc;
  program_write st (buf + 16) 8;
  Mem.write_int st.mem (buf + 16) 8 fr.fr_fp;
  if ret_reg >= 0 then reg_set_int fr ret_reg 0

let exec_longjmp ld ~checked (args : value list) =
  let st = ld.st in
  let buf, v, meta =
    match args with
    | VI b :: v :: rest -> (b, as_int v, rest)
    | _ -> raise (Trap (Runtime_error "longjmp: bad arguments"))
  in
  (if checked then
     match meta with
     | [ VI b; VI e ] ->
         sb_check st ~where:"longjmp" ~ptr:buf ~base:b ~bound:e ~size:64
     | _ -> raise (Trap (Runtime_error "longjmp: missing metadata")));
  program_read st buf 8;
  let token = Mem.read_int st.mem buf 8 in
  program_read st (buf + 8) 8;
  let pc = Mem.read_int st.mem (buf + 8) 8 in
  let hijack_diagnosis () =
    match (describe_code_value ld pc, describe_code_value ld token) with
    | Some f, _ | _, Some f ->
        raise
          (Trap
             (Hijack
                (Printf.sprintf
                   "longjmp buffer overwritten; control transfers to %s" f)))
    | None, None ->
        raise
          (Trap (Hijack (Printf.sprintf "longjmp buffer corrupted (0x%x)" token)))
  in
  let uid = token - jmp_token_magic in
  match Hashtbl.find_opt st.jmp_bufs uid with
  | None -> hijack_diagnosis ()
  | Some (target, blk, inst, ret_reg) ->
      (* the stored pc must still denote the frame's own function *)
      if pc <> func_addr_of ld target.fr_func.Ir.fname then hijack_diagnosis ();
      (* the target frame must still be live *)
      let rec live d =
        d < st.n_frames && (st.stack.(d).fr_uid = target.fr_uid || live (d + 1))
      in
      if not (live 0) then hijack_diagnosis ();
      (* unwind *)
      let rec unwind () =
        match top st with
        | fr when fr.fr_uid <> target.fr_uid ->
            if Option.is_some st.cfg.checker then
              Array.iter
                (fun sl ->
                  checker_event st
                    (Ev_free
                       {
                         base = slot_addr fr sl;
                         size = sl.Ir.sl_size;
                         kind = AStack;
                       }))
                fr.fr_func.Ir.fslots;
            (* the transform clears pointer-slot metadata before each
               return (section 5.2), but longjmp skips those returns —
               clear here, or frames reusing this stack space observe
               stale bounds.  Probe first so untouched slots don't
               materialize metadata pages. *)
            if checked && st.cfg.meta <> None then
              Array.iter
                (fun sl ->
                  List.iter
                    (fun off ->
                      let a = slot_addr fr sl + off in
                      let b, e = meta_load st a in
                      if b <> 0 || e <> 0 then meta_store st a 0 0)
                    sl.Ir.sl_ptr_offsets)
                fr.fr_func.Ir.fslots;
            set_depth ld (st.n_frames - 1);
            unwind ()
        | _ -> ()
      in
      unwind ();
      st.sp <- target.fr_fp - 16 - target.fr_func.Ir.fframe_size;
      target.fr_block <- blk;
      target.fr_inst <- inst;
      if ret_reg >= 0 then
        reg_set_int target ret_reg (if v = 0 then 1 else v)

(* ------------------------------------------------------------------ *)
(* Calls                                                                *)
(* ------------------------------------------------------------------ *)

(* forward reference, tied after the step loop is defined: builtins like
   qsort call back into interpreted code *)
let call_function_fwd :
    (loaded -> fentry -> value list -> value list) ref =
  ref (fun _ _ _ -> failwith "call_function not initialized")

(** qsort/bsearch: the comparator is a function pointer into interpreted
    code, invoked re-entrantly for every comparison.  Under SoftBound the
    wrapper checks the array extent and the function pointer, and hands
    the comparator per-element bounds. *)
let exec_sortsearch ld ~checked ~is_bsearch (argvals : value list)
    (rets : Ir.reg list) : unit =
  let st = ld.st in
  charge st Cost.libc_call;
  let argarr = Array.of_list argvals in
  let ai i = as_int argarr.(i) in
  let key, base, n, size, cmp, key_meta, base_meta, cmp_meta =
    if is_bsearch then
      ( ai 0, ai 1, ai 2, ai 3, ai 4,
        (if checked then (ai 5, ai 6) else (0, 0)),
        (if checked then (ai 7, ai 8) else (0, 0)),
        if checked then (ai 9, ai 10) else (0, 0) )
    else
      ( 0, ai 0, ai 1, ai 2, ai 3, (0, 0),
        (if checked then (ai 4, ai 5) else (0, 0)),
        if checked then (ai 6, ai 7) else (0, 0) )
  in
  if size < 0 || n < 0 then
    raise (Trap (Runtime_error "qsort/bsearch: bad element size or count"));
  if checked then begin
    (* whole-extent check, like the memcpy wrapper (section 5.2) *)
    if n > 0 && size > 0 then
      sb_check st
        ~where:(if is_bsearch then "_sb_bsearch" else "_sb_qsort")
        ~ptr:base ~base:(fst base_meta) ~bound:(snd base_meta)
        ~size:(n * size);
    if is_bsearch then
      sb_check st ~where:"_sb_bsearch" ~ptr:key ~base:(fst key_meta)
        ~bound:(snd key_meta) ~size;
    (* function-pointer encoding check *)
    if not (fst cmp_meta = cmp && snd cmp_meta = cmp && L.is_function_addr cmp)
    then
      raise
        (Trap
           (Bounds_violation
              { addr = cmp; base = fst cmp_meta; bound = snd cmp_meta;
                size = 0; where = "qsort/bsearch (function pointer check)" }))
  end;
  let cmp_target =
    match target_at ld cmp with
    | Some t -> t
    | None ->
        raise
          (Trap
             (Runtime_error "qsort/bsearch: comparator is not a function"))
  in
  (* resolve the comparator once; _sb_-convention targets (transformed
     module functions and wrapper builtins alike) receive per-element
     bounds after the two element pointers *)
  let cmp_func =
    match cmp_target.tg_kind with
    | Func i -> Some ld.img.im_funcs.(i)
    | Libc _ | Undefined -> None
  in
  let wants_meta =
    match cmp_func with
    | Some fe -> Array.length fe.fe_params = 6
    | None -> cmp_target.tg_checked
  in
  let qsort_depth = st.n_frames in
  (* snapshot the caller's identity and program point: a longjmp out of
     the comparator either pops frames below us or redirects the caller *)
  let caller_snapshot () =
    if st.n_frames = 0 then (-1, -1, -1)
    else
      let fr = top st in
      (fr.fr_uid, fr.fr_block, fr.fr_inst)
  in
  let snap0 = caller_snapshot () in
  let invoke a b =
    let args =
      if wants_meta then
        [ VI a; VI b; VI a; VI (a + size); VI b; VI (b + size) ]
      else [ VI a; VI b ]
    in
    let out =
      match cmp_func with
      | Some fe -> (
          match ld.reenter with
          | Some f -> f ld fe args
          | None -> !call_function_fwd ld fe args)
      | None -> (
          (* a builtin comparator gets the two element pointers too: a
             prototype that takes another count is an arity mismatch,
             reported as {!push_frame} reports a module function's *)
          match cmp_target.tg_kind with
          | Libc { lc_n_fixed; _ } when lc_n_fixed <> 2 ->
              raise
                (Trap
                   (Runtime_error
                      (Printf.sprintf "%s: called with 2 args, expects %d"
                         cmp_target.tg_name lc_n_fixed)))
          | _ -> Builtins.dispatch st cmp_target args)
    in
    (* a longjmp out of the comparator would leave this sort running
       against an unwound (or redirected) stack; C calls that undefined,
       the VM makes it a clean trap *)
    if st.n_frames < qsort_depth || caller_snapshot () <> snap0 then
      raise
        (Trap (Runtime_error "longjmp out of a qsort/bsearch comparator"));
    match out with VI r :: _ -> r | _ -> 0
  in
  let elem i = base + (i * size) in
  if n = 0 || size = 0 then begin
    (* degenerate calls are no-ops (bsearch finds nothing) *)
    if is_bsearch then begin
      let out = if checked then [ VI 0; VI 0; VI 0 ] else [ VI 0 ] in
      assign_rets (top st) rets out
    end
  end
  else if is_bsearch then begin
    let lo = ref 0 and hi = ref (n - 1) and found = ref 0 in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let c = invoke key (elem mid) in
      if c = 0 then begin
        found := elem mid;
        lo := !hi + 1
      end
      else if c < 0 then hi := mid - 1
      else lo := mid + 1
    done;
    let out =
      if checked then
        [ VI !found;
          VI (if !found = 0 then 0 else fst base_meta);
          VI (if !found = 0 then 0 else snd base_meta) ]
      else [ VI !found ]
    in
    assign_rets (top st) rets out
  end
  else begin
    (* in-place quicksort over simulated memory; element swaps are real
       byte traffic *)
    let tmp = Bytes.create size in
    let swap i j =
      if i <> j then begin
        Builtins.range_access st (elem i) size ~is_store:true;
        Builtins.range_access st (elem j) size ~is_store:true;
        for k = 0 to size - 1 do
          Bytes.set tmp k (Char.chr (Mem.read_byte st.mem (elem i + k)))
        done;
        Mem.blit st.mem ~src:(elem j) ~dst:(elem i) ~len:size;
        for k = 0 to size - 1 do
          Mem.write_byte st.mem (elem j + k) (Char.code (Bytes.get tmp k))
        done;
        (* moving the bytes must move the metadata too, or sorting an
           array of pointers leaves stale bounds behind (the memcpy
           wrapper has the same obligation, section 5.2) *)
        if checked then
          for k = 0 to (size / 8) - 1 do
            let a = elem i + (8 * k) and b = elem j + (8 * k) in
            let ab, ae = meta_load st a in
            let bb, be = meta_load st b in
            meta_store st a bb be;
            meta_store st b ab ae
          done;
        charge st (Cost.bulk_cost (3 * size))
      end
    in
    let rec sort lo hi =
      if lo < hi then begin
        (* middle pivot, moved to the end *)
        swap ((lo + hi) / 2) hi;
        let p = ref lo in
        for i = lo to hi - 1 do
          if invoke (elem i) (elem hi) < 0 then begin
            swap i !p;
            incr p
          end
        done;
        swap !p hi;
        sort lo (!p - 1);
        sort (!p + 1) hi
      end
    in
    sort 0 (n - 1)
  end

let rec exec_call ld (fr : frame) ~rets ~callee:c ~args : unit =
  let argvals = List.map (eval fr) args in
  match c with
  | Ir.Func name -> dispatch_call ld (callee ld.img name) ~argvals ~rets
  | op -> (
      let v = eval_int fr op in
      match target_at ld v with
      | Some t -> dispatch_call ld t ~argvals ~rets
      | None ->
          raise
            (Trap
               (Runtime_error
                  (Printf.sprintf "indirect call to non-function address 0x%x"
                     v))))

(** Call [t] with [argvals], shared by both engines: the threaded-code
    compiler resolves direct callees once at compile time and jumps
    straight here from the call closure. *)
and dispatch_call ld (t : Builtins.target) ~argvals ~rets : unit =
  let st = ld.st in
  match t.tg_kind with
  | Func i ->
      (* the caller's saved position already points past the call *)
      push_call ld ld.img.im_funcs.(i) argvals rets
  | kind ->
      let checked = t.tg_checked and name = t.tg_name in
      let go () =
        match kind with
        | Libc { lc_control = Some Setjmp; _ } ->
            exec_setjmp ld ~checked argvals rets
        | Libc { lc_control = Some Longjmp; _ } ->
            exec_longjmp ld ~checked argvals
        | Libc { lc_control = Some Qsort; _ } ->
            exec_sortsearch ld ~checked ~is_bsearch:false argvals rets
        | Libc { lc_control = Some Bsearch; _ } ->
            exec_sortsearch ld ~checked ~is_bsearch:true argvals rets
        | Libc { lc_control = None; _ } ->
            let out =
              try Builtins.dispatch st t argvals
              with Builtins.Exit_program n -> raise (Program_exit n)
            in
            assign_rets (top st) rets out
        | Func _ | Undefined ->
            raise (Trap (Runtime_error ("call to undefined function " ^ name)))
      in
      if checked then begin
        (* attribute the wrapper's whole cycle delta (including its
           internal site-0 metadata traffic) to the wrapper by name; the
           context makes site-0 operations "wrapper-attributed" rather
           than unattributable *)
        let prev = Obs.set_wrapper st.obs (Some name) in
        let cy0 = st.stats.cycles in
        Fun.protect
          ~finally:(fun () ->
            Obs.restore_wrapper st.obs prev;
            Obs.record_wrapper st.obs name ~cycles:(st.stats.cycles - cy0);
            if Obs.trace_on st.obs then
              Obs.trace_event st.obs (Obs.E_wrapper { name }))
          go
      end
      else go ()

(* ------------------------------------------------------------------ *)
(* The step loop                                                        *)
(* ------------------------------------------------------------------ *)

(** The [CheckFptr] dynamic check after operand evaluation:
    function-pointer encoding check plus the optional signature-hash
    comparison.  [cy0] is the cycle count before the
    already-charged [Cost.check], for obs attribution. *)
let check_fptr ld ~fname ~site ~expected_sig ~cy0 pv bv ev : unit =
  let st = ld.st in
  let ok_addr = pv = bv && pv = ev && L.is_function_addr pv in
  (* the signature check only runs once the address check passed *)
  let sig_mismatch =
    if not ok_addr then None
    else
      match expected_sig with
      | None -> None
      | Some h -> (
          charge st Cost.check;
          (* module functions hash their (transformed) parameter and
             return kinds; builtins the form called, derived from the C
             prototype *)
          match target_at ld pv with
          | Some ({ tg_kind = Func i; _ } as t)
            when ld.img.im_funcs.(i).fe_sig <> h ->
              Some t.tg_name
          | Some ({ tg_kind = Libc l; _ } as t) when l.lc_sig_hash <> h ->
              Some t.tg_name
          | _ -> None)
  in
  Obs.record_op st.obs Obs.KCheckFptr ~site ~cycles:(st.stats.cycles - cy0);
  if Obs.trace_on st.obs then
    Obs.trace_event st.obs
      (Obs.E_fptr_check { site; addr = pv; ok = ok_addr && sig_mismatch = None });
  if not ok_addr then
    raise
      (Trap
         (Bounds_violation
            {
              addr = pv;
              base = bv;
              bound = ev;
              size = 0;
              where = fname ^ " (function pointer check)";
            }));
  match sig_mismatch with
  | None -> ()
  | Some name ->
      raise
        (Trap
           (Bounds_violation
              {
                addr = pv;
                base = bv;
                bound = ev;
                size = 0;
                where =
                  fname ^ " (function pointer signature mismatch: " ^ name
                  ^ ")";
              }))

(* ------------------------------------------------------------------ *)
(* The reference decode loop                                            *)
(* ------------------------------------------------------------------ *)

(* [exec_inst] through [call_function] and {!run} walk the pre-decoded
   arrays one instruction at a time.  Production runs use the
   threaded-code engine ({!Compile}); this loop is the readable opcode
   specification that the cross-engine test suite compares it with,
   bit for bit.  The engine also runs [exec_inst] and [exec_term]
   itself, for every shape it has no specialised closure for. *)

let exec_inst ld (fr : frame) (inst : Ir.inst) : unit =
  let st = ld.st in
  match inst with
  | Ir.Mov (r, _, o) ->
      charge st Cost.basic;
      reg_set fr r (eval fr o)
  | Ir.Bin (r, op, t, a, b) ->
      reg_set fr r (exec_bin st op t (eval fr a) (eval fr b))
  | Ir.Cmp (r, op, t, a, b) ->
      reg_set fr r (exec_cmp st op t (eval fr a) (eval fr b))
  | Ir.Cast (r, to_, from_, o) ->
      reg_set fr r (exec_cast st to_ from_ (eval fr o))
  | Ir.Load (r, t, a) -> reg_set fr r (do_load st t (eval_int fr a))
  | Ir.Store (t, a, v) -> do_store st t (eval_int fr a) (eval fr v)
  | Ir.Gep (r, base, off, _) ->
      charge st Cost.basic;
      let b = eval_int fr base in
      let d = b + eval_int fr off in
      (match st.cfg.checker with
      | Some _ -> checker_event st (Ev_ptr_arith { src = b; dst = d })
      | None -> ());
      reg_set_int fr r d
  | Ir.Slotaddr (r, s) ->
      charge st Cost.alloca;
      reg_set_int fr r (slot_addr fr fr.fr_func.Ir.fslots.(s))
  | Ir.Call { rets; callee; args; _ } ->
      (* the step loop advances the PC before executing, so the caller's
         stored position already points past this call *)
      exec_call ld fr ~rets ~callee ~args
  | Ir.SetBoundMark _ -> ()
  | Ir.Check (p, b, e, size, site) ->
      sb_check st ~site ~where:fr.fr_func.Ir.fname ~ptr:(eval_int fr p)
        ~base:(eval_int fr b) ~bound:(eval_int fr e) ~size
  | Ir.CheckFptr (p, b, e, expected_sig, site) ->
      st.stats.checks <- st.stats.checks + 1;
      let cy0 = st.stats.cycles in
      charge st Cost.check;
      let pv = eval_int fr p in
      let bv = eval_int fr b in
      let ev = eval_int fr e in
      check_fptr ld ~fname:fr.fr_func.Ir.fname ~site ~expected_sig ~cy0 pv bv
        ev
  | Ir.MetaLoad (rb, re, a, site) ->
      let b, e = meta_load st ~site (eval_int fr a) in
      reg_set_int fr rb b;
      reg_set_int fr re e
  | Ir.MetaStore (a, b, e, site) ->
      meta_store st ~site (eval_int fr a) (eval_int fr b)
        (eval_int fr e)
  | Ir.CheckSpan sp ->
      sb_check_span st ~site:sp.Ir.sp_site ~sites:sp.Ir.sp_sites
        ~where:fr.fr_func.Ir.fname
        ~first:(eval_int fr sp.Ir.sp_first)
        ~count:(eval_int fr sp.Ir.sp_count)
        ~stride:sp.Ir.sp_stride ~width:sp.Ir.sp_width
        ~base:(eval_int fr sp.Ir.sp_base)
        ~bound:(eval_int fr sp.Ir.sp_bound)

let exec_term ld (fr : frame) (term : Ir.terminator) : unit =
  let st = ld.st in
  match term with
  | Ir.TRet ops ->
      let vals = List.map (eval fr) ops in
      pop_frame ld;
      return_values ld fr vals
  | Ir.TJmp t ->
      charge st Cost.basic;
      fr.fr_block <- t;
      fr.fr_inst <- 0
  | Ir.TBr (c, t1, t2) ->
      charge st Cost.basic;
      fr.fr_block <- (if eval_int fr c <> 0 then t1 else t2);
      fr.fr_inst <- 0
  | Ir.TSwitch (v, cases, default) ->
      charge st (Cost.basic * 2);
      let x = eval_int fr v in
      (* monomorphic scan — [List.assoc_opt] is a polymorphic-compare C
         call per executed case *)
      let rec find = function
        | [] -> default
        | (k, t) :: tl -> if (k : int) = x then t else find tl
      in
      fr.fr_block <- find cases;
      fr.fr_inst <- 0
  | Ir.TUnreachable ->
      raise (Trap (Runtime_error "unreachable executed (missing return?)"))

(** Execute one instruction (or terminator) of the top frame; [false]
    when no frames remain. *)
let step_once ld : bool =
  let st = ld.st in
  if st.n_frames = 0 then false
  else begin
      let fr = top st in
      st.steps <- st.steps + 1;
      if st.steps > st.cfg.max_steps then raise (Trap Step_limit);
      (match st.cfg.poll with
      | Some p when st.steps land poll_mask = 0 -> p ()
      | _ -> ());
      st.stats.insts <- st.stats.insts + 1;
      let insts = fr.fr_code.(fr.fr_block) in
      if fr.fr_inst < Array.length insts then begin
        (* pre-increment the PC, like real hardware: calls and longjmp
           then resume at the right place with no special-casing *)
        let i = insts.(fr.fr_inst) in
        fr.fr_inst <- fr.fr_inst + 1;
        exec_inst ld fr i
      end
      else exec_term ld fr fr.fr_terms.(fr.fr_block);
      true
  end

(** Main execution loop: step until no frames remain. *)
let run_until_done ld : int =
  try
    while step_once ld do
      ()
    done;
    0
  with Program_exit n -> n

(** Re-entrant call from inside a builtin (e.g. a qsort comparator):
    push a frame for [f] and run until it returns, yielding its return
    values.  Traps and [Program_exit] propagate. *)
let call_function ld (fe : fentry) (args : value list) : value list =
  let st = ld.st in
  let depth = st.n_frames in
  push_call ld fe args [];
  while st.n_frames > depth && step_once ld do
    ()
  done;
  st.last_rets

let () = call_function_fwd := call_function

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

(** Set up argv strings in the heap; returns (argc, argv, argv_bounds). *)
let setup_argv ld (argv : string list) : int * int * (int * int) =
  let st = ld.st in
  let n = List.length argv in
  let arr =
    match Machine.Heap.malloc st.heap (8 * max 1 n) with
    | Some a -> a
    | None -> raise (Trap Out_of_memory)
  in
  checker_event st (Ev_alloc { base = arr; size = 8 * max 1 n; kind = AHeap });
  List.iteri
    (fun i s ->
      let p =
        match Machine.Heap.malloc st.heap (String.length s + 1) with
        | Some p -> p
        | None -> raise (Trap Out_of_memory)
      in
      checker_event st
        (Ev_alloc { base = p; size = String.length s + 1; kind = AHeap });
      Mem.write_cstring st.mem p s;
      Mem.write_int st.mem (arr + (8 * i)) 8 p;
      (* transformed programs find argv[i] metadata in the table *)
      if st.cfg.meta <> None then
        meta_store st (arr + (8 * i)) p (p + String.length s + 1))
    argv;
  (n, arr, (arr, arr + (8 * n)))

type result = {
  outcome : outcome;
  stdout_text : string;
  stats : stats;
  cache_hits : int;
  cache_misses : int;
  resident_bytes : int;
  heap_peak : int;
  heap_live : int;
      (** bytes still allocated at exit — instrumentation must not
          change the program's allocation behavior, so differential
          runs compare this across configurations *)
  heap_allocs : int;
      (** lifetime heap allocation count — the per-object term of the
          related-work schemes' analytic metadata-footprint models *)
  obs : Obs.t;
      (** per-site observability counters and (optionally) the event
          ring *)
  dispatches : int;
      (** host-side: closures the engine entered — steps less the ones
          run inside a superinstruction (every step, on the decode
          loop).  Not simulated; not compared across engines. *)
  bounces : int;  (** host-side: chains entered from the engine's driver *)
}

let finish ld outcome : result =
  let st = ld.st in
  (match outcome with
  | Trapped t when Obs.trace_on st.obs ->
      Obs.trace_event st.obs (Obs.E_trap { detail = string_of_trap t })
  | _ -> ());
  {
    outcome;
    stdout_text = Buffer.contents st.out;
    stats = st.stats;
    cache_hits = Machine.Cache.hits st.cache;
    cache_misses = Machine.Cache.misses st.cache;
    resident_bytes = Mem.resident_bytes st.mem;
    heap_peak = Machine.Heap.peak_bytes st.heap;
    heap_live = Machine.Heap.live_bytes st.heap;
    heap_allocs = Machine.Heap.total_allocs st.heap;
    obs = st.obs;
    dispatches = st.steps - st.fused;
    bounces = st.bounces;
  }

(** Run the loaded module's global initializer and [main] with [exec]
    (by default the decode loop), returning the outcome.  Unlike {!run}
    this leaves the state open afterwards: the adversarial harness keeps
    driving boundary calls and builtin dispatches against the very same
    [loaded] value. *)
let run_main ?(exec = run_until_done) ld : outcome =
  try
    (* transformed modules carry a synthetic global-metadata initializer *)
    (match find_func ld.img "__sb_global_init" with
    | Some fe ->
        push_call ld fe [] [];
        ignore (exec ld)
    | _ -> ());
    let module_func = find_func ld.img in
    let main =
      match module_func "_sb_main" with
      | Some fe -> fe
      | None -> (
          match module_func "main" with
          | Some fe -> fe
          | None -> raise (Trap (Runtime_error "no main function")))
    in
    let nparams = Array.length main.fe_params in
    let args =
      if nparams = 0 then []
      else begin
        let argc, argv, (ab, ae) =
          setup_argv ld ("prog" :: ld.st.cfg.argv)
        in
        if nparams >= 4 then
          (* transformed main: (argc, argv, argv_base, argv_bound) *)
          [ VI argc; VI argv; VI ab; VI ae ]
        else [ VI argc; VI argv ]
      end
    in
    push_call ld main args [];
    let code = exec ld in
    Exit code
  with
  | Trap t -> Trapped t
  | Mem.Segfault a -> Trapped (Segfault a)
  | Program_exit n -> Exit n

(** Load and run a module to completion. *)
let run ?(cfg = default_config) (m : Ir.modul) : result =
  let ld = create ~cfg m in
  finish ld (run_main ld)
