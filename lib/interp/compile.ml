(* Threaded-code engine: a compiler, run once per module image, from
   each basic block of the pre-decoded IR to a chain of OCaml closures.

   Executing a block is a tail-call chain with no constructor dispatch:
   each closure captures its resolved operands and call-target
   resolution as preallocated state, and ends by tail-calling the next
   closure.  A closure takes the run ({!Vm.loaded}) as its one argument
   and finds the current frame in [ld.cur], so the call to the next
   closure is a direct one-argument application (a load of its code
   pointer and a jump), not a [caml_apply2] round trip.  Control flow
   links blocks through a per-function join-point array resolved at
   compile time.  Calls and returns are tail calls too: a call pushes
   the callee's frame and enters its chain, a return pops and continues
   the caller where it left off, so the driver loop below regains
   control only when a return reaches a frame waiting in host code (a
   qsort comparator's caller) or a longjmp moves control to another
   frame.

   Superinstructions: the short runs of instructions that dominate the
   dynamic instruction stream of Figure 2 run as one closure (see
   {!fuse} and {!goto_h}).  A fused closure performs each instruction's
   tick, charges, cache accesses, checker events, obs records and traps
   in the original order, so a trap or [Step_limit] in any part ends
   the run exactly as the unfused chain would.

   Invariant: every simulated output — cycles, instruction counts,
   cache traffic, metadata probes, obs attribution, trap identity and
   ordering — is bit-identical to the reference decode loop's
   ({!Vm.run_until_done}).  Each compiled closure performs the same
   accounting in the same order as the corresponding {!Vm.exec_inst}
   arm; the cross-engine suite (test/test_engines.ml) and the shared
   goldens pin this.

   The compiled artifact captures no per-run state: closures take the
   run as their argument, and what they close over — pre-decoded
   [fentry] values, join-point arrays, constants — is immutable or
   race-safe.  Artifacts are therefore attached to the module image
   ({!Vm.image}) and shared across runs, configurations, and
   domains. *)

module Ir = Sbir.Ir
open State
open Vm
module L = Machine.Layout
module Mem = Machine.Memory
module Cost = Machine.Cost

(** A compiled instruction: execute it (and, inline, whatever follows it
    up to the next frame boundary) against the given run, in its
    current frame [ld.cur]. *)
type k = Vm.loaded -> unit

(** Per-function compiled code.  [chains.(b).(i)] enters block [b] at
    instruction index [i]; index [n] (one past the last instruction) is
    the terminator.  The extra entry points exist because frames suspend
    mid-block (calls, setjmp resume points) and are re-entered at their
    recorded [fr_block]/[fr_inst].  [params] are the parameter
    registers, validated like every other register. *)
type func_code = { chains : k array array; params : Ir.reg array }

(** Compiled code of a module, indexed by {!Vm.fentry.fe_index} (a
    frame's [fr_index]). *)
type compiled = { c_funcs : func_code array }

type Vm.attached += Compiled of compiled

(* ------------------------------------------------------------------ *)
(* Per-step accounting                                                  *)
(* ------------------------------------------------------------------ *)

(* Raised by a closure whose step needs the slow check; the driver
   runs {!State.tick_slow} and re-enters the closure at the position it
   recorded in its frame. *)
exception Tick_due

(* identical counters in identical order to the decoding engine's step
   loop: the step limit and the poll points are folded into one bound,
   [tick_limit], so the common step is one compare.  When the step
   about to run is the limit or a poll point, the closure at [idx] of
   the current block records its position and raises to the driver,
   which raises [Step_limit] or runs the poll hook on exactly the step
   the reference loop would and re-enters it.  A raise, unlike a call,
   leaves no register to save, so the common path spills nothing. *)
let[@inline] tick ld fr idx =
  let st = ld.st in
  let s = st.steps in
  if s >= st.tick_limit then begin
    fr.fr_inst <- idx;
    raise_notrace Tick_due
  end;
  st.steps <- s + 1;
  st.stats.insts <- st.stats.insts + 1

(** Tick the instruction at [idx] and return the current frame: the
    start of every closure. *)
let[@inline] step ld idx =
  let fr = ld.cur in
  tick ld fr idx;
  fr

(** The tick of the instruction at [idx] run inside a superinstruction,
    which the dispatch counter tells apart. *)
let[@inline] tick_fused ld fr idx =
  tick ld fr idx;
  ld.st.fused <- ld.st.fused + 1

(* ------------------------------------------------------------------ *)
(* Operand compilation                                                  *)
(* ------------------------------------------------------------------ *)

(* Pre-decode resolved every known [Glob]/[GlobEnd]/[Func] operand to an
   [ImmI]; a surviving name is unknown in this module and traps at
   evaluation time (never earlier), exactly as {!State.eval} does.  The
   globals and function tables are fixed after load, so compiling the
   trap is sound. *)

(* Every register index is validated against the function's register
   count here, at compile time, which makes the unchecked [ureg_*]
   accessors in the emitted closures sound: the frame's register arrays
   have at least [max 1 fnregs] entries. *)
let vreg (f : Ir.func) (r : Ir.reg) : Ir.reg =
  if r < 0 || r >= max 1 f.Ir.fnregs then
    invalid_arg
      (Printf.sprintf "Compile: register %d out of range in %s" r f.Ir.fname);
  r

let ev_value (f : Ir.func) (o : Ir.operand) : frame -> value =
  match o with
  | Ir.Reg r ->
      let r = vreg f r in
      fun fr -> ureg_value fr r
  | Ir.ImmI n ->
      let v = VI n in
      fun _ -> v
  | Ir.ImmF x ->
      let v = VF x in
      fun _ -> v
  | Ir.Glob g | Ir.GlobEnd g ->
      fun _ -> raise (Trap (Runtime_error ("unknown global " ^ g)))
  | Ir.Func fn ->
      fun _ -> raise (Trap (Runtime_error ("unknown function " ^ fn)))

let ev_int (f : Ir.func) (o : Ir.operand) : frame -> int =
  match o with
  | Ir.Reg r ->
      let r = vreg f r in
      fun fr -> ureg_int fr r
  | Ir.ImmI n -> fun _ -> n
  | o ->
      let e = ev_value f o in
      fun fr -> as_int (e fr)

(** Operands whose evaluation can neither trap nor observe state other
    than the register file — the precondition for reordering or fusing
    their evaluation in specialized closures. *)
let pure_operand = function Ir.Reg _ | Ir.ImmI _ -> true | _ -> false

(** Pure operands seen through {!State.as_float}: [ImmF] also
    qualifies. *)
let pure_operand_f = function
  | Ir.Reg _ | Ir.ImmI _ | Ir.ImmF _ -> true
  | _ -> false

(* A pure operand splits into a (selector, immediate) pair: selector
   >= 0 names a validated register, selector < 0 selects the immediate.
   Fetching is then a well-predicted conditional branch inside the
   instruction closure instead of an indirect call through a shared
   closure body — the dominant dispatch cost once operands are the only
   per-instruction indirection left. *)

let pure_parts (f : Ir.func) (o : Ir.operand) : int * int =
  match o with
  | Ir.Reg r -> (vreg f r, 0)
  | Ir.ImmI n -> (-1, n)
  | _ -> invalid_arg "Compile.pure_parts: operand is not pure"

let[@inline] fetch fr sel imm = if sel >= 0 then ureg_int fr sel else imm

let pure_parts_f (f : Ir.func) (o : Ir.operand) : int * float =
  match o with
  | Ir.Reg r -> (vreg f r, 0.0)
  | Ir.ImmI n -> (-1, float_of_int n)
  | Ir.ImmF x -> (-1, x)
  | _ -> invalid_arg "Compile.pure_parts_f: operand is not pure"

let[@inline] fetchf fr sel imm = if sel >= 0 then ureg_float fr sel else imm

(* ------------------------------------------------------------------ *)
(* Integer widths                                                       *)
(* ------------------------------------------------------------------ *)

(** An integer type's width as a compile-time (shift, mask) pair:
    [norm sh mask v] is {!Ir.norm_int}, and also a load's sign or zero
    extension of the bytes {!Machine.Memory.read_int} composes; [v land
    mask] is the view {!Vm.exec_cmp_int} compares — the unsigned view of
    a narrow unsigned type, the raw value otherwise. *)
let width (t : Ir.ity) : int * int =
  let bits = 8 * Ir.ity_size t in
  if bits >= 64 then (0, -1)
  else (63 - bits, if Ir.ity_signed t then -1 else (1 lsl bits) - 1)

let[@inline] norm sh mask v = ((v lsl sh) asr sh) land mask

let int_type t = not (Ir.ity_is_float t)

(** Integer ALU ops computed as [norm (x op y)] on the raw operands.
    Division and remainder trap, and a narrow unsigned [Shr] shifts the
    unsigned view: those go through {!Vm.exec_bin_int}. *)
let plain_alu (op : Ir.binop) (t : Ir.ity) =
  int_type t
  &&
  match op with
  | Ir.Div | Ir.Rem -> false
  | Ir.Shr -> Ir.ity_signed t || Ir.ity_size t = 8
  | _ -> true

(** A compare as one of three relations and a negation flag: [Cne] is
    not [Ceq], [Cge] not [Clt] and [Cgt] not [Cle]. *)
type rel = Eq | Lt | Le

let relation : Ir.cmpop -> rel * int = function
  | Ir.Ceq -> (Eq, 0)
  | Ir.Cne -> (Eq, 1)
  | Ir.Clt -> (Lt, 0)
  | Ir.Cge -> (Lt, 1)
  | Ir.Cle -> (Le, 0)
  | Ir.Cgt -> (Le, 1)

(* ------------------------------------------------------------------ *)
(* Instruction bodies                                                   *)
(* ------------------------------------------------------------------ *)

(* The effect of one instruction on the run after its tick, for the
   closures below to inline: a plain closure ticks, runs one body and
   continues; a superinstruction ticks and runs several in a row. *)

let[@inline] alu_h st fr cost r sh mask v =
  charge st cost;
  ureg_set_int fr r (norm sh mask v)

(** A compare's result register gets [c] (negated by [neg]). *)
let[@inline] cmp_h st fr r neg c =
  charge st Cost.basic;
  ureg_set_int fr r (Bool.to_int c lxor neg)

(** [Mov] of a pure operand: a register copies its tag and both lanes —
    no box, no coercion branch. *)
let[@inline] mov_h st fr r s j =
  charge st Cost.basic;
  if s >= 0 then begin
    Bytes.unsafe_set fr.fr_isf r (Bytes.unsafe_get fr.fr_isf s);
    Array.unsafe_set fr.fr_iregs r (Array.unsafe_get fr.fr_iregs s);
    Array.unsafe_set fr.fr_fregs r (Array.unsafe_get fr.fr_fregs s)
  end
  else ureg_set_int fr r j

(** [Gep]: returns the address it wrote. *)
let[@inline] gep_h st fr r b off =
  charge st Cost.basic;
  let d = b + off in
  (match st.cfg.checker with
  | Some _ -> checker_event st (Ev_ptr_arith { src = b; dst = d })
  | None -> ());
  ureg_set_int fr r d;
  d

(** An integer [Load] of [size] bytes ({!Vm.do_load}). *)
let[@inline] load_h st fr r ~size ~sh ~mask ~ptr addr =
  program_read st addr size;
  if ptr then st.stats.ptr_mem_ops <- st.stats.ptr_mem_ops + 1;
  ureg_set_int fr r (norm sh mask (Mem.read_int st.mem addr size))

(** An integer [Store] of [size] bytes ({!Vm.do_store}). *)
let[@inline] store_h st ~size ~ptr addr v =
  program_write st addr size;
  if ptr then st.stats.ptr_mem_ops <- st.stats.ptr_mem_ops + 1;
  Mem.write_int st.mem addr size v

(** A [TJmp] or [TBr] to block [t], after its tick.  When [t] holds
    nothing but a [TJmp] to [hop], that jump runs here too, as the
    later part of a superinstruction; [hop] is -1 otherwise. *)
let[@inline] goto_h ld fr (entries : k array) t hop =
  charge ld.st Cost.basic;
  fr.fr_block <- t;
  if hop < 0 then (Array.unsafe_get entries t) ld
  else begin
    tick_fused ld fr 0;
    charge ld.st Cost.basic;
    fr.fr_block <- hop;
    (Array.unsafe_get entries hop) ld
  end

(* ------------------------------------------------------------------ *)
(* Calls and returns                                                    *)
(* ------------------------------------------------------------------ *)

(* Arguments and return values move from one register file to another
   with no [value] in between.  Each is a pure operand, split into
   parallel arrays: selector >= 0 names a validated register, -1
   selects the int immediate and -2 the float immediate. *)
type sources = { sel : int array; imm : int array; immf : float array }

let sources (f : Ir.func) (ops : Ir.operand list) : sources =
  let ops = Array.of_list ops in
  {
    sel =
      Array.map
        (function
          | Ir.Reg r -> vreg f r
          | Ir.ImmI _ -> -1
          | Ir.ImmF _ -> -2
          | _ -> invalid_arg "Compile.sources: operand is not pure")
        ops;
    imm = Array.map (function Ir.ImmI n -> n | _ -> 0) ops;
    immf = Array.map (function Ir.ImmF x -> x | _ -> 0.0) ops;
  }

(** Move source [j], read in frame [src], into register [d] of [dst]:
    a register copies its tag and both lanes, so the destination reads
    back exactly the value the source held.  [d] must be a validated
    register of [dst]'s function. *)
let[@inline] copy_source src ss j dst d =
  let s = Array.unsafe_get ss.sel j in
  if s >= 0 then begin
    Bytes.unsafe_set dst.fr_isf d (Bytes.unsafe_get src.fr_isf s);
    Array.unsafe_set dst.fr_iregs d (Array.unsafe_get src.fr_iregs s);
    Array.unsafe_set dst.fr_fregs d (Array.unsafe_get src.fr_fregs s)
  end
  else if s = -1 then ureg_set_int dst d (Array.unsafe_get ss.imm j)
  else ureg_set_float dst d (Array.unsafe_get ss.immf j)

(** The sources as boxed values, for builtins and [last_rets]. *)
let source_values src ss : value list =
  if Array.length ss.sel = 0 then []
  else
    List.init (Array.length ss.sel) (fun j ->
        let s = ss.sel.(j) in
        if s >= 0 then ureg_value src s
        else if s = -1 then VI ss.imm.(j)
        else VF ss.immf.(j))

(** Arguments into the callee's parameter registers, in order. *)
let copy_args src ss dst (params : Ir.reg array) =
  for j = 0 to Array.length params - 1 do
    copy_source src ss j dst (Array.unsafe_get params j)
  done

(** Return values into the caller's receiving registers, pairwise until
    either side runs out (as {!Vm.assign_rets}). *)
let rec copy_rets src ss j dst = function
  | d :: ds when j < Array.length ss.sel ->
      copy_source src ss j dst d;
      copy_rets src ss (j + 1) dst ds
  | _ -> ()

(** Continue the current frame at its recorded position. *)
let[@inline] resume (c_funcs : func_code array) ld =
  let fr = ld.cur in
  (Array.unsafe_get
     (Array.unsafe_get (Array.unsafe_get c_funcs fr.fr_index).chains
        fr.fr_block)
     fr.fr_inst)
    ld

(** The first operand of [ops] that is not pure: an unresolved name,
    whose evaluation always traps. *)
let first_trapping ops = List.find_opt (fun o -> not (pure_operand_f o)) ops

(* ------------------------------------------------------------------ *)
(* Instruction compilation                                              *)
(* ------------------------------------------------------------------ *)

(** Compile one instruction at [(blk, idx)] of [f], given the closure
    for the rest of the block. *)
let compile_inst img (c_funcs : func_code array) (f : Ir.func) ~blk ~idx
    (next : k) (inst : Ir.inst) : k =
  match inst with
  | Ir.Mov (r, _, o) when pure_operand o ->
      let r = vreg f r in
      let s, j = pure_parts f o in
      fun ld ->
        mov_h ld.st (step ld idx) r s j;
        next ld
  | Ir.Mov (r, _, Ir.ImmF x) ->
      let r = vreg f r in
      fun ld ->
        let fr = step ld idx in
        charge ld.st Cost.basic;
        ureg_set_float fr r x;
        next ld
  | Ir.Mov (r, _, o) ->
      let r = vreg f r in
      let e = ev_value f o in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        charge st Cost.basic;
        ureg_set fr r (e fr);
        next ld
  | Ir.Bin (r, op, t, a, b)
    when plain_alu op t && pure_operand a && pure_operand b -> (
      (* one closure per operator serves every integer width: the
         operands are effect-free, and the result is normalized by a
         compile-time shift and mask *)
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      let sh, mask = width t in
      let basic = Cost.basic in
      match op with
      | Ir.Add ->
          fun ld ->
            let fr = step ld idx in
            alu_h ld.st fr basic r sh mask (fetch fr sa ja + fetch fr sb jb);
            next ld
      | Ir.Sub ->
          fun ld ->
            let fr = step ld idx in
            alu_h ld.st fr basic r sh mask (fetch fr sa ja - fetch fr sb jb);
            next ld
      | Ir.Mul ->
          fun ld ->
            let fr = step ld idx in
            alu_h ld.st fr Cost.mul r sh mask (fetch fr sa ja * fetch fr sb jb);
            next ld
      | Ir.And ->
          fun ld ->
            let fr = step ld idx in
            alu_h ld.st fr basic r sh mask (fetch fr sa ja land fetch fr sb jb);
            next ld
      | Ir.Or ->
          fun ld ->
            let fr = step ld idx in
            alu_h ld.st fr basic r sh mask (fetch fr sa ja lor fetch fr sb jb);
            next ld
      | Ir.Xor ->
          fun ld ->
            let fr = step ld idx in
            alu_h ld.st fr basic r sh mask (fetch fr sa ja lxor fetch fr sb jb);
            next ld
      | Ir.Shl ->
          fun ld ->
            let fr = step ld idx in
            alu_h ld.st fr basic r sh mask
              (fetch fr sa ja lsl (fetch fr sb jb land 63));
            next ld
      | Ir.Shr when Ir.ity_signed t ->
          fun ld ->
            let fr = step ld idx in
            alu_h ld.st fr basic r sh mask
              (fetch fr sa ja asr (fetch fr sb jb land 63));
            next ld
      | _ ->
          (* [Shr] of a word-width unsigned type *)
          fun ld ->
            let fr = step ld idx in
            alu_h ld.st fr basic r sh mask
              (fetch fr sa ja lsr (fetch fr sb jb land 63));
            next ld)
  | Ir.Bin (r, op, t, a, b)
    when int_type t && pure_operand a && pure_operand b ->
      (* division, remainder, narrow unsigned shift: the shared unboxed
         helper has the trap and the unsigned view *)
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        ureg_set_int fr r
          (Vm.exec_bin_int st op t (fetch fr sa ja) (fetch fr sb jb));
        next ld
  | Ir.Bin (r, op, t, a, b)
    when Ir.ity_is_float t && pure_operand_f a && pure_operand_f b ->
      let r = vreg f r in
      let sa, ja = pure_parts_f f a and sb, jb = pure_parts_f f b in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        ureg_set_float fr r
          (Vm.exec_bin_float st op (fetchf fr sa ja) (fetchf fr sb jb));
        next ld
  | Ir.Bin (r, op, t, a, b) ->
      let r = vreg f r in
      let ea = ev_value f a and eb = ev_value f b in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        (* mirror the decoding engine's right-to-left argument
           evaluation, so a trapping operand charges identically *)
        let vb = eb fr in
        let va = ea fr in
        ureg_set fr r (Vm.exec_bin st op t va vb);
        next ld
  | Ir.Cmp (r, op, t, a, b)
    when int_type t && pure_operand a && pure_operand b -> (
      (* every integer width: compare the views [v land mask] *)
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      let _, mask = width t in
      match relation op with
      | Eq, neg ->
          fun ld ->
            let fr = step ld idx in
            cmp_h ld.st fr r neg
              (fetch fr sa ja land mask = fetch fr sb jb land mask);
            next ld
      | Lt, neg ->
          fun ld ->
            let fr = step ld idx in
            cmp_h ld.st fr r neg
              (fetch fr sa ja land mask < fetch fr sb jb land mask);
            next ld
      | Le, neg ->
          fun ld ->
            let fr = step ld idx in
            cmp_h ld.st fr r neg
              (fetch fr sa ja land mask <= fetch fr sb jb land mask);
            next ld)
  | Ir.Cmp (r, op, t, a, b)
    when Ir.ity_is_float t && pure_operand_f a && pure_operand_f b ->
      let r = vreg f r in
      let sa, ja = pure_parts_f f a and sb, jb = pure_parts_f f b in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        ureg_set_int fr r
          (Vm.exec_cmp_float st op (fetchf fr sa ja) (fetchf fr sb jb));
        next ld
  | Ir.Cmp (r, op, t, a, b) ->
      let r = vreg f r in
      let ea = ev_value f a and eb = ev_value f b in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        let vb = eb fr in
        let va = ea fr in
        ureg_set fr r (Vm.exec_cmp st op t va vb);
        next ld
  | Ir.Cast (r, to_, from_, o)
    when int_type to_ && int_type from_ && pure_operand o ->
      (* int-to-int cast is charge + renormalize *)
      let r = vreg f r in
      let s, j = pure_parts f o in
      let sh, mask = width to_ in
      fun ld ->
        let fr = step ld idx in
        alu_h ld.st fr Cost.basic r sh mask (fetch fr s j);
        next ld
  | Ir.Cast (r, to_, from_, o) ->
      let r = vreg f r in
      let e = ev_value f o in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        ureg_set fr r (Vm.exec_cast st to_ from_ (e fr));
        next ld
  | Ir.Load (r, t, a) when int_type t && pure_operand a ->
      let r = vreg f r in
      let s, j = pure_parts f a in
      let size = Ir.ity_size t and ptr = t = Ir.P and sh, mask = width t in
      fun ld ->
        let fr = step ld idx in
        load_h ld.st fr r ~size ~sh ~mask ~ptr (fetch fr s j);
        next ld
  | Ir.Load (r, t, a) when Ir.ity_is_float t && pure_operand a ->
      let r = vreg f r in
      let s, j = pure_parts f a in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        ureg_set_float fr r (Vm.do_load_float st t (fetch fr s j));
        next ld
  | Ir.Load (r, t, a) ->
      let r = vreg f r in
      let ia = ev_int f a in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        ureg_set fr r (Vm.do_load st t (ia fr));
        next ld
  | Ir.Store (t, a, v) when int_type t && pure_operand a && pure_operand v ->
      let sa, ja = pure_parts f a and sv, jv = pure_parts f v in
      let size = Ir.ity_size t and ptr = t = Ir.P in
      fun ld ->
        let fr = step ld idx in
        store_h ld.st ~size ~ptr (fetch fr sa ja) (fetch fr sv jv);
        next ld
  | Ir.Store (t, a, v)
    when Ir.ity_is_float t && pure_operand a && pure_operand_f v ->
      let sa, ja = pure_parts f a and sv, jv = pure_parts_f f v in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        Vm.do_store_float st t (fetch fr sa ja) (fetchf fr sv jv);
        next ld
  | Ir.Store (t, a, v) ->
      let ia = ev_int f a and ev = ev_value f v in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        let vv = ev fr in
        let addr = ia fr in
        Vm.do_store st t addr vv;
        next ld
  | Ir.Gep (r, base, off, _) when pure_operand base && pure_operand off ->
      let r = vreg f r in
      let sb, jb = pure_parts f base and so, jo = pure_parts f off in
      fun ld ->
        let fr = step ld idx in
        ignore (gep_h ld.st fr r (fetch fr sb jb) (fetch fr so jo) : int);
        next ld
  | Ir.Gep (r, base, off, _) ->
      let r = vreg f r in
      let ib = ev_int f base and io = ev_int f off in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        charge st Cost.basic;
        let b = ib fr in
        let d = b + io fr in
        (match st.cfg.checker with
        | Some _ -> checker_event st (Ev_ptr_arith { src = b; dst = d })
        | None -> ());
        ureg_set_int fr r d;
        next ld
  | Ir.Slotaddr (r, s) ->
      let r = vreg f r in
      (* the slot address is a per-function constant offset from the
         frame pointer *)
      let off = -16 - f.Ir.fframe_size + f.Ir.fslots.(s).Ir.sl_offset in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        charge st Cost.alloca;
        ureg_set_int fr r (fr.fr_fp + off);
        next ld
  | Ir.SetBoundMark _ ->
      fun ld ->
        ignore (step ld idx : frame);
        next ld
  | Ir.Check (p, b, e, size, site)
    when pure_operand p && pure_operand b && pure_operand e ->
      let sp, jp = pure_parts f p in
      let sb, jb = pure_parts f b in
      let se, je = pure_parts f e in
      let where = f.Ir.fname in
      fun ld ->
        let fr = step ld idx in
        sb_check ld.st ~site ~where ~ptr:(fetch fr sp jp) ~base:(fetch fr sb jb)
          ~bound:(fetch fr se je) ~size;
        next ld
  | Ir.Check (p, b, e, size, site) ->
      let ip = ev_int f p and ib = ev_int f b and ie = ev_int f e in
      let where = f.Ir.fname in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        let bnd = ie fr in
        let bas = ib fr in
        let pv = ip fr in
        sb_check st ~site ~where ~ptr:pv ~base:bas ~bound:bnd ~size;
        next ld
  | Ir.CheckSpan sp ->
      let ifirst = ev_int f sp.Ir.sp_first in
      let icount = ev_int f sp.Ir.sp_count in
      let ibase = ev_int f sp.Ir.sp_base in
      let ibound = ev_int f sp.Ir.sp_bound in
      let stride = sp.Ir.sp_stride and width = sp.Ir.sp_width in
      let site = sp.Ir.sp_site and sites = sp.Ir.sp_sites in
      let where = f.Ir.fname in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        let bound = ibound fr in
        let base = ibase fr in
        let count = icount fr in
        let first = ifirst fr in
        sb_check_span st ~site ~sites ~where ~first ~count ~stride ~width
          ~base ~bound;
        next ld
  | Ir.CheckFptr (p, b, e, expected_sig, site)
    when pure_operand p && pure_operand b && pure_operand e ->
      let sp, jp = pure_parts f p in
      let sb, jb = pure_parts f b in
      let se, je = pure_parts f e in
      let fname = f.Ir.fname in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        st.stats.checks <- st.stats.checks + 1;
        let cy0 = st.stats.cycles in
        charge st Cost.check;
        Vm.check_fptr ld ~fname ~site ~expected_sig ~cy0 (fetch fr sp jp)
          (fetch fr sb jb) (fetch fr se je);
        next ld
  | Ir.CheckFptr (p, b, e, expected_sig, site) ->
      let ip = ev_int f p and ib = ev_int f b and ie = ev_int f e in
      let fname = f.Ir.fname in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        st.stats.checks <- st.stats.checks + 1;
        let cy0 = st.stats.cycles in
        charge st Cost.check;
        let pv = ip fr in
        let bv = ib fr in
        let ev = ie fr in
        Vm.check_fptr ld ~fname ~site ~expected_sig ~cy0 pv bv ev;
        next ld
  | Ir.MetaLoad (rb, re, a, site) when pure_operand a ->
      let rb = vreg f rb and re = vreg f re in
      let sa, ja = pure_parts f a in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        let b, e = meta_load ~site st (fetch fr sa ja) in
        ureg_set_int fr rb b;
        ureg_set_int fr re e;
        next ld
  | Ir.MetaLoad (rb, re, a, site) ->
      let rb = vreg f rb and re = vreg f re in
      let ia = ev_int f a in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        let b, e = meta_load ~site st (ia fr) in
        ureg_set_int fr rb b;
        ureg_set_int fr re e;
        next ld
  | Ir.MetaStore (a, b, e, site)
    when pure_operand a && pure_operand b && pure_operand e ->
      let sa, ja = pure_parts f a in
      let sb, jb = pure_parts f b in
      let se, je = pure_parts f e in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        meta_store ~site st (fetch fr sa ja) (fetch fr sb jb) (fetch fr se je);
        next ld
  | Ir.MetaStore (a, b, e, site) ->
      let ia = ev_int f a and ib = ev_int f b and ie = ev_int f e in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        let ev = ie fr in
        let bv = ib fr in
        let av = ia fr in
        meta_store ~site st av bv ev;
        next ld
  | Ir.Call { args; _ } when first_trapping args <> None ->
      (* arguments are evaluated before anything else of the call
         happens, so the first unresolved name traps first *)
      let e = ev_value f (Option.get (first_trapping args)) in
      let nexti = idx + 1 in
      fun ld ->
        let fr = step ld idx in
        fr.fr_inst <- nexti;
        ignore (e fr)
  | Ir.Call { rets; callee; args; _ } -> (
      (* a return writes [rets] into this frame unchecked *)
      List.iter (fun r -> ignore (vreg f r)) rets;
      let ss = sources f args in
      let nargs = List.length args in
      let nexti = idx + 1 in
      (* after a call that pushed no frame (a builtin, setjmp, longjmp):
         continue inline iff this very frame is still on top at the
         position just past the call.  A longjmp elsewhere fails the
         test and bounces to the driver; a longjmp that lands exactly at
         [(blk, idx+1)] — a setjmp recorded there — passes it, and
         continuing inline is precisely the resume semantics. *)
      let finish ld fr =
        if ld.cur == fr && fr.fr_block = blk && fr.fr_inst = nexti then next ld
      in
      (* a module function: push its frame, copy the arguments into it
         and tail-call its entry — no value list, no driver round trip.
         An arity mismatch traps in [push_frame] before any argument
         moves. *)
      let call ld fr fe params =
        let callee = Vm.push_frame ld fe ~nargs rets in
        copy_args fr ss callee params;
        resume c_funcs ld
      in
      match callee with
      | Ir.Func name -> (
          (* direct call: resolve the target once, at compile time *)
          match Vm.callee img name with
          | { tg_kind = Func i; _ } ->
              let fe = img.Vm.im_funcs.(i) in
              let params =
                if nargs = Array.length fe.Vm.fe_params then
                  Array.map (vreg fe.Vm.fe_func) fe.Vm.fe_params
                else [||]
              in
              fun ld ->
                let fr = step ld idx in
                fr.fr_inst <- nexti;
                call ld fr fe params
          | t ->
              fun ld ->
                let fr = step ld idx in
                fr.fr_inst <- nexti;
                Vm.dispatch_call ld t ~argvals:(source_values fr ss) ~rets;
                finish ld fr)
      | op ->
          let ic = ev_int f op in
          fun ld ->
            let fr = step ld idx in
            fr.fr_inst <- nexti;
            let v = ic fr in
            match Vm.target_at ld v with
            | Some { tg_kind = Func i; _ } ->
                call ld fr img.Vm.im_funcs.(i)
                  (Array.unsafe_get c_funcs i).params
            | Some t ->
                Vm.dispatch_call ld t ~argvals:(source_values fr ss) ~rets;
                finish ld fr
            | None ->
                raise
                  (Trap
                     (Runtime_error
                        (Printf.sprintf
                           "indirect call to non-function address 0x%x" v))))

(** Compile a terminator.  [entries.(t)] is the join-point array — the
    head closure of every block of this function, filled after all
    blocks are compiled, so forward branches resolve to closures without
    a compile-order constraint.  [hops.(t)] is the target of block [t]
    when [t] is empty but for a [TJmp], else -1 (see {!goto_h}). *)
let compile_term c_funcs (f : Ir.func) (entries : k array) (hops : int array)
    ~idx (term : Ir.terminator) : k =
  match term with
  | Ir.TRet ops when first_trapping ops <> None ->
      let e = ev_value f (Option.get (first_trapping ops)) in
      fun ld -> ignore (e (step ld idx))
  | Ir.TRet ops ->
      let ss = sources f ops in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        Vm.pop_frame ld;
        (* [fr] is popped but still readable: copy straight into the
           caller's registers, or box for [last_rets] and program exit *)
        (match fr.fr_ret_regs with
        | _ :: _ as regs when st.n_frames > 0 -> copy_rets fr ss 0 ld.cur regs
        | _ -> Vm.return_values ld fr (source_values fr ss));
        (* continue the caller in place, unless it waits in host code *)
        if st.n_frames > st.floor then resume c_funcs ld
  | Ir.TJmp t ->
      let h = hops.(t) in
      fun ld -> goto_h ld (step ld idx) entries t h
  | Ir.TBr (c, t1, t2) when pure_operand c ->
      let s, j = pure_parts f c in
      let h1 = hops.(t1) and h2 = hops.(t2) in
      fun ld ->
        let fr = step ld idx in
        let c = fetch fr s j <> 0 in
        goto_h ld fr entries (if c then t1 else t2) (if c then h1 else h2)
  | Ir.TBr (c, t1, t2) ->
      let ic = ev_int f c in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        charge st Cost.basic;
        let t = if ic fr <> 0 then t1 else t2 in
        fr.fr_block <- t;
        (Array.unsafe_get entries t) ld
  | Ir.TSwitch (v, cases, default) ->
      let iv = ev_int f v in
      fun ld ->
        let fr = step ld idx in
        let st = ld.st in
        charge st (Cost.basic * 2);
        let x = iv fr in
        let rec find = function
          | [] -> default
          | (k, t) :: tl -> if (k : int) = x then t else find tl
        in
        let t = find cases in
        fr.fr_block <- t;
        (Array.unsafe_get entries t) ld
  | Ir.TUnreachable ->
      fun ld ->
        ignore (step ld idx : frame);
        raise (Trap (Runtime_error "unreachable executed (missing return?)"))

(* ------------------------------------------------------------------ *)
(* Superinstructions                                                    *)
(* ------------------------------------------------------------------ *)

(** One closure for the instructions from [i] on, when they form one of
    the shapes that dominate Figure 2's dispatches: a compare and the
    branch on its result; the array-index idiom (an int-to-int cast, a
    multiply, a [Gep], and the load through it if one follows); a [Gep]
    and the load through it; a [Mov] or a [Store] and a [TJmp]; a
    [Check] and the load or store it guards.  [rest d] is the closure
    [d] instructions past [i]; for a shape that ends the block, the
    terminator's work is done here and [entries] and [hops] give the
    branch target.  Each part runs the body its
    plain closure runs, in order; {!tick_fused} counts the later parts
    for the dispatch counter. *)
let fuse (f : Ir.func) (entries : k array) (hops : int array)
    (insts : Ir.inst array) (term : Ir.terminator) i (rest : int -> k) :
    k option =
  let after d =
    if i + d < Array.length insts then Some insts.(i + d) else None
  in
  let pure2 a b = pure_operand a && pure_operand b in
  let int_access t a = int_type t && pure_operand a in
  match (insts.(i), after 1, after 2, term) with
  | Ir.Cmp (r, op, t, a, b), None, _, Ir.TBr (Ir.Reg c, t1, t2)
    when c = r && int_type t && pure2 a b -> (
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      let _, mask = width t in
      let rl, neg = relation op in
      (* branch on the relation itself: a negated compare swaps the
         targets *)
      let t1, t2 = if neg = 1 then (t2, t1) else (t1, t2) in
      let h1 = hops.(t1) and h2 = hops.(t2) in
      let[@inline] branch ld fr c =
        cmp_h ld.st fr r neg c;
        tick_fused ld fr (i + 1);
        goto_h ld fr entries (if c then t1 else t2) (if c then h1 else h2)
      in
      match rl with
      | Eq ->
          Some
            (fun ld ->
              let fr = step ld i in
              branch ld fr
                (fetch fr sa ja land mask = fetch fr sb jb land mask))
      | Lt ->
          Some
            (fun ld ->
              let fr = step ld i in
              branch ld fr
                (fetch fr sa ja land mask < fetch fr sb jb land mask))
      | Le ->
          Some
            (fun ld ->
              let fr = step ld i in
              branch ld fr
                (fetch fr sa ja land mask <= fetch fr sb jb land mask)))
  | ( Ir.Cast (r1, to_, from_, o),
      Some (Ir.Bin (r2, Ir.Mul, t, a, b)),
      Some (Ir.Gep (r3, base, off, _)),
      _ )
    when int_type to_ && int_type from_ && pure_operand o && int_type t
         && pure2 a b && pure2 base off -> (
      let r1 = vreg f r1 and r2 = vreg f r2 and r3 = vreg f r3 in
      let s, j = pure_parts f o in
      let sh1, mask1 = width to_ and sh2, mask2 = width t in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      let sc, jc = pure_parts f base and so, jo = pure_parts f off in
      let[@inline] index ld fr =
        alu_h ld.st fr Cost.basic r1 sh1 mask1 (fetch fr s j);
        tick_fused ld fr (i + 1);
        alu_h ld.st fr Cost.mul r2 sh2 mask2 (fetch fr sa ja * fetch fr sb jb);
        tick_fused ld fr (i + 2);
        gep_h ld.st fr r3 (fetch fr sc jc) (fetch fr so jo)
      in
      match after 3 with
      | Some (Ir.Load (rl, lt, Ir.Reg a)) when a = r3 && int_type lt ->
          (* and the load through the address: [a[i]] in one dispatch *)
          let rl = vreg f rl and size = Ir.ity_size lt and ptr = lt = Ir.P in
          let sh, mask = width lt and next = rest 4 in
          Some
            (fun ld ->
              let fr = step ld i in
              let d = index ld fr in
              tick_fused ld fr (i + 3);
              load_h ld.st fr rl ~size ~sh ~mask ~ptr d;
              next ld)
      | _ ->
          let next = rest 3 in
          Some
            (fun ld ->
              let fr = step ld i in
              ignore (index ld fr : int);
              next ld))
  | Ir.Gep (r, base, off, _), Some (Ir.Load (rl, t, Ir.Reg a)), _, _
    when a = r && pure2 base off && int_type t ->
      let r = vreg f r and rl = vreg f rl in
      let sb, jb = pure_parts f base and so, jo = pure_parts f off in
      let size = Ir.ity_size t and ptr = t = Ir.P and sh, mask = width t in
      let next = rest 2 in
      Some
        (fun ld ->
          let fr = step ld i in
          let d = gep_h ld.st fr r (fetch fr sb jb) (fetch fr so jo) in
          tick_fused ld fr (i + 1);
          load_h ld.st fr rl ~size ~sh ~mask ~ptr d;
          next ld)
  | Ir.Mov (r, _, o), None, _, Ir.TJmp t when pure_operand o ->
      let r = vreg f r and h = hops.(t) in
      let s, j = pure_parts f o in
      Some
        (fun ld ->
          let fr = step ld i in
          mov_h ld.st fr r s j;
          tick_fused ld fr (i + 1);
          goto_h ld fr entries t h)
  | Ir.Store (ty, a, v), None, _, Ir.TJmp t
    when int_access ty a && pure_operand v ->
      let sa, ja = pure_parts f a and sv, jv = pure_parts f v in
      let size = Ir.ity_size ty and ptr = ty = Ir.P and h = hops.(t) in
      Some
        (fun ld ->
          let fr = step ld i in
          store_h ld.st ~size ~ptr (fetch fr sa ja) (fetch fr sv jv);
          tick_fused ld fr (i + 1);
          goto_h ld fr entries t h)
  | Ir.Check (p, b, e, csize, site), Some access, _, _
    when pure2 p b && pure_operand e -> (
      let sp, jp = pure_parts f p in
      let sb, jb = pure_parts f b in
      let se, je = pure_parts f e in
      let where = f.Ir.fname in
      let[@inline] check ld fr =
        sb_check ld.st ~site ~where ~ptr:(fetch fr sp jp) ~base:(fetch fr sb jb)
          ~bound:(fetch fr se je) ~size:csize;
        tick_fused ld fr (i + 1)
      in
      let next = rest 2 in
      match access with
      | Ir.Load (r, t, a) when int_access t a ->
          let r = vreg f r in
          let s, j = pure_parts f a in
          let size = Ir.ity_size t and ptr = t = Ir.P and sh, mask = width t in
          Some
            (fun ld ->
              let fr = step ld i in
              check ld fr;
              load_h ld.st fr r ~size ~sh ~mask ~ptr (fetch fr s j);
              next ld)
      | Ir.Store (t, a, v) when int_access t a && pure_operand v ->
          let sa, ja = pure_parts f a and sv, jv = pure_parts f v in
          let size = Ir.ity_size t and ptr = t = Ir.P in
          Some
            (fun ld ->
              let fr = step ld i in
              check ld fr;
              store_h ld.st ~size ~ptr (fetch fr sa ja) (fetch fr sv jv);
              next ld)
      | _ -> None)
  | _ -> None

let dummy_k : k = fun _ -> assert false

(** Compile [fe]; [c_funcs] is the module's table, still being filled,
    which call and return closures read when they run. *)
let compile_func img c_funcs (fe : Vm.fentry) : func_code =
  let f = fe.Vm.fe_func in
  let nblocks = Array.length fe.Vm.fe_code in
  let entries = Array.make nblocks dummy_k in
  let hops =
    Array.init nblocks (fun b ->
        match (fe.Vm.fe_code.(b), fe.Vm.fe_terms.(b)) with
        | [||], Ir.TJmp u -> u
        | _ -> -1)
  in
  let chains =
    Array.init nblocks (fun b ->
        let insts = fe.Vm.fe_code.(b) and term = fe.Vm.fe_terms.(b) in
        let n = Array.length insts in
        let arr = Array.make (n + 1) dummy_k in
        arr.(n) <- compile_term c_funcs f entries hops ~idx:n term;
        (* fill backward so each closure captures its successor
           directly — the common case never touches an array.  Every
           index keeps an entry, fused or not, for frames that resume
           mid-block. *)
        for i = n - 1 downto 0 do
          arr.(i) <-
            (match fuse f entries hops insts term i (fun d -> arr.(i + d)) with
            | Some k -> k
            | None ->
                compile_inst img c_funcs f ~blk:b ~idx:i arr.(i + 1) insts.(i))
        done;
        arr)
  in
  Array.iteri (fun b chain -> entries.(b) <- chain.(0)) chains;
  { chains; params = Array.map (vreg f) fe.Vm.fe_params }

(* ------------------------------------------------------------------ *)
(* The driver                                                           *)
(* ------------------------------------------------------------------ *)

(** Run the top frame (and everything it calls) until the frame stack
    shrinks back to [depth].  Calls and returns continue in place, so a
    chain comes back here only when a return reaches [depth] (the
    frame below waits in host code) or a longjmp moves control to
    another frame; the loop then re-enters the new top frame at its
    recorded position. *)
let drive comp (ld : Vm.loaded) (depth : int) : unit =
  let st = ld.st in
  let outer = st.floor in
  st.floor <- depth;
  while st.n_frames > depth do
    st.bounces <- st.bounces + 1;
    try resume comp.c_funcs ld with Tick_due -> tick_slow st
  done;
  (* a trap leaves the inner floor behind: higher than the outer one,
     which costs only a driver round trip on a later return *)
  st.floor <- outer

(** Re-entrant call on this engine (installed as {!Vm.loaded.reenter}):
    qsort/bsearch comparators execute compiled chains, not the decode
    loop. *)
let reenter comp (ld : Vm.loaded) (fe : Vm.fentry) (args : value list) :
    value list =
  let st = ld.st in
  let depth = st.n_frames in
  Vm.push_call ld fe args [];
  drive comp ld depth;
  st.last_rets

(* ------------------------------------------------------------------ *)
(* Compiled code on the module image                                    *)
(* ------------------------------------------------------------------ *)

(* Compiled artifacts are pure with respect to the run (see the header
   comment), so each image carries one, compiled on first use and shared
   by every later run of the module on any scheme or domain. *)

let compile_image (img : Vm.image) : compiled =
  let c_funcs =
    Array.make (Array.length img.Vm.im_funcs) { chains = [||]; params = [||] }
  in
  Array.iteri
    (fun i fe -> c_funcs.(i) <- compile_func img c_funcs fe)
    img.Vm.im_funcs;
  { c_funcs }

let compiled_for (ld : Vm.loaded) : compiled =
  match
    Vm.attached_code ld.Vm.img (fun () -> Compiled (compile_image ld.Vm.img))
  with
  | Compiled c -> c
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Entry points                                                         *)
(* ------------------------------------------------------------------ *)

(** Attach the compiled code for [ld]'s module image (compiling on first
    sight) and install the re-entry hook. *)
let attach (ld : Vm.loaded) : compiled =
  let comp = compiled_for ld in
  ld.Vm.reenter <- Some (fun ld fe args -> reenter comp ld fe args);
  comp

let run_to_completion comp (ld : Vm.loaded) : int =
  try
    drive comp ld 0;
    0
  with Vm.Program_exit n -> n

(** {!Vm.run_main} on the threaded-code engine. *)
let run_main (ld : Vm.loaded) : outcome =
  let comp = attach ld in
  Vm.run_main ~exec:(run_to_completion comp) ld

(** Load and run a module to completion on the threaded-code engine. *)
let run ?(cfg = default_config) (m : Ir.modul) : Vm.result =
  let ld = Vm.create ~cfg m in
  Vm.finish ld (run_main ld)
