(* Threaded-code engine: a compiler, run once per module image, from
   each basic block of the pre-decoded IR to a chain of OCaml closures.

   Executing a block is a tail-call chain with no constructor dispatch:
   each closure captures its resolved operands and call-target
   resolution as preallocated state, and ends by tail-calling the next
   closure (a 2-argument application, which the native compiler turns
   into a real jump through [caml_apply2]).  Control flow links blocks through a per-function
   join-point array resolved at compile time.  Calls and returns are
   tail calls too: a call pushes the callee's frame and enters its
   chain, a return pops and continues the caller where it left off, so
   the driver loop below regains control only when a return reaches a
   frame waiting in host code (a qsort comparator's caller) or a
   longjmp moves control to another frame.

   Invariant: every simulated output — cycles, instruction counts,
   cache traffic, metadata probes, obs attribution, trap identity and
   ordering — is bit-identical to the reference decode loop's
   ({!Vm.run_until_done}).  Each compiled closure performs the same
   accounting in the same order as the corresponding {!Vm.exec_inst}
   arm; the cross-engine suite (test/test_engines.ml) and the shared
   goldens pin this.

   The compiled artifact captures no per-run state: closures take the
   [(loaded, frame)] pair as arguments, and what they close over —
   pre-decoded [fentry] values, join-point arrays, constants — is
   immutable or race-safe.  Artifacts are therefore attached to the
   module image ({!Vm.image}) and shared across runs, configurations,
   and domains. *)

module Ir = Sbir.Ir
open State
open Vm
module L = Machine.Layout
module Cost = Machine.Cost

(** A compiled instruction: execute it (and, inline, whatever follows it
    up to the next frame boundary) against the given run. *)
type k = Vm.loaded -> frame -> unit

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

(* identical counters in identical order to the decoding engine's step
   loop, so [Step_limit] fires at exactly the same instruction — and the
   poll hook observes the same step counts on both engines *)
let[@inline] tick st =
  st.steps <- st.steps + 1;
  if st.steps > st.cfg.max_steps then raise (Trap Step_limit);
  (match st.cfg.poll with
  | Some p when st.steps land poll_mask = 0 -> p ()
  | _ -> ());
  st.stats.insts <- st.stats.insts + 1

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

(** Continue frame [fr] at its recorded position. *)
let[@inline] resume (c_funcs : func_code array) ld (fr : frame) =
  (Array.unsafe_get
     (Array.unsafe_get (Array.unsafe_get c_funcs fr.fr_index).chains
        fr.fr_block)
     fr.fr_inst)
    ld fr

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
  | Ir.Mov (r, _, Ir.Reg ra) ->
      (* register-to-register: copy both lanes and the tag — no box, no
         coercion branch *)
      let r = vreg f r in
      let ra = vreg f ra in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        Bytes.unsafe_set fr.fr_isf r (Bytes.unsafe_get fr.fr_isf ra);
        Array.unsafe_set fr.fr_iregs r (Array.unsafe_get fr.fr_iregs ra);
        Array.unsafe_set fr.fr_fregs r (Array.unsafe_get fr.fr_fregs ra);
        next ld fr
  | Ir.Mov (r, _, Ir.ImmI n) ->
      let r = vreg f r in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        ureg_set_int fr r n;
        next ld fr
  | Ir.Mov (r, _, Ir.ImmF x) ->
      let r = vreg f r in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        ureg_set_float fr r x;
        next ld fr
  | Ir.Mov (r, _, o) ->
      let r = vreg f r in
      let e = ev_value f o in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        ureg_set fr r (e fr);
        next ld fr
  | Ir.Bin (r, op, t, a, b)
    when (match t with Ir.I64 | Ir.U64 | Ir.P -> true | _ -> false)
         && pure_operand a && pure_operand b -> (
      (* word-width integer ALU ops: [norm_int] is the identity, the
         unsigned view is the identity, and the operands are effect-free
         — fuse evaluation, charge, and normalization *)
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      let signed = Ir.ity_signed t in
      match op with
      | Ir.Add ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja + fetch fr sb jb);
            next ld fr
      | Ir.Sub ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja - fetch fr sb jb);
            next ld fr
      | Ir.Mul ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.mul;
            ureg_set_int fr r (fetch fr sa ja * fetch fr sb jb);
            next ld fr
      | Ir.And ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja land fetch fr sb jb);
            next ld fr
      | Ir.Or ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja lor fetch fr sb jb);
            next ld fr
      | Ir.Xor ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja lxor fetch fr sb jb);
            next ld fr
      | Ir.Shl ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja lsl (fetch fr sb jb land 63));
            next ld fr
      | Ir.Shr ->
          if signed then fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja asr (fetch fr sb jb land 63));
            next ld fr
          else fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (fetch fr sa ja lsr (fetch fr sb jb land 63));
            next ld fr
      | Ir.Div | Ir.Rem ->
          (* division traps on zero; delegate to the shared unboxed
             helper for the charge/trap sequence *)
          fun ld fr ->
            let st = ld.st in
            tick st;
            ureg_set_int fr r
              (Vm.exec_bin_int st op t (fetch fr sa ja) (fetch fr sb jb));
            next ld fr)
  | Ir.Bin (r, op, t, a, b)
    when (not (Ir.ity_is_float t)) && pure_operand a && pure_operand b ->
      (* narrow integer types: [norm_int]/unsigned views matter, so go
         through the unboxed ALU helper — still no operand closures and
         no boxing *)
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_int fr r
          (Vm.exec_bin_int st op t (fetch fr sa ja) (fetch fr sb jb));
        next ld fr
  | Ir.Bin (r, op, t, a, b)
    when Ir.ity_is_float t && pure_operand_f a && pure_operand_f b ->
      let r = vreg f r in
      let sa, ja = pure_parts_f f a and sb, jb = pure_parts_f f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_float fr r
          (Vm.exec_bin_float st op (fetchf fr sa ja) (fetchf fr sb jb));
        next ld fr
  | Ir.Bin (r, op, t, a, b) ->
      let r = vreg f r in
      let ea = ev_value f a and eb = ev_value f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        (* mirror the decoding engine's right-to-left argument
           evaluation, so a trapping operand charges identically *)
        let vb = eb fr in
        let va = ea fr in
        ureg_set fr r (Vm.exec_bin st op t va vb);
        next ld fr
  | Ir.Cmp (r, op, t, a, b)
    when (match t with
         | Ir.I8 | Ir.I16 | Ir.I32 | Ir.I64 | Ir.U64 | Ir.P -> true
         | _ -> false)
         && pure_operand a && pure_operand b -> (
      (* signed types compare raw normalized values; for U64/P the
         unsigned view is the identity — either way a direct native
         comparison matches {!Vm.exec_cmp} *)
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      match op with
      | Ir.Ceq ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (if fetch fr sa ja = fetch fr sb jb then 1 else 0);
            next ld fr
      | Ir.Cne ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r
              (if fetch fr sa ja <> fetch fr sb jb then 1 else 0);
            next ld fr
      | Ir.Clt ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (if fetch fr sa ja < fetch fr sb jb then 1 else 0);
            next ld fr
      | Ir.Cle ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r
              (if fetch fr sa ja <= fetch fr sb jb then 1 else 0);
            next ld fr
      | Ir.Cgt ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r (if fetch fr sa ja > fetch fr sb jb then 1 else 0);
            next ld fr
      | Ir.Cge ->
          fun ld fr ->
            let st = ld.st in
            tick st;
            charge st Cost.basic;
            ureg_set_int fr r
              (if fetch fr sa ja >= fetch fr sb jb then 1 else 0);
            next ld fr)
  | Ir.Cmp (r, op, t, a, b)
    when (not (Ir.ity_is_float t)) && pure_operand a && pure_operand b ->
      (* remaining (narrow unsigned) integer types: the shared unboxed
         helper applies the unsigned view *)
      let r = vreg f r in
      let sa, ja = pure_parts f a and sb, jb = pure_parts f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_int fr r
          (Vm.exec_cmp_int st op t (fetch fr sa ja) (fetch fr sb jb));
        next ld fr
  | Ir.Cmp (r, op, t, a, b)
    when Ir.ity_is_float t && pure_operand_f a && pure_operand_f b ->
      let r = vreg f r in
      let sa, ja = pure_parts_f f a and sb, jb = pure_parts_f f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_int fr r
          (Vm.exec_cmp_float st op (fetchf fr sa ja) (fetchf fr sb jb));
        next ld fr
  | Ir.Cmp (r, op, t, a, b) ->
      let r = vreg f r in
      let ea = ev_value f a and eb = ev_value f b in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let vb = eb fr in
        let va = ea fr in
        ureg_set fr r (Vm.exec_cmp st op t va vb);
        next ld fr
  | Ir.Cast (r, to_, from_, o)
    when (not (Ir.ity_is_float to_))
         && (not (Ir.ity_is_float from_))
         && pure_operand o ->
      (* int-to-int cast is charge + renormalize *)
      let r = vreg f r in
      let s, j = pure_parts f o in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        ureg_set_int fr r (Ir.norm_int to_ (fetch fr s j));
        next ld fr
  | Ir.Cast (r, to_, from_, o) ->
      let r = vreg f r in
      let e = ev_value f o in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set fr r (Vm.exec_cast st to_ from_ (e fr));
        next ld fr
  | Ir.Load (r, t, a) when (not (Ir.ity_is_float t)) && pure_operand a ->
      let r = vreg f r in
      let s, j = pure_parts f a in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_int fr r (Vm.do_load_int st t (fetch fr s j));
        next ld fr
  | Ir.Load (r, t, a) when Ir.ity_is_float t && pure_operand a ->
      let r = vreg f r in
      let s, j = pure_parts f a in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set_float fr r (Vm.do_load_float st t (fetch fr s j));
        next ld fr
  | Ir.Load (r, t, a) ->
      let r = vreg f r in
      let ia = ev_int f a in
      fun ld fr ->
        let st = ld.st in
        tick st;
        ureg_set fr r (Vm.do_load st t (ia fr));
        next ld fr
  | Ir.Store (t, a, v)
    when (not (Ir.ity_is_float t)) && pure_operand a && pure_operand v ->
      let sa, ja = pure_parts f a and sv, jv = pure_parts f v in
      fun ld fr ->
        let st = ld.st in
        tick st;
        Vm.do_store_int st t (fetch fr sa ja) (fetch fr sv jv);
        next ld fr
  | Ir.Store (t, a, v)
    when Ir.ity_is_float t && pure_operand a && pure_operand_f v ->
      let sa, ja = pure_parts f a and sv, jv = pure_parts_f f v in
      fun ld fr ->
        let st = ld.st in
        tick st;
        Vm.do_store_float st t (fetch fr sa ja) (fetchf fr sv jv);
        next ld fr
  | Ir.Store (t, a, v) ->
      let ia = ev_int f a and ev = ev_value f v in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let vv = ev fr in
        let addr = ia fr in
        Vm.do_store st t addr vv;
        next ld fr
  | Ir.Gep (r, base, off, _) when pure_operand base && pure_operand off ->
      let r = vreg f r in
      let sb, jb = pure_parts f base and so, jo = pure_parts f off in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        let b = fetch fr sb jb in
        let d = b + fetch fr so jo in
        (match st.cfg.checker with
        | Some _ -> checker_event st (Ev_ptr_arith { src = b; dst = d })
        | None -> ());
        ureg_set_int fr r d;
        next ld fr
  | Ir.Gep (r, base, off, _) ->
      let r = vreg f r in
      let ib = ev_int f base and io = ev_int f off in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        let b = ib fr in
        let d = b + io fr in
        (match st.cfg.checker with
        | Some _ -> checker_event st (Ev_ptr_arith { src = b; dst = d })
        | None -> ());
        ureg_set_int fr r d;
        next ld fr
  | Ir.Slotaddr (r, s) ->
      let r = vreg f r in
      (* the slot address is a per-function constant offset from the
         frame pointer *)
      let off = -16 - f.Ir.fframe_size + f.Ir.fslots.(s).Ir.sl_offset in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.alloca;
        ureg_set_int fr r (fr.fr_fp + off);
        next ld fr
  | Ir.SetBoundMark _ ->
      fun ld fr ->
        tick ld.st;
        next ld fr
  | Ir.Check (p, b, e, size, site)
    when pure_operand p && pure_operand b && pure_operand e ->
      let sp, jp = pure_parts f p in
      let sb, jb = pure_parts f b in
      let se, je = pure_parts f e in
      let where = f.Ir.fname in
      fun ld fr ->
        let st = ld.st in
        tick st;
        sb_check st ~site ~where ~ptr:(fetch fr sp jp) ~base:(fetch fr sb jb)
          ~bound:(fetch fr se je) ~size;
        next ld fr
  | Ir.Check (p, b, e, size, site) ->
      let ip = ev_int f p and ib = ev_int f b and ie = ev_int f e in
      let where = f.Ir.fname in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let bnd = ie fr in
        let bas = ib fr in
        let pv = ip fr in
        sb_check st ~site ~where ~ptr:pv ~base:bas ~bound:bnd ~size;
        next ld fr
  | Ir.CheckSpan sp ->
      let ifirst = ev_int f sp.Ir.sp_first in
      let icount = ev_int f sp.Ir.sp_count in
      let ibase = ev_int f sp.Ir.sp_base in
      let ibound = ev_int f sp.Ir.sp_bound in
      let stride = sp.Ir.sp_stride and width = sp.Ir.sp_width in
      let site = sp.Ir.sp_site and sites = sp.Ir.sp_sites in
      let where = f.Ir.fname in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let bound = ibound fr in
        let base = ibase fr in
        let count = icount fr in
        let first = ifirst fr in
        sb_check_span st ~site ~sites ~where ~first ~count ~stride ~width
          ~base ~bound;
        next ld fr
  | Ir.CheckFptr (p, b, e, expected_sig, site)
    when pure_operand p && pure_operand b && pure_operand e ->
      let sp, jp = pure_parts f p in
      let sb, jb = pure_parts f b in
      let se, je = pure_parts f e in
      let fname = f.Ir.fname in
      fun ld fr ->
        let st = ld.st in
        tick st;
        st.stats.checks <- st.stats.checks + 1;
        let cy0 = st.stats.cycles in
        charge st Cost.check;
        Vm.check_fptr ld ~fname ~site ~expected_sig ~cy0 (fetch fr sp jp)
          (fetch fr sb jb) (fetch fr se je);
        next ld fr
  | Ir.CheckFptr (p, b, e, expected_sig, site) ->
      let ip = ev_int f p and ib = ev_int f b and ie = ev_int f e in
      let fname = f.Ir.fname in
      fun ld fr ->
        let st = ld.st in
        tick st;
        st.stats.checks <- st.stats.checks + 1;
        let cy0 = st.stats.cycles in
        charge st Cost.check;
        let pv = ip fr in
        let bv = ib fr in
        let ev = ie fr in
        Vm.check_fptr ld ~fname ~site ~expected_sig ~cy0 pv bv ev;
        next ld fr
  | Ir.MetaLoad (rb, re, a, site) when pure_operand a ->
      let rb = vreg f rb and re = vreg f re in
      let sa, ja = pure_parts f a in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let b, e = meta_load ~site st (fetch fr sa ja) in
        ureg_set_int fr rb b;
        ureg_set_int fr re e;
        next ld fr
  | Ir.MetaLoad (rb, re, a, site) ->
      let rb = vreg f rb and re = vreg f re in
      let ia = ev_int f a in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let b, e = meta_load ~site st (ia fr) in
        ureg_set_int fr rb b;
        ureg_set_int fr re e;
        next ld fr
  | Ir.MetaStore (a, b, e, site)
    when pure_operand a && pure_operand b && pure_operand e ->
      let sa, ja = pure_parts f a in
      let sb, jb = pure_parts f b in
      let se, je = pure_parts f e in
      fun ld fr ->
        let st = ld.st in
        tick st;
        meta_store ~site st (fetch fr sa ja) (fetch fr sb jb) (fetch fr se je);
        next ld fr
  | Ir.MetaStore (a, b, e, site) ->
      let ia = ev_int f a and ib = ev_int f b and ie = ev_int f e in
      fun ld fr ->
        let st = ld.st in
        tick st;
        let ev = ie fr in
        let bv = ib fr in
        let av = ia fr in
        meta_store ~site st av bv ev;
        next ld fr
  | Ir.Call { args; _ } when first_trapping args <> None ->
      (* arguments are evaluated before anything else of the call
         happens, so the first unresolved name traps first *)
      let e = ev_value f (Option.get (first_trapping args)) in
      let nexti = idx + 1 in
      fun ld fr ->
        tick ld.st;
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
        let st = ld.st in
        if
          st.n_frames > 0 && top st == fr && fr.fr_block = blk
          && fr.fr_inst = nexti
        then next ld fr
      in
      (* a module function: push its frame, copy the arguments into it
         and tail-call its entry — no value list, no driver round trip.
         An arity mismatch traps in [push_frame] before any argument
         moves. *)
      let call ld fr fe params =
        let callee = Vm.push_frame ld fe ~nargs rets in
        copy_args fr ss callee params;
        resume c_funcs ld callee
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
              fun ld fr ->
                tick ld.st;
                fr.fr_inst <- nexti;
                call ld fr fe params
          | t ->
              fun ld fr ->
                tick ld.st;
                fr.fr_inst <- nexti;
                Vm.dispatch_call ld t ~argvals:(source_values fr ss) ~rets;
                finish ld fr)
      | op ->
          let ic = ev_int f op in
          fun ld fr ->
            tick ld.st;
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
    a compile-order constraint. *)
let compile_term c_funcs (f : Ir.func) (entries : k array)
    (term : Ir.terminator) : k =
  match term with
  | Ir.TRet ops when first_trapping ops <> None ->
      let e = ev_value f (Option.get (first_trapping ops)) in
      fun ld fr ->
        tick ld.st;
        ignore (e fr)
  | Ir.TRet ops ->
      let ss = sources f ops in
      fun ld fr ->
        let st = ld.st in
        tick st;
        Vm.pop_frame ld;
        (* [fr] is popped but still readable: copy straight into the
           caller's registers, or box for [last_rets] and program exit *)
        (match fr.fr_ret_regs with
        | _ :: _ as regs when st.n_frames > 0 -> copy_rets fr ss 0 (top st) regs
        | _ -> Vm.return_values ld fr (source_values fr ss));
        (* continue the caller in place, unless it waits in host code *)
        if st.n_frames > st.floor then resume c_funcs ld (top st)
  | Ir.TJmp t ->
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        fr.fr_block <- t;
        (Array.unsafe_get entries t) ld fr
  | Ir.TBr (c, t1, t2) when pure_operand c ->
      let s, j = pure_parts f c in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        let t = if fetch fr s j <> 0 then t1 else t2 in
        fr.fr_block <- t;
        (Array.unsafe_get entries t) ld fr
  | Ir.TBr (c, t1, t2) ->
      let ic = ev_int f c in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st Cost.basic;
        let t = if ic fr <> 0 then t1 else t2 in
        fr.fr_block <- t;
        (Array.unsafe_get entries t) ld fr
  | Ir.TSwitch (v, cases, default) ->
      let iv = ev_int f v in
      fun ld fr ->
        let st = ld.st in
        tick st;
        charge st (Cost.basic * 2);
        let x = iv fr in
        let rec find = function
          | [] -> default
          | (k, t) :: tl -> if (k : int) = x then t else find tl
        in
        let t = find cases in
        fr.fr_block <- t;
        (Array.unsafe_get entries t) ld fr
  | Ir.TUnreachable ->
      fun ld _ ->
        tick ld.st;
        raise (Trap (Runtime_error "unreachable executed (missing return?)"))

let dummy_k : k = fun _ _ -> assert false

(** Compile [fe]; [c_funcs] is the module's table, still being filled,
    which call and return closures read when they run. *)
let compile_func img c_funcs (fe : Vm.fentry) : func_code =
  let f = fe.Vm.fe_func in
  let nblocks = Array.length fe.Vm.fe_code in
  let entries = Array.make nblocks dummy_k in
  let chains =
    Array.init nblocks (fun b ->
        let insts = fe.Vm.fe_code.(b) in
        let n = Array.length insts in
        let arr = Array.make (n + 1) dummy_k in
        arr.(n) <- compile_term c_funcs f entries fe.Vm.fe_terms.(b);
        (* fill backward so each closure captures its successor
           directly — the common case never touches an array *)
        for i = n - 1 downto 0 do
          arr.(i) <- compile_inst img c_funcs f ~blk:b ~idx:i arr.(i + 1) insts.(i)
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
    resume comp.c_funcs ld (top st)
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
