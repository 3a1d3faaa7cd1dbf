(* The SoftBound compile-time transformation (paper section 3).

   An IR-to-IR pass.  For every function it:

   1. renames the function to [_sb_<name>] and appends base/bound
      parameters for each pointer parameter (and extends pointer-returning
      functions to return a (pointer, base, bound) triple) — section 3.3;
   2. associates two metadata registers with every pointer-valued virtual
      register, propagating them through moves, pointer arithmetic
      ([Gep]), loads (disjoint-metadata-space lookup) and stores (space
      update) — sections 3.1 and 3.2;
   3. inserts a bounds [Check] before every load and store (full mode) or
      before stores only (store-only mode), skipping provably-safe direct
      accesses to scalar stack slots and scalar globals (the paper
      likewise exempts scalar locals / register spills);
   4. rewrites call sites: direct callees get the [_sb_] name, pointer
      arguments carry their metadata, indirect calls are preceded by the
      function-pointer check (base = bound = ptr, section 5.2);
   5. narrows bounds at struct-field address creation (section 3.1);
   6. emits the synthetic [__sb_global_init] that installs metadata for
      statically initialized pointer globals (section 5.2);
   7. clears stale metadata of pointer-holding stack slots on return and
      selects the metadata-clearing [free] wrapper for pointer-bearing
      heap types (section 5.2).

   A metadata-liveness pre-pass avoids materializing metadata that no
   check, call, return or pointer store can ever observe — the kind of
   cleanup the paper gets from re-running LLVM's optimizers over the
   instrumented code (section 6.1). *)

module Ir = Sbir.Ir
open Ir

let sb_prefix = "_sb_"
let sb_name n = sb_prefix ^ n
let global_init_name = "__sb_global_init"

(* ------------------------------------------------------------------ *)
(* Per-function transformation context                                  *)
(* ------------------------------------------------------------------ *)

type fctx = {
  opts : Config.options;
  defined : (string, unit) Hashtbl.t;  (** functions defined in the module *)
  mutable nregs : int;
  meta : (reg, reg * reg) Hashtbl.t;  (** pointer reg -> (base, bound) regs *)
  needed : bool array;  (** metadata-liveness, indexed by original reg *)
  slot_direct : bool array;
      (** regs that always hold a raw [Slotaddr] result (accesses through
          them are compile-time safe, like scalar locals) *)
  sites : int ref;
      (** module-wide instrumentation-site counter, shared across
          functions; ids are assigned in emission order {e before} any
          elimination runs, so the numbering is identical whether or not
          [eliminate_checks] is on — which is what lets observers
          compute "elided = assigned minus surviving" *)
}

let fresh ctx =
  let r = ctx.nregs in
  ctx.nregs <- r + 1;
  r

let next_site ctx =
  incr ctx.sites;
  !(ctx.sites)

let meta_regs ctx r =
  match Hashtbl.find_opt ctx.meta r with
  | Some p -> p
  | None ->
      let rb = fresh ctx in
      let re = fresh ctx in
      Hashtbl.replace ctx.meta r (rb, re);
      (rb, re)

(** Metadata operands for a pointer-valued operand (section 3.1):
    globals get their static extent, function designators get the
    base = bound = ptr encoding, integer constants get null bounds. *)
let meta_of_operand ctx (o : operand) : operand * operand =
  match o with
  | Reg r ->
      let rb, re = meta_regs ctx r in
      (Reg rb, Reg re)
  | Glob g -> (Glob g, GlobEnd g)
  | GlobEnd g -> (GlobEnd g, GlobEnd g)
  | Func f -> (Func f, Func f)
  | ImmI _ | ImmF _ -> (ImmI 0, ImmI 0)

(* ------------------------------------------------------------------ *)
(* Pass 0: which registers always hold raw slot addresses?              *)
(* ------------------------------------------------------------------ *)

let compute_slot_direct (f : func) : bool array =
  let direct = Array.make (max 1 f.fnregs) false in
  let defined_other = Array.make (max 1 f.fnregs) false in
  Array.iter
    (fun b ->
      List.iter
        (fun inst ->
          match inst with
          | Slotaddr (r, _) -> direct.(r) <- true
          | Mov (r, _, _) | Bin (r, _, _, _, _) | Cmp (r, _, _, _, _)
          | Cast (r, _, _, _) | Load (r, _, _) | Gep (r, _, _, _) ->
              defined_other.(r) <- true
          | MetaLoad (r1, r2, _, _) ->
              defined_other.(r1) <- true;
              defined_other.(r2) <- true
          | Call { rets; _ } ->
              List.iter (fun r -> defined_other.(r) <- true) rets
          | Store _ | SetBoundMark _ | Check _ | CheckFptr _ | MetaStore _
          | CheckSpan _ ->
              ())
        b.insts)
    f.fblocks;
  Array.mapi (fun i d -> d && not defined_other.(i)) direct

(* ------------------------------------------------------------------ *)
(* Pass 1: metadata liveness                                            *)
(* ------------------------------------------------------------------ *)

(** Does this access get a bounds check?  Direct slot addresses and bare
    globals are compile-time safe. *)
let access_checked (slot_direct : bool array) (addr : operand) =
  match addr with
  | Reg r -> not slot_direct.(r)
  | Glob _ | GlobEnd _ -> false
  | Func _ -> true
  | ImmI _ | ImmF _ -> true

let compute_needed (opts : Config.options) (f : func)
    (slot_direct : bool array) : bool array =
  if not opts.Config.prune_liveness then Array.make (max 1 f.fnregs) true
  else
  let needed = Array.make (max 1 f.fnregs) false in
  let changed = ref true in
  let mark_track o =
    match o with
    | Reg r when not needed.(r) ->
        needed.(r) <- true;
        changed := true
    | _ -> ()
  in
  (* seed and propagate to fixpoint *)
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        List.iter
          (fun inst ->
            match inst with
            | Store (t, addr, v) ->
                (* pointer stores update the metadata space *)
                if t = P then mark_track v;
                (* checked accesses consume the address's metadata *)
                if access_checked slot_direct addr then mark_track addr
            | Load (_, _, addr) ->
                if
                  opts.Config.mode = Config.Full_checking
                  && access_checked slot_direct addr
                then mark_track addr
            | Call { callee; sg; args; _ } ->
                (match callee with
                | Func _ -> ()
                | o -> mark_track o (* function-pointer check *));
                List.iteri
                  (fun i a ->
                    match List.nth_opt sg.cargs i with
                    | Some P -> mark_track a
                    | _ -> ())
                  args
            | SetBoundMark _ -> ()
            | Mov (d, P, s) -> if needed.(d) then mark_track s
            | Gep (d, s, _, shrink) ->
                let independent =
                  shrink <> None && opts.Config.shrink_bounds
                in
                if needed.(d) && not independent then mark_track s
            | _ -> ())
          b.insts;
        match b.term with
        | TRet ops ->
            List.iteri
              (fun i o ->
                match List.nth_opt f.frets i with
                | Some P -> mark_track o
                | _ -> ())
              ops
        | _ -> ())
      f.fblocks
  done;
  needed

(* ------------------------------------------------------------------ *)
(* Pass 2: rewriting                                                    *)
(* ------------------------------------------------------------------ *)

(** Rewrite function-designator operands to their transformed names. *)
let rw_op (o : operand) : operand =
  match o with Func f -> Func (sb_name f) | o -> o

(** Emit metadata propagation for a pointer write to [dst] from source
    metadata operands. *)
let propagate ctx dst (bop, eop) acc =
  if dst < Array.length ctx.needed && not ctx.needed.(dst) then acc
  else begin
    let rb, re = meta_regs ctx dst in
    Mov (re, P, eop) :: Mov (rb, P, bop) :: acc
  end

let transform_inst ctx (f : func) (inst : inst) (acc : inst list) : inst list =
  let opts = ctx.opts in
  let full = opts.Config.mode = Config.Full_checking in
  (* function-designator operands must point at the transformed code —
     everywhere, including casts, comparisons and stored values; the
     [Call] case handles its own callee (wrapper-variant selection) *)
  let inst =
    match inst with Call _ -> inst | i -> map_inst_operands rw_op i
  in
  match inst with
  | Mov (r, P, s) ->
      let acc = Mov (r, P, s) :: acc in
      propagate ctx r (meta_of_operand ctx s) acc
  | Mov _ -> inst :: acc
  | Bin _ | Cmp _ -> inst :: acc
  | Cast (r, P, _, _) ->
      (* integer-to-pointer: null bounds (section 5.2) *)
      let acc = inst :: acc in
      propagate ctx r (ImmI 0, ImmI 0) acc
  | Cast _ -> inst :: acc
  | Slotaddr (r, s) ->
      let acc = inst :: acc in
      if ctx.needed.(r) then begin
        let size = f.fslots.(s).sl_size in
        let rb, re = meta_regs ctx r in
        Bin (re, Add, P, Reg r, ImmI size) :: Mov (rb, P, Reg r) :: acc
      end
      else acc
  | Gep (r, base, off, shrink) ->
      let acc = Gep (r, base, off, shrink) :: acc in
      if r < Array.length ctx.needed && not ctx.needed.(r) then acc
      else begin
        match shrink with
        | Some size when opts.Config.shrink_bounds ->
            (* pointer to a sub-object: bounds narrow to the field *)
            let rb, re = meta_regs ctx r in
            Bin (re, Add, P, Reg r, ImmI size) :: Mov (rb, P, Reg r) :: acc
        | _ -> propagate ctx r (meta_of_operand ctx base) acc
      end
  | Load (r, t, addr) ->
      let acc =
        if full && access_checked ctx.slot_direct addr then
          let b, e = meta_of_operand ctx addr in
          Check (addr, b, e, ity_size t, next_site ctx) :: acc
        else acc
      in
      let acc = Load (r, t, addr) :: acc in
      if t = P && ctx.needed.(r) then begin
        let rb, re = meta_regs ctx r in
        MetaLoad (rb, re, addr, next_site ctx) :: acc
      end
      else acc
  | Store (t, addr, v) ->
      let acc =
        if access_checked ctx.slot_direct addr then
          let b, e = meta_of_operand ctx addr in
          Check (addr, b, e, ity_size t, next_site ctx) :: acc
        else acc
      in
      let acc = Store (t, addr, v) :: acc in
      if t = P then begin
        let b, e = meta_of_operand ctx v in
        MetaStore (addr, b, e, next_site ctx) :: acc
      end
      else acc
  | SetBoundMark (addr, size) ->
      (* setbound(p, n): reload the pointer and install [p, p+n) *)
      let p = fresh ctx in
      let e = fresh ctx in
      MetaStore (addr, Reg p, Reg e, next_site ctx)
      :: Bin (e, Add, P, Reg p, size)
      :: Load (p, P, addr)
      :: acc
  | Call { rets; callee; sg; hints; args } ->
      (* metadata for each pointer argument, appended in order *)
      let extra =
        List.concat
          (List.mapi
             (fun i a ->
               match List.nth_opt sg.cargs i with
               | Some P ->
                   let b, e = meta_of_operand ctx (rw_op a) in
                   [ b; e ]
               | _ -> [])
             args)
      in
      let args = List.map rw_op args @ extra in
      let cargs = sg.cargs @ List.map (fun _ -> P) extra in
      (* pointer-returning calls yield a (ptr, base, bound) triple *)
      let rets, crets =
        match (rets, sg.crets) with
        | [ r ], [ P ] ->
            let rb, re = meta_regs ctx r in
            ([ r; rb; re ], [ P; P; P ])
        | rs, cs -> (rs, cs)
      in
      let sg = { cargs; crets; cvariadic = sg.cvariadic } in
      let acc, callee =
        match callee with
        | Func g ->
            let g =
              if Hashtbl.mem ctx.defined g then sb_name g
              else
                (* external/builtin: checked wrapper, with the memcpy and
                   free variants chosen from the lowering hints *)
                match g with
                | "memcpy" | "memmove"
                  when opts.Config.memcpy_heuristic
                       && List.mem "memcpy-noptr" hints ->
                    sb_name (g ^ "_nometa")
                | "free"
                  when opts.Config.clear_free_meta
                       && List.mem "free-withmeta" hints ->
                    sb_name "free_withmeta"
                | g -> sb_name g
            in
            (acc, Func g)
        | op ->
            let op = rw_op op in
            let b, e = meta_of_operand ctx op in
            let h =
              if opts.Config.fptr_signatures then Some (sig_hash sg)
              else None
            in
            (CheckFptr (op, b, e, h, next_site ctx) :: acc, op)
      in
      Call { rets; callee; sg; hints; args } :: acc
  | Check _ | CheckFptr _ | MetaLoad _ | MetaStore _ | CheckSpan _ ->
      (* idempotence guard: transforming already-transformed code is a
         programming error *)
      invalid_arg "Transform: module already instrumented"

(** Metadata-clearing sequence for pointer-holding stack slots, emitted
    before each return (section 5.2, "Memory reuse and stale metadata"):
    a later frame reusing the slot must not inherit a dead pointer's
    bounds. *)
let clear_stack_meta ctx (f : func) : inst list =
  List.concat
    (List.mapi
       (fun si (sl : slot) ->
         List.concat_map
           (fun off ->
             let a = fresh ctx in
             if off = 0 then
               [
                 Slotaddr (a, si);
                 MetaStore (Reg a, ImmI 0, ImmI 0, next_site ctx);
               ]
             else begin
               let a2 = fresh ctx in
               [
                 Slotaddr (a, si);
                 Gep (a2, Reg a, ImmI off, None);
                 MetaStore (Reg a2, ImmI 0, ImmI 0, next_site ctx);
               ]
             end)
           sl.sl_ptr_offsets)
       (Array.to_list f.fslots))

let transform_term ctx (f : func) (term : terminator) :
    inst list * terminator =
  let term = map_term_operands rw_op term in
  match term with
  | TRet ops ->
      let clear = clear_stack_meta ctx f in
      let ops = List.map rw_op ops in
      let ops =
        match (ops, f.frets) with
        | [ p ], [ P ] ->
            let b, e = meta_of_operand ctx p in
            [ p; b; e ]
        | ops, _ -> ops
      in
      (clear, TRet ops)
  | t -> ([], t)

let transform_func (opts : Config.options) defined sites (f : func) : func =
  let slot_direct = compute_slot_direct f in
  let needed = compute_needed opts f slot_direct in
  let ctx =
    {
      opts;
      defined;
      nregs = f.fnregs;
      meta = Hashtbl.create 32;
      needed;
      slot_direct;
      sites;
    }
  in
  (* pointer parameters: their metadata arrives as appended parameters *)
  let meta_params =
    List.concat_map
      (fun (r, t) ->
        if t = P then begin
          let rb, re = meta_regs ctx r in
          [ (rb, P); (re, P) ]
        end
        else [])
      f.fparams
  in
  let fblocks =
    Array.map
      (fun b ->
        let insts =
          List.rev (List.fold_left (fun acc i -> transform_inst ctx f i acc)
                      [] b.insts)
        in
        let pre_ret, term = transform_term ctx f b.term in
        { insts = insts @ pre_ret; term })
      f.fblocks
  in
  let frets = match f.frets with [ P ] -> [ P; P; P ] | r -> r in
  {
    f with
    fname = sb_name f.fname;
    fparams = f.fparams @ meta_params;
    frets;
    fblocks;
    fnregs = ctx.nregs;
  }

(* ------------------------------------------------------------------ *)
(* Global metadata initializer (section 5.2, "Global variables")        *)
(* ------------------------------------------------------------------ *)

let build_global_init (m : modul) sites : func * global list =
  let nregs = ref 0 in
  let fresh () =
    let r = !nregs in
    incr nregs;
    r
  in
  let next_site () =
    incr sites;
    !sites
  in
  let insts = ref [] in
  let globals =
    List.map
      (fun g ->
        let ginit =
          List.map
            (fun (off, v) ->
              match v with
              | GFuncAddr fn ->
                  (* function pointers now point at the transformed code *)
                  (off, GFuncAddr (sb_name fn))
              | v -> (off, v))
            g.ginit
        in
        List.iter
          (fun (off, v) ->
            let meta =
              match v with
              | GAddr (tgt, _) -> Some (Glob tgt, GlobEnd tgt)
              | GFuncAddr fn -> Some (Func fn, Func fn)
              | _ -> None
            in
            match meta with
            | None -> ()
            | Some (b, e) ->
                let a = fresh () in
                insts :=
                  MetaStore (Reg a, b, e, next_site ())
                  :: Gep (a, Glob g.gname, ImmI off, None)
                  :: !insts)
          ginit;
        { g with ginit })
      m.mglobals
  in
  let f =
    {
      fname = global_init_name;
      fparams = [];
      frets = [];
      fvariadic = false;
      fva_regs = None;
      fslots = [||];
      fframe_size = 0;
      fblocks = [| { insts = List.rev !insts; term = TRet [] } |];
      fnregs = max 1 !nregs;
    }
  in
  (f, globals)

(* ------------------------------------------------------------------ *)
(* Module transformation                                                *)
(* ------------------------------------------------------------------ *)

(** Transform and also report how many instrumentation sites were
    assigned.  Site ids are handed out during emission — before the
    optional elimination pass prunes anything — so the count (and each
    surviving instruction's id) is identical across [eliminate_checks]
    settings; observers compute elided sites as assigned-minus-surviving. *)
let transform_with_sites ?(opts = Config.default) (m : modul) : modul * int =
  let defined = Hashtbl.create 64 in
  List.iter (fun n -> Hashtbl.replace defined n ()) m.mfunc_order;
  let sites = ref 0 in
  let mfuncs = Hashtbl.create 64 in
  let mfunc_order =
    List.map
      (fun n ->
        let f0 = Hashtbl.find m.mfuncs n in
        let f = transform_func opts defined sites f0 in
        (* The register count before instrumentation separates metadata
           registers from program registers for the elimination pass. *)
        let f =
          if opts.Config.eliminate_checks then
            Elim.elim_func ~meta_floor:f0.fnregs
              ~widen:opts.Config.widen_checks f
          else f
        in
        Hashtbl.replace mfuncs f.fname f;
        f.fname)
      m.mfunc_order
  in
  let init_f, mglobals = build_global_init m sites in
  Hashtbl.replace mfuncs init_f.fname init_f;
  let m' =
    {
      mfuncs;
      mglobals;
      mfunc_order = mfunc_order @ [ init_f.fname ];
      mexterns = m.mexterns;
    }
  in
  validate m';
  (m', !sites)

let transform ?opts (m : modul) : modul = fst (transform_with_sites ?opts m)
