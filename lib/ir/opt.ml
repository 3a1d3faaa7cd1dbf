(* IR optimizer: constant folding, local copy/constant propagation, and
   global dead-code elimination.

   The paper instruments code *after* LLVM's full optimization pipeline
   (section 6.1): register promotion and cleanup have already removed
   most redundant memory traffic, so SoftBound's overhead is measured
   against a tight baseline.  The inliner and lowering in this repository
   leave the same kind of residue LLVM's -O2 would fold away — parameter
   move chains, scaled-index multiplies by constants, branches on
   constants — and this pass plays the cleanup role.

   Scope is deliberately conservative:
   - constant folding evaluates Bin/Cmp/Cast over immediates (using the
     interpreter's own wrap-around rules via {!Ir.norm_int});
   - copy/constant propagation is per-block: a binding [dst -> src]
     created by [Mov] is usable until either register is redefined, and
     every binding dies at block end (registers are mutable and non-SSA);
   - DCE removes pure register-writing instructions (Mov, Bin, Cmp,
     Cast, Gep, Slotaddr) whose destination is never read anywhere in
     the function; loads are never removed (they can fault, and they are
     the quantity Figure 1 measures). *)

open Ir

(* ------------------------------------------------------------------ *)
(* Constant folding                                                     *)
(* ------------------------------------------------------------------ *)

let fold_bin (op : binop) (t : ity) (x : int) (y : int) : int option =
  if ity_is_float t then None
  else
    let signed = ity_signed t in
    let r =
      match op with
      | Add -> Some (x + y)
      | Sub -> Some (x - y)
      | Mul -> Some (x * y)
      | Div ->
          if y = 0 then None
          else if signed then Some (x / y)
          else Some (unsigned_view t x / unsigned_view t y)
      | Rem ->
          if y = 0 then None
          else if signed then Some (x mod y)
          else Some (unsigned_view t x mod unsigned_view t y)
      | And -> Some (x land y)
      | Or -> Some (x lor y)
      | Xor -> Some (x lxor y)
      | Shl -> Some (x lsl (y land 63))
      | Shr ->
          if signed then Some (x asr (y land 63))
          else Some (unsigned_view t x lsr (y land 63))
    in
    Option.map (norm_int t) r

let fold_cmp (op : cmpop) (t : ity) (x : int) (y : int) : int option =
  if ity_is_float t then None
  else begin
    let c =
      if ity_signed t then compare x y
      else compare (unsigned_view t x) (unsigned_view t y)
    in
    let r =
      match op with
      | Ceq -> c = 0
      | Cne -> c <> 0
      | Clt -> c < 0
      | Cle -> c <= 0
      | Cgt -> c > 0
      | Cge -> c >= 0
    in
    Some (if r then 1 else 0)
  end

let fold_cast (to_ : ity) (from_ : ity) (v : int) : int option =
  match (ity_is_float to_, ity_is_float from_) with
  | false, false -> Some (norm_int to_ v)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Local copy / constant propagation                                    *)
(* ------------------------------------------------------------------ *)

(** Per-block environment, in arrays sized once per function:
    [known.(r)] is the operand [r] is known to hold (an immediate, a
    global address, or another register); [copies.(s)] lists the
    registers bound to [Reg s], so a redefinition of [s] drops exactly
    those bindings (an entry may be stale: the binding is checked before
    it is dropped); [touched] lists the entries to clear at block end. *)
type penv = {
  known : operand option array;
  copies : reg list array;
  mutable touched : reg list;
}

let kill (env : penv) (r : reg) =
  env.known.(r) <- None;
  (* drop bindings whose *source* is r *)
  List.iter
    (fun k ->
      match env.known.(k) with
      | Some (Reg s) when s = r -> env.known.(k) <- None
      | _ -> ())
    env.copies.(r);
  env.copies.(r) <- []

let bind (env : penv) (r : reg) (v : operand) =
  env.known.(r) <- Some v;
  env.touched <- r :: env.touched;
  match v with
  | Reg s ->
      env.copies.(s) <- r :: env.copies.(s);
      env.touched <- s :: env.touched
  | _ -> ()

let clear (env : penv) =
  List.iter
    (fun r ->
      env.known.(r) <- None;
      env.copies.(r) <- [])
    env.touched;
  env.touched <- []

let subst (env : penv) (o : operand) : operand =
  match o with
  | Reg r -> ( match env.known.(r) with Some o' -> o' | None -> o)
  | o -> o

let dst_of = function
  | Mov (r, _, _)
  | Bin (r, _, _, _, _)
  | Cmp (r, _, _, _, _)
  | Cast (r, _, _, _)
  | Load (r, _, _)
  | Gep (r, _, _, _)
  | Slotaddr (r, _) ->
      [ r ]
  | MetaLoad (r1, r2, _, _) -> [ r1; r2 ]
  | Call { rets; _ } -> rets
  | Store _ | SetBoundMark _ | Check _ | CheckFptr _ | MetaStore _
  | CheckSpan _ ->
      []

let propagate_block (env : penv) (b : block) : block =
  let insts =
    List.map
      (fun inst ->
        (* substitute known values into operands — except a call's callee:
           devirtualizing an indirect call would erase the function-pointer
           check SoftBound inserts there (and let the inliner swallow the
           body), changing the protection surface *)
        let inst =
          match inst with
          | Call c -> Call { c with args = List.map (subst env) c.args }
          | i -> map_inst_operands (subst env) i
        in
        (* fold what became constant *)
        let inst =
          match inst with
          | Bin (r, op, t, ImmI x, ImmI y) -> (
              match fold_bin op t x y with
              | Some v -> Mov (r, t, ImmI v)
              | None -> inst)
          | Cmp (r, op, t, ImmI x, ImmI y) -> (
              match fold_cmp op t x y with
              | Some v -> Mov (r, I32, ImmI v)
              | None -> inst)
          | Cast (r, to_, from_, ImmI v) -> (
              match fold_cast to_ from_ v with
              | Some v -> Mov (r, to_, ImmI v)
              | None -> inst)
          | Gep (r, base, ImmI 0, None) ->
              (* no-op pointer arithmetic: a plain copy (the SoftBound
                 pass treats Mov and unshrunk Gep identically, so this
                 is metadata-neutral) *)
              Mov (r, P, base)
          | Bin (r, Add, t, x, ImmI 0) when not (ity_is_float t) ->
              Mov (r, t, x)
          | Bin (r, Mul, t, x, ImmI 1) when not (ity_is_float t) ->
              Mov (r, t, x)
          | i -> i
        in
        (* update the environment *)
        List.iter (kill env) (dst_of inst);
        (match inst with
        | Mov (r, _, ((ImmI _ | ImmF _ | Glob _ | GlobEnd _ | Func _) as v))
          ->
            bind env r v
        | Mov (r, _, (Reg s as v)) when s <> r -> bind env r v
        | _ -> ());
        inst)
      b.insts
  in
  let term = map_term_operands (subst env) b.term in
  (* every binding dies at block end *)
  clear env;
  (* fold constant branches *)
  let term =
    match term with
    | TBr (ImmI c, t1, t2) -> TJmp (if c <> 0 then t1 else t2)
    | TSwitch (ImmI v, cases, d) -> (
        match List.assoc_opt v cases with
        | Some t -> TJmp t
        | None -> TJmp d)
    | t -> t
  in
  { insts; term }

(* ------------------------------------------------------------------ *)
(* Global dead-code elimination                                         *)
(* ------------------------------------------------------------------ *)

(** The register a pure instruction writes: the instruction is removable
    when that register is dead.  Loads are kept (they can fault; they
    are also the Figure 1 metric). *)
let pure_dst = function
  | Mov (r, _, _)
  | Bin (r, _, _, _, _)
  | Cmp (r, _, _, _, _)
  | Cast (r, _, _, _)
  | Gep (r, _, _, _)
  | Slotaddr (r, _) ->
      r
  | _ -> -1

let dce (f : func) : func =
  let changed = ref true in
  let blocks = ref f.fblocks in
  while !changed do
    changed := false;
    let used = Array.make (max 1 f.fnregs) false in
    let use = function
      | Reg r -> if r < Array.length used then used.(r) <- true
      | _ -> ()
    in
    Array.iter
      (fun b ->
        List.iter
          (fun inst ->
            (* only *operand* occurrences count as uses *)
            match inst with
            | Mov (_, _, o) | Cast (_, _, _, o) | Load (_, _, o) ->
                use o
            | Bin (_, _, _, a, b) | Cmp (_, _, _, a, b) -> (use a; use b)
            | Gep (_, a, b, _) -> (use a; use b)
            | Slotaddr _ -> ()
            | Store (_, a, v) -> (use a; use v)
            | Call { callee; args; _ } ->
                use callee;
                List.iter use args
            | SetBoundMark (a, n) -> (use a; use n)
            | Check (p, b, e, _, _) -> (use p; use b; use e)
            | CheckFptr (p, b, e, _, _) -> (use p; use b; use e)
            | MetaLoad (_, _, a, _) -> use a
            | MetaStore (a, b, e, _) -> (use a; use b; use e)
            | CheckSpan { sp_first; sp_count; sp_base; sp_bound; _ } ->
                use sp_first; use sp_count; use sp_base; use sp_bound)
          b.insts;
        ignore
          (map_term_operands (fun o -> use o; o) b.term))
      !blocks;
    (* parameters and va registers are live by convention *)
    List.iter (fun (r, _) -> if r < Array.length used then used.(r) <- true)
      f.fparams;
    (match f.fva_regs with
    | Some (a, b) ->
        if a < Array.length used then used.(a) <- true;
        if b < Array.length used then used.(b) <- true
    | None -> ());
    let dead inst =
      let r = pure_dst inst in
      r >= 0 && (r >= Array.length used || not used.(r))
    in
    blocks :=
      Array.map
        (fun b ->
          if List.exists dead b.insts then begin
            changed := true;
            { b with insts = List.filter (fun inst -> not (dead inst)) b.insts }
          end
          else b)
        !blocks
  done;
  { f with fblocks = !blocks }

(* ------------------------------------------------------------------ *)
(* Unreachable-block elimination                                        *)
(* ------------------------------------------------------------------ *)

let targets_of = function
  | TRet _ | TUnreachable -> []
  | TJmp t -> [ t ]
  | TBr (_, a, b) -> [ a; b ]
  | TSwitch (_, cases, d) -> d :: List.map snd cases

(** Drop blocks unreachable from the entry (constant-branch folding
    creates them) and renumber the survivors. *)
let drop_unreachable (f : func) : func =
  let n = Array.length f.fblocks in
  if n = 0 then f
  else begin
    let reachable = Array.make n false in
    let rec visit i =
      if i >= 0 && i < n && not reachable.(i) then begin
        reachable.(i) <- true;
        List.iter visit (targets_of f.fblocks.(i).term)
      end
    in
    visit 0;
    if Array.for_all Fun.id reachable then f
    else begin
      let remap = Array.make n (-1) in
      let next = ref 0 in
      Array.iteri
        (fun i r ->
          if r then begin
            remap.(i) <- !next;
            incr next
          end)
        reachable;
      let rt t = remap.(t) in
      let fblocks =
        Array.of_list
          (List.filteri
             (fun i _ -> reachable.(i))
             (Array.to_list f.fblocks))
        |> Array.map (fun b ->
               let term =
                 match b.term with
                 | TJmp t -> TJmp (rt t)
                 | TBr (c, a, b') -> TBr (c, rt a, rt b')
                 | TSwitch (v, cases, d) ->
                     TSwitch (v, List.map (fun (c, t) -> (c, rt t)) cases, rt d)
                 | t -> t
               in
               { b with term })
      in
      { f with fblocks }
    end
  end

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let optimize_func (f : func) : func =
  let env =
    {
      known = Array.make f.fnregs None;
      copies = Array.make f.fnregs [];
      touched = [];
    }
  in
  let f = { f with fblocks = Array.map (propagate_block env) f.fblocks } in
  let f = drop_unreachable f in
  dce f

let run (m : modul) : modul =
  let m' = map_funcs m optimize_func in
  validate m';
  m'
