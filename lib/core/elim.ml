(* Redundant-check elimination and metadata-lookup hoisting over
   SoftBound-instrumented IR (paper section 6.1).

   The paper's prototype re-runs LLVM's standard optimizers after the
   SoftBound pass, which removes checks and metadata lookups that the
   instrumentation made redundant: two dereferences through the same
   pointer need only one bounds check, and a loop that reloads the same
   pointer every iteration needs only one metadata-space lookup.  The
   [prune_liveness] pre-pass in [Transform] stands in for the
   *liveness* part of that cleanup; this module stands in for the
   *redundancy* part (CGuard makes the same observation: most of the
   remaining headroom is provably-redundant spatial checks).

   Three sub-passes, in order:

   1. {b Loop hoisting.}  Using the dominator tree and natural loops
      from {!Sbir.Dom}, loop-invariant instrumentation — [MetaLoad]s
      whose address is invariant (and whose loop is free of metadata
      writers), the pure metadata-propagation instructions introduced by
      the transformation, and (under a stronger condition, below)
      [Check]/[CheckFptr] on invariant operands — is moved into the
      loop's preheader, created on demand.  A check executes a trap
      conditionally, so hoisting one is allowed only when loop entry
      already implies the check runs at least once: its block must
      dominate every latch and every exit-edge source, the loop must
      contain no in-loop return/unreachable terminator, and no call may
      sit on a path that reaches the check's block (a callee could
      terminate the program first).  This is precisely the "widen a
      per-iteration check on a loop-invariant pointer into one check
      per loop entry" rewrite.  Program (non-metadata) instructions are
      hoisted only when a hoisted root transitively needs them, so the
      instrumented/uninstrumented comparison stays fair: we never
      optimize the program itself more than its baseline.

   2. {b Local metadata-lookup CSE.}  Within a block, a second
      [MetaLoad] from the same address reuses the first lookup's
      registers (two 1-cycle moves instead of a 5- or 9-cycle
      metadata-space probe); invalidated by [MetaStore], calls,
      [SetBoundMark], and redefinition of any involved register.

   3. {b Check elimination.}  A forward available-checks dataflow
      (intersection over predecessors, iterated to a fixpoint over the
      reverse postorder — the non-SSA analogue of "a dominating
      identical check with no intervening redefinition"): a [Check] on
      (ptr, base, bound) is dropped when an available check on the same
      operand triple with width >= the required width reaches it, a
      [CheckFptr] when an identical one reaches it.  Facts die when any
      mentioned register is redefined.  Registers are the only state a
      check reads, so stores, calls and metadata writes do not kill
      facts.

   Soundness note: a dropped check is dominated by an identical check
   that either passed (so this one would pass: same register values,
   [w' >= w] implies [ptr + w <= bound]) or aborted (so this one is
   never reached).  Hoisted checks abort at loop entry exactly when the
   first in-loop execution would have aborted.  Detection is therefore
   unchanged — the test suite re-runs the full Wilander/BugBench
   matrix with elimination on to hold this to account. *)

module Ir = Sbir.Ir
module Dom = Sbir.Dom
module Scev = Sbir.Scev
open Ir

(* ------------------------------------------------------------------ *)
(* Instruction facts                                                    *)
(* ------------------------------------------------------------------ *)

let defs_of (i : inst) : reg list =
  match i with
  | Mov (r, _, _)
  | Bin (r, _, _, _, _)
  | Cmp (r, _, _, _, _)
  | Cast (r, _, _, _)
  | Load (r, _, _)
  | Gep (r, _, _, _)
  | Slotaddr (r, _) ->
      [ r ]
  | Call { rets; _ } -> rets
  | MetaLoad (r1, r2, _, _) -> [ r1; r2 ]
  | Store _ | SetBoundMark _ | Check _ | CheckFptr _ | MetaStore _
  | CheckSpan _ ->
      []

let ops_of (i : inst) : operand list =
  match i with
  | Mov (_, _, o) | Cast (_, _, _, o) | Load (_, _, o)
  | MetaLoad (_, _, o, _) ->
      [ o ]
  | Bin (_, _, _, a, b)
  | Cmp (_, _, _, a, b)
  | Store (_, a, b)
  | Gep (_, a, b, _)
  | SetBoundMark (a, b) ->
      [ a; b ]
  | Slotaddr _ -> []
  | Call { callee; args; _ } -> callee :: args
  | Check (p, b, e, _, _) | CheckFptr (p, b, e, _, _)
  | MetaStore (p, b, e, _) ->
      [ p; b; e ]
  | CheckSpan { sp_first; sp_count; sp_base; sp_bound; _ } ->
      [ sp_first; sp_count; sp_base; sp_bound ]

let term_ops (t : terminator) : operand list =
  match t with
  | TRet ops -> ops
  | TBr (c, _, _) -> [ c ]
  | TSwitch (v, _, _) -> [ v ]
  | TJmp _ | TUnreachable -> []

let reg_ops (ops : operand list) : reg list =
  List.filter_map (function Reg r -> Some r | _ -> None) ops

(** Pure register-writing instructions safe to execute speculatively
    (no memory access, no trap — [Div]/[Rem] can fault on zero). *)
let hoistable_pure = function
  | Mov _ | Cmp _ | Cast _ | Gep _ | Slotaddr _ -> true
  | Bin (_, (Div | Rem), _, _, _) -> false
  | Bin _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Shared analyses and the loop sweep                                   *)
(* ------------------------------------------------------------------ *)

(* The loop sub-passes rewrite one loop at a time and, after every
   rewrite, look again for the first loop (innermost first) with work:
   hoisting out of an outer loop can make an inner loop's instruction
   invariant.  What each loop's decision reads is built once and kept:

   - dominators and natural loops depend only on terminators, so one
     [cfg] serves every rewrite that moves or adds instructions; only
     [insert_preheader] changes the CFG and forces a rebuild;
   - a loop's decision depends only on its own blocks, the dominator
     tree and (for hoisting) the function's per-register use counts,
     so a loop found to have no work is not examined again until a
     rewrite touches one of its blocks. *)

type cfg = {
  dom : Dom.t;
  loops : Dom.loop array;  (* smallest first, as [Dom.natural_loops] *)
  blocks : int array array;  (* each loop's body blocks, ascending *)
}

let cfg_of (f : func) : cfg =
  let dom = Dom.compute f in
  let loops = Array.of_list (Dom.natural_loops dom) in
  let blocks =
    Array.map
      (fun (l : Dom.loop) ->
        let body = ref [] in
        for b = Array.length l.Dom.body - 1 downto 0 do
          if l.Dom.body.(b) then body := b :: !body
        done;
        Array.of_list !body)
      loops
  in
  { dom; loops; blocks }

(** What one loop sub-pass did to one loop. *)
type step =
  | Unchanged
  | Rewritten of func * int
      (** instructions moved or added within the loop body and the
          given preheader; the CFG is unchanged *)
  | Split of func  (** a preheader was inserted: the CFG changed *)

(** Apply [step] to the first loop, smallest first, it changes; repeat
    until no loop changes or [budget] steps are spent. *)
let sweep ~budget (step : func -> cfg -> int -> step) (f : func) (cfg : cfg)
    : func * cfg =
  let rec go f cfg stale budget =
    let n = Array.length cfg.loops in
    let rec first i =
      if i = n then (i, Unchanged)
      else if not stale.(i) then first (i + 1)
      else
        match step f cfg i with
        | Unchanged ->
            stale.(i) <- false;
            first (i + 1)
        | s -> (i, s)
    in
    if budget = 0 then (f, cfg)
    else
      match first 0 with
      | _, Unchanged -> (f, cfg)
      | _, Split f' ->
          let cfg' = cfg_of f' in
          go f' cfg' (Array.make (Array.length cfg'.loops) true) (budget - 1)
      | i, Rewritten (f', pre) ->
          let touched = cfg.blocks.(i) in
          Array.iteri
            (fun j (l : Dom.loop) ->
              if l.Dom.body.(pre) || Array.exists (Array.get l.Dom.body) touched
              then stale.(j) <- true)
            cfg.loops;
          go f' cfg stale (budget - 1)
  in
  go f cfg (Array.make (Array.length cfg.loops) true) budget

(** [f] with [moved] appended to block [pre] and, in each block [b] of
    [shrunk], only the instructions [i] with [keep b i]; every other
    block keeps its value. *)
let move_to_preheader (f : func) ~(pre : int) ~(shrunk : int list)
    ~(keep : int -> int -> bool) (moved : inst list) : func =
  let fblocks = Array.copy f.fblocks in
  List.iter
    (fun b ->
      let blk = fblocks.(b) in
      fblocks.(b) <- { blk with insts = List.filteri (fun i _ -> keep b i) blk.insts })
    shrunk;
  let blk = fblocks.(pre) in
  fblocks.(pre) <- { blk with insts = blk.insts @ moved };
  { f with fblocks }

(* ------------------------------------------------------------------ *)
(* Pass 1: loop-invariant hoisting                                      *)
(* ------------------------------------------------------------------ *)

(* A loop's instructions are numbered by body position: the body blocks
   in ascending order, each block's instructions in order.  Position
   [n + k], past the [n] instructions, is the terminator of the [k]-th
   body block, so every instruction of a block comes before its
   terminator. *)

(** Per-register facts of the loop being examined, in arrays allocated
    once per function: an entry counts only while its [stamp] is the
    current [gen], so moving to the next loop clears them all at once. *)
type regs = {
  stamp : int array;
  mutable gen : int;
  def_count : int array;  (* defs within the loop *)
  def_pos : int array;  (* body position of the def; meaningful when count = 1 *)
  uses : int list array;  (* body positions of the uses within the loop *)
  use_count : int array;  (* uses function-wide *)
}

type loop_ctx = {
  dom : Dom.t;
  loop : Dom.loop;
  regs : regs;
  code : inst array;  (* the body's instructions, by body position *)
  block_of : int array;  (* block of each body position, terminators too *)
  first : int array;  (* block id -> body position of its first instruction *)
  meta_clobbered : bool;  (* MetaStore / Call / SetBoundMark in loop *)
  has_stop : bool;  (* TRet / TUnreachable terminator in loop *)
  calls : int list;  (* in-loop call positions *)
}

(** Register operand occurrences per register, function-wide.  Hoisting
    only moves instructions and inserting a preheader adds only a bare
    jump, so the counts hold for the whole hoisting sweep. *)
let use_counts (f : func) : int array =
  let n = Array.make f.fnregs 0 in
  let add r = n.(r) <- n.(r) + 1 in
  Array.iter
    (fun blk ->
      List.iter (fun inst -> List.iter add (reg_ops (ops_of inst))) blk.insts;
      List.iter add (reg_ops (term_ops blk.term)))
    f.fblocks;
  n

let new_regs (f : func) : regs =
  let n = f.fnregs in
  {
    stamp = Array.make n 0;
    gen = 0;
    def_count = Array.make n 0;
    def_pos = Array.make n 0;
    uses = Array.make n [];
    use_count = use_counts f;
  }

let current ctx r = ctx.regs.stamp.(r) = ctx.regs.gen
let dcount ctx r = if current ctx r then ctx.regs.def_count.(r) else 0

let build_loop_ctx (f : func) (dom : Dom.t) (loop : Dom.loop)
    (blocks : int array) (regs : regs) : loop_ctx =
  regs.gen <- regs.gen + 1;
  let touch r =
    if regs.stamp.(r) <> regs.gen then begin
      regs.stamp.(r) <- regs.gen;
      regs.def_count.(r) <- 0;
      regs.uses.(r) <- []
    end
  in
  let add_use p = function
    | Reg r ->
        touch r;
        regs.uses.(r) <- p :: regs.uses.(r)
    | _ -> ()
  in
  let n =
    Array.fold_left (fun n b -> n + List.length f.fblocks.(b).insts) 0 blocks
  in
  let code = Array.make n (Slotaddr (0, 0)) in
  let block_of = Array.make (n + Array.length blocks) 0 in
  let first = Array.make (Array.length f.fblocks) 0 in
  let meta_clobbered = ref false in
  let has_stop = ref false in
  let calls = ref [] in
  let p = ref 0 in
  Array.iteri
    (fun k b ->
      let blk = f.fblocks.(b) in
      first.(b) <- !p;
      List.iter
        (fun inst ->
          code.(!p) <- inst;
          block_of.(!p) <- b;
          List.iter (add_use !p) (ops_of inst);
          (match inst with
          | MetaStore _ | SetBoundMark _ -> meta_clobbered := true
          | Call _ ->
              meta_clobbered := true;
              calls := !p :: !calls
          | _ -> ());
          List.iter
            (fun r ->
              touch r;
              regs.def_count.(r) <- regs.def_count.(r) + 1;
              regs.def_pos.(r) <- !p)
            (defs_of inst);
          incr p)
        blk.insts;
      block_of.(n + k) <- b;
      List.iter (add_use (n + k)) (term_ops blk.term);
      match blk.term with TRet _ | TUnreachable -> has_stop := true | _ -> ())
    blocks;
  {
    dom;
    loop;
    regs;
    code;
    block_of;
    first;
    meta_clobbered = !meta_clobbered;
    has_stop = !has_stop;
    calls = !calls;
  }

let live ctx p = Dom.reachable ctx.dom ctx.block_of.(p)

(** Is position [q] strictly after [p] on every execution (same block
    later, or in a block [p]'s block strictly dominates)? *)
let dominated_by ctx p q =
  let b = ctx.block_of.(p) and b' = ctx.block_of.(q) in
  if b = b' then q > p else Dom.dominates ctx.dom b b'

(** All uses of [r], function-wide, lie inside the loop and after the
    defining position — so moving the single definition to the
    preheader changes no observable register value (in particular, a
    zero-trip loop entry leaves no reader of the speculatively computed
    value). *)
let uses_ok ctx r p =
  let inside = if current ctx r then ctx.regs.uses.(r) else [] in
  List.length inside = ctx.regs.use_count.(r)
  && List.for_all (dominated_by ctx p) inside

(** Is operand [o] of the instruction at [p] invariant, given the set [h]
    of positions already found hoistable?  Undefined in the loop, or
    defined once by a member of [h] — never by [p] itself, which is how
    inductive updates like [r <- r + 1] are excluded. *)
let invariant ctx (h : bool array) p = function
  | Reg r -> (
      match dcount ctx r with
      | 0 -> true
      | 1 ->
          let dp = ctx.regs.def_pos.(r) in
          dp <> p && h.(dp)
      | _ -> false)
  | _ -> true

(** The hoistable pure/[MetaLoad] definitions of the loop, by body
    position, as a growing fixpoint: an instruction joins once all its
    register operands are invariant. *)
let hoistable_defs (ctx : loop_ctx) : bool array =
  let n = Array.length ctx.code in
  let h = Array.make n false in
  (* what does not change as [h] grows: the kind of instruction and the
     uses of what it defines *)
  let eligible = ref [] in
  for p = n - 1 downto 0 do
    let inst = ctx.code.(p) in
    if
      live ctx p
      && (hoistable_pure inst
         || match inst with MetaLoad _ -> not ctx.meta_clobbered | _ -> false)
      && List.for_all
           (fun r -> dcount ctx r = 1 && uses_ok ctx r p)
           (defs_of inst)
    then eligible := p :: !eligible
  done;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun p ->
        if (not h.(p)) && List.for_all (invariant ctx h p) (ops_of ctx.code.(p))
        then begin
          h.(p) <- true;
          changed := true
        end)
      !eligible
  done;
  h

(** Positions to move to the preheader, ascending: instrumentation roots
    plus the in-loop pure definitions they transitively need.
    [meta_floor] is the register count of the function {e before}
    instrumentation, so a pure instruction writing only registers
    [>= meta_floor] is metadata propagation introduced by the
    transformation; pure program instructions are hoisted only as
    dependencies of a root. *)
let hoist_candidates (ctx : loop_ctx) ~(meta_floor : int) : int list =
  let h = hoistable_defs ctx in
  let loop = ctx.loop in
  let n = Array.length ctx.code in
  let chosen = Array.make n false in
  let rec need p =
    if not chosen.(p) then begin
      chosen.(p) <- true;
      List.iter
        (fun r ->
          if dcount ctx r = 1 then
            let dp = ctx.regs.def_pos.(r) in
            if dp <> p && h.(dp) then need dp)
        (reg_ops (ops_of ctx.code.(p)))
    end
  in
  for p = 0 to n - 1 do
    if live ctx p then
      let b = ctx.block_of.(p) in
      let root =
        match ctx.code.(p) with
        | (Check _ | CheckFptr _) as inst ->
            (* Sound only when loop entry implies this check runs: see the
               module header. *)
            (not ctx.has_stop)
            && List.for_all (invariant ctx h p) (ops_of inst)
            && List.for_all
                 (fun l -> Dom.dominates ctx.dom b l)
                 (loop.Dom.latches @ loop.Dom.exits)
            && List.for_all (fun c -> ctx.block_of.(c) = b && c > p) ctx.calls
        | MetaLoad _ -> h.(p)
        | inst ->
            h.(p)
            && defs_of inst <> []
            && List.for_all (fun r -> r >= meta_floor) (defs_of inst)
      in
      if root then need p
  done;
  List.filter (Array.get chosen) (List.init n Fun.id)

let map_targets (g : int -> int) (t : terminator) : terminator =
  match t with
  | TJmp t -> TJmp (g t)
  | TBr (c, t1, t2) -> TBr (c, g t1, g t2)
  | TSwitch (v, cases, d) ->
      TSwitch (v, List.map (fun (k, t) -> (k, g t)) cases, g d)
  | (TRet _ | TUnreachable) as t -> t

(** An existing preheader: the unique loop-outside predecessor of the
    header, provided the header is its only successor (so appending to
    it executes exactly once per loop entry). *)
let find_preheader (dom : Dom.t) (loop : Dom.loop) : int option =
  let outside =
    List.filter (fun p -> not loop.Dom.body.(p)) dom.Dom.preds.(loop.Dom.header)
  in
  match outside with
  | [ p ]
    when dom.Dom.succs.(p) = [ loop.Dom.header ] && Dom.reachable dom p ->
      Some p
  | _ -> None

(** Insert an empty preheader: every edge into the header from outside
    the loop is redirected through a fresh block that jumps to the
    header.  When the header is the (positional) entry block the new
    block must become the entry, so every block shifts up by one. *)
let insert_preheader (f : func) (loop : Dom.loop) : func =
  let h = loop.Dom.header in
  let n = Array.length f.fblocks in
  if h = 0 then
    let remap src t =
      if t = 0 then if loop.Dom.body.(src) then 1 else 0 else t + 1
    in
    let fblocks =
      Array.init (n + 1) (fun i ->
          if i = 0 then { insts = []; term = TJmp 1 }
          else
            let b = f.fblocks.(i - 1) in
            { b with term = map_targets (remap (i - 1)) b.term })
    in
    { f with fblocks }
  else
    let remap src t = if t = h && not loop.Dom.body.(src) then n else t in
    let fblocks =
      Array.init (n + 1) (fun i ->
          if i = n then { insts = []; term = TJmp h }
          else
            let b = f.fblocks.(i) in
            { b with term = map_targets (remap i) b.term })
    in
    { f with fblocks }

(** Move the instructions at body positions [chosen] (ascending) to the
    end of block [pre], in dependency order: a definition dominates its
    uses, and dominators come strictly earlier in reverse postorder, so
    sorting by (RPO position, index) is a topological order of the
    moved instructions.  Only [pre] and the blocks that lose
    instructions are rebuilt. *)
let apply_hoist (f : func) (ctx : loop_ctx) (pre : int) (chosen : int list) :
    func =
  let rpo_pos p = ctx.dom.Dom.rpo_pos.(ctx.block_of.(p)) in
  (* positions of one block are ascending already: a stable sort by the
     block's RPO position keeps them in index order *)
  let sorted =
    List.stable_sort (fun p q -> compare (rpo_pos p) (rpo_pos q)) chosen
  in
  let moving = Array.make (Array.length ctx.code) false in
  List.iter (fun p -> moving.(p) <- true) chosen;
  let shrunk =
    List.sort_uniq compare (List.map (Array.get ctx.block_of) chosen)
  in
  move_to_preheader f ~pre ~shrunk
    ~keep:(fun b i -> not moving.(ctx.first.(b) + i))
    (List.map (Array.get ctx.code) sorted)

(** Hoist the candidates of loop [i], or create its preheader first
    (the next step hoists). *)
let hoist_step ~meta_floor ~regs (f : func) (cfg : cfg) (i : int) : step =
  let loop = cfg.loops.(i) in
  let ctx = build_loop_ctx f cfg.dom loop cfg.blocks.(i) regs in
  match hoist_candidates ctx ~meta_floor with
  | [] -> Unchanged
  | chosen -> (
      match find_preheader cfg.dom loop with
      | Some pre -> Rewritten (apply_hoist f ctx pre chosen, pre)
      | None -> Split (insert_preheader f loop))

let hoist_loops ~meta_floor (f : func) (cfg : cfg) : func * cfg =
  (* Each step either inserts one preheader or strictly shrinks some
     loop body; instructions re-hoist at most once per enclosing loop,
     so the budget is never the binding constraint in practice.  The
     register arrays are sized once: hoisting adds no register. *)
  sweep
    ~budget:(16 + (4 * Array.length f.fblocks))
    (hoist_step ~meta_floor ~regs:(new_regs f))
    f cfg

(* ------------------------------------------------------------------ *)
(* Pass 1b: induction-variable check widening                           *)
(* ------------------------------------------------------------------ *)

(* A per-iteration [Check] whose address is affine in the loop's
   induction variable ([Scev.affine_addr]) is replaced by a single
   [CheckSpan] in the preheader covering the whole arithmetic
   progression.  Legality (beyond [Scev.analyze]'s loop-shape and
   no-observable-effects refusals): the check's block must dominate
   every latch (so the original runs exactly once per iteration), and
   the base/bound operands must be loop-invariant.  A check sitting in
   the header itself runs once more than the body — on the final,
   failing guard evaluation — so its span count is the trip count plus
   one.  The span's first-failing element is the program-order first
   failure (violations of an ascending progression form a prefix below
   base or a suffix above bound), so the trap address, site and message
   match the unwidened run's exactly; see DESIGN.md section 12 for the
   argument and the store-only-mode caveat. *)

let widen_step (f : func) (cfg : cfg) (li : int) : step =
  let dom = cfg.dom and loop = cfg.loops.(li) in
  (* innermost loops only: a block of a multi-loop nest can execute
     many times per iteration of the outer loop, breaking the
     exactly-once-per-iteration accounting *)
  if
    Array.exists
      (fun l' -> l' != loop && loop.Dom.body.(l'.Dom.header))
      cfg.loops
  then Unchanged
  else
    match Scev.analyze f dom loop with
    | None -> Unchanged
    | Some sc ->
        let cands = ref [] in
        Array.iter
          (fun b ->
            if Dom.reachable dom b then
              List.iteri
                (fun i inst ->
                  match inst with
                  | Check (p, base, bound, w, site)
                    when Scev.invariant_op sc base
                         && Scev.invariant_op sc bound
                         && List.for_all
                              (fun l -> Dom.dominates dom b l)
                              loop.Dom.latches -> (
                      match Scev.affine_addr sc (b, i) p with
                      | Some af ->
                          cands :=
                            ((b, i), (p, base, bound, w, site), af,
                             b = loop.Dom.header)
                            :: !cands
                      | None -> ())
                  | _ -> ())
                f.fblocks.(b).insts)
          cfg.blocks.(li);
        let cands = List.rev !cands in
        if cands = [] then Unchanged
        else
          match find_preheader dom loop with
          | None -> Split (insert_preheader f loop)
          | Some pre ->
              let nregs = ref f.fnregs in
              let fresh () =
                let r = !nregs in
                incr nregs;
                r
              in
              let cnt_insts, cnt_op = Scev.emit_count sc ~fresh in
              let hdr_insts, hdr_op =
                if List.exists (fun (_, _, _, h) -> h) cands then
                  let hc = fresh () in
                  ([ Bin (hc, Add, I64, cnt_op, ImmI 1) ], Reg hc)
                else ([], cnt_op)
              in
              let spans =
                List.concat_map
                  (fun (_, (p, base, bound, w, site), af, in_header) ->
                    let chain, first = Scev.clone_chain sc ~fresh af p in
                    chain
                    @ [
                        CheckSpan
                          {
                            sp_first = first;
                            sp_count = (if in_header then hdr_op else cnt_op);
                            sp_stride = af.Scev.af_stride;
                            sp_width = w;
                            sp_base = base;
                            sp_bound = bound;
                            sp_site = site;
                            sp_sites = [||];
                          };
                      ])
                  cands
              in
              let removed = List.map (fun (pos, _, _, _) -> pos) cands in
              let f' =
                move_to_preheader f ~pre
                  ~shrunk:(List.sort_uniq compare (List.map fst removed))
                  ~keep:(fun b i -> not (List.mem (b, i) removed))
                  (cnt_insts @ hdr_insts @ spans)
              in
              Rewritten ({ f' with fnregs = !nregs }, pre)

let widen_loops (f : func) (cfg : cfg) : func * cfg =
  (* Each step either inserts one preheader or removes every widenable
     check of one loop, so this terminates well inside the budget. *)
  sweep ~budget:(16 + (4 * Array.length f.fblocks)) widen_step f cfg

(* ------------------------------------------------------------------ *)
(* Pass 1c: within-block check coalescing                               *)
(* ------------------------------------------------------------------ *)

(* Checks in one block on the same base/bound whose addresses are the
   same linear form at constant offsets with a uniform ascending gap —
   [a[i]] and [a[i+1]] — merge into one [CheckSpan] at the first
   check's position carrying every member's site id.  Addresses are
   compared by symbolic linear forms over versioned register leaves, so
   a redefinition of any involved register simply stops the match.  Any
   instruction that can trap or produce output between two members
   would make the merged check's earlier trap observable, so calls,
   register-divisor divisions and foreign checks close every open
   group (loads and stores between members are allowed and share the
   store-only-mode caveat of DESIGN.md section 12). *)

module Lin = struct
  type leaf =
    | LReg of reg * int  (** register at a definition version *)
    | LSlot of int  (** address of a frame slot — constant per call *)
    | LGlob of string
    | LGlobEnd of string
    | LFunc of string

  (* linear form: constant + sum of coefficient * leaf, leaves sorted *)
  type t = { terms : (leaf * int) list; k : int }

  let const k = { terms = []; k }
  let leaf l = { terms = [ (l, 1) ]; k = 0 }

  let add a b =
    let rec merge xs ys =
      match (xs, ys) with
      | [], l | l, [] -> l
      | (lx, cx) :: tx, (ly, cy) :: ty ->
          let c = compare lx ly in
          if c = 0 then
            if cx + cy = 0 then merge tx ty
            else (lx, cx + cy) :: merge tx ty
          else if c < 0 then (lx, cx) :: merge tx ys
          else (ly, cy) :: merge xs ty
    in
    { terms = merge a.terms b.terms; k = a.k + b.k }

  let scale s e =
    if s = 0 then const 0
    else { terms = List.map (fun (l, c) -> (l, c * s)) e.terms; k = e.k * s }

  let sub a b = add a (scale (-1) b)
end

let coalesce_block (blk : block) : block =
  let version : (reg, int) Hashtbl.t = Hashtbl.create 16 in
  let ver r = try Hashtbl.find version r with Not_found -> 0 in
  let bump r = Hashtbl.replace version r (ver r + 1) in
  (* current symbolic value of a register, at its current version *)
  let vals : (reg, Lin.t) Hashtbl.t = Hashtbl.create 16 in
  let expr_of (op : operand) : Lin.t option =
    match op with
    | ImmI c -> Some (Lin.const c)
    | ImmF _ -> None
    | Glob g -> Some (Lin.leaf (Lin.LGlob g))
    | GlobEnd g -> Some (Lin.leaf (Lin.LGlobEnd g))
    | Func g -> Some (Lin.leaf (Lin.LFunc g))
    | Reg r -> (
        match Hashtbl.find_opt vals r with
        | Some e -> Some e
        | None -> Some (Lin.leaf (Lin.LReg (r, ver r))))
  in
  (* value of a register being defined, before versions are bumped; only
     wide-typed arithmetic is tracked (narrow results truncate) *)
  let def_expr (inst : inst) : (reg * Lin.t option) option =
    let wide = function I64 | U64 | P -> true | _ -> false in
    match inst with
    | Mov (r, ty, o) -> Some (r, if wide ty then expr_of o else None)
    | Slotaddr (r, s) -> Some (r, Some (Lin.leaf (Lin.LSlot s)))
    | Gep (r, a, b, _) ->
        let e =
          match (expr_of a, expr_of b) with
          | Some ea, Some eb -> Some (Lin.add ea eb)
          | _ -> None
        in
        Some (r, e)
    | Cast (r, to_, from_, o) ->
        Some (r, if wide to_ && wide from_ then expr_of o else None)
    | Bin (r, op, ty, a, b) ->
        let e =
          if not (wide ty) then None
          else
            match (op, expr_of a, expr_of b) with
            | Add, Some ea, Some eb -> Some (Lin.add ea eb)
            | Sub, Some ea, Some eb -> Some (Lin.sub ea eb)
            | Mul, Some ea, Some { Lin.terms = []; k } ->
                Some (Lin.scale k ea)
            | Mul, Some { Lin.terms = []; k }, Some eb ->
                Some (Lin.scale k eb)
            | Shl, Some ea, Some { Lin.terms = []; k }
              when k >= 0 && k < 32 ->
                Some (Lin.scale (1 lsl k) ea)
            | _ -> None
        in
        Some (r, e)
    | _ -> None
  in
  let assign r e =
    bump r;
    match e with
    | Some e -> Hashtbl.replace vals r e
    | None -> Hashtbl.remove vals r
  in
  (* open coalescing groups *)
  let module G = struct
    type t = {
      key : Lin.t * Lin.t * int * (Lin.leaf * int) list;
      mutable members : (int * int * int) list;  (* (idx, const, site), rev *)
      mutable gap : int;  (* 0 until the second member fixes it *)
      first : span_check;  (* span template from the first member *)
    }
  end in
  let groups : G.t list ref = ref [] in
  (* rewrites: idx -> Some span (replace) / None (delete) *)
  let rewrites : (int, inst option) Hashtbl.t = Hashtbl.create 8 in
  let close (g : G.t) =
    match g.G.members with
    | (_ :: _ :: _) as members ->
        let members = List.rev members in
        let i0, _, _ = List.hd members in
        let sites = List.map (fun (_, _, s) -> s) members in
        Hashtbl.replace rewrites i0
          (Some
             (CheckSpan
                {
                  g.G.first with
                  sp_count = ImmI (List.length members);
                  sp_stride = g.G.gap;
                  sp_sites = Array.of_list sites;
                }));
        List.iter
          (fun (i, _, _) -> if i <> i0 then Hashtbl.replace rewrites i None)
          (List.tl members)
    | _ -> ()
  in
  let close_all () =
    List.iter close !groups;
    groups := []
  in
  List.iteri
    (fun idx inst ->
      match inst with
      | Check (p, base, bound, w, site) -> (
          (match (expr_of p, expr_of base, expr_of bound) with
          | None, _, _ | _, None, _ | _, _, None -> close_all ()
          | Some e, Some be, Some de -> (
              (* keyed on the symbolic values of base/bound (not their
                 register identity: straight-line accesses re-derive the
                 same slot/global address into fresh registers) *)
              let key = (be, de, w, e.Lin.terms) in
              let mine, others =
                List.partition (fun g -> g.G.key = key) !groups
              in
              (* a check is a potential trap: no foreign group may span
                 across it *)
              List.iter close others;
              match mine with
              | g :: _ -> (
                  let _, last_k, _ = List.hd g.G.members in
                  let d = e.Lin.k - last_k in
                  let extends =
                    d >= 1 && (g.G.gap = 0 || d = g.G.gap)
                  in
                  if extends then begin
                    g.G.gap <- d;
                    g.G.members <- (idx, e.Lin.k, site) :: g.G.members;
                    groups := [ g ]
                  end
                  else begin
                    close g;
                    groups :=
                      [
                        {
                          G.key;
                          members = [ (idx, e.Lin.k, site) ];
                          gap = 0;
                          first =
                            {
                              sp_first = p;
                              sp_count = ImmI 1;
                              sp_stride = 0;
                              sp_width = w;
                              sp_base = base;
                              sp_bound = bound;
                              sp_site = site;
                              sp_sites = [||];
                            };
                        };
                      ]
                  end)
              | [] ->
                  groups :=
                    [
                      {
                        G.key;
                        members = [ (idx, e.Lin.k, site) ];
                        gap = 0;
                        first =
                          {
                            sp_first = p;
                            sp_count = ImmI 1;
                            sp_stride = 0;
                            sp_width = w;
                            sp_base = base;
                            sp_bound = bound;
                            sp_site = site;
                            sp_sites = [||];
                          };
                      };
                    ]));
          ())
      | CheckFptr _ | CheckSpan _ -> close_all ()
      | Call { rets; _ } ->
          close_all ();
          List.iter (fun r -> assign r None) rets
      | Bin (_, (Div | Rem), _, _, d) ->
          (match d with ImmI c when c <> 0 -> () | _ -> close_all ());
          (match def_expr inst with
          | Some (r, e) -> assign r e
          | None -> ())
      | _ -> (
          match def_expr inst with
          | Some (r, e) -> assign r e
          | None -> List.iter (fun r -> assign r None) (defs_of inst)))
    blk.insts;
  close_all ();
  if Hashtbl.length rewrites = 0 then blk
  else
    let insts =
      List.mapi
        (fun i x ->
          match Hashtbl.find_opt rewrites i with
          | Some (Some span) -> Some span
          | Some None -> None
          | None -> Some x)
        blk.insts
      |> List.filter_map Fun.id
    in
    { blk with insts }

(** Does [p] hold for at least two of [insts]? *)
let rec two (p : inst -> bool) = function
  | [] -> false
  | i :: rest -> if p i then List.exists p rest else two p rest

let coalesce_blocks (f : func) : func =
  (* a span needs two member checks: blocks with fewer stay as they are *)
  let check = function Check _ -> true | _ -> false in
  {
    f with
    fblocks =
      Array.map
        (fun blk -> if two check blk.insts then coalesce_block blk else blk)
        f.fblocks;
  }

(* ------------------------------------------------------------------ *)
(* Pass 2: within-block metadata-lookup CSE                             *)
(* ------------------------------------------------------------------ *)

let local_metaload_cse (f : func) : func =
  let rewrite blk =
    (* available lookups: address operand -> registers holding its
       base/bound, newest first *)
    let tbl = ref [] in
    let kill_reg r =
      tbl :=
        List.filter
          (fun (a, (b, e)) -> (not (equal_operand a (Reg r))) && b <> r && e <> r)
          !tbl
    in
    let rev =
      List.fold_left
        (fun acc inst ->
          match inst with
          | MetaLoad (rb, re, a, _) -> (
              match
                List.find_opt (fun (a0, _) -> equal_operand a0 a) !tbl
              with
              | Some (_, (b0, e0)) when b0 = rb && e0 = re ->
                  (* same destinations already hold this lookup *)
                  acc
              | Some (_, (b0, e0)) ->
                  kill_reg rb;
                  kill_reg re;
                  tbl := (a, (rb, re)) :: !tbl;
                  Mov (re, P, Reg e0) :: Mov (rb, P, Reg b0) :: acc
              | None ->
                  kill_reg rb;
                  kill_reg re;
                  tbl := (a, (rb, re)) :: !tbl;
                  inst :: acc)
          | MetaStore _ | Call _ | SetBoundMark _ ->
              tbl := [];
              inst :: acc
          | _ ->
              List.iter kill_reg (defs_of inst);
              inst :: acc)
        [] blk.insts
    in
    { blk with insts = List.rev rev }
  in
  (* a lookup is reused only from an earlier one in its block *)
  let metaload = function MetaLoad _ -> true | _ -> false in
  {
    f with
    fblocks =
      Array.map
        (fun blk -> if two metaload blk.insts then rewrite blk else blk)
        f.fblocks;
  }

(* ------------------------------------------------------------------ *)
(* Pass 3: available-checks dataflow and elimination                    *)
(* ------------------------------------------------------------------ *)

(* Facts are interned per function: [Avail (id, w)] makes fact [id]
   available with width [w] ([CheckFptr] facts use width 0, so any
   available instance covers a later identical one), and the facts a
   register definition kills are listed per register, so the kill step
   touches only the facts that mention a redefined register. *)

type fact =
  | FCheck of operand * operand * operand
  | FFptr of operand * operand * operand * int option

module IM = Map.Make (Int)

type event = Avail of int * int | Kill of reg list

let transfer kills m = function
  | Avail (id, w) ->
      let w' = match IM.find_opt id m with Some x -> max x w | None -> w in
      IM.add id w' m
  | Kill defs ->
      List.fold_left
        (fun m r -> List.fold_left (fun m id -> IM.remove id m) m kills.(r))
        m defs

(* Intersection meet: a fact is available with the weakest width any
   predecessor guarantees. *)
let meet a b =
  IM.merge
    (fun _ x y ->
      match (x, y) with Some x, Some y -> Some (min x y) | _ -> None)
    a b

let check_cse (f : func) (dom : Dom.t) : func =
  let ids = Hashtbl.create 16 in
  let kills = Array.make f.fnregs [] in
  let intern key ops =
    match Hashtbl.find_opt ids key with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids key id;
        List.iter (fun r -> kills.(r) <- id :: kills.(r)) (reg_ops ops);
        id
  in
  (* facts key on operands only: the site id names the instruction, it
     is not part of the checked predicate *)
  let event_of = function
    | Check (p, b, e, w, _) -> Avail (intern (FCheck (p, b, e)) [ p; b; e ], w)
    | CheckFptr (p, b, e, h, _) ->
        Avail (intern (FFptr (p, b, e, h)) [ p; b; e ], 0)
    | inst -> Kill (defs_of inst)
  in
  let events = Array.map (fun blk -> List.map event_of blk.insts) f.fblocks in
  (* a check is dropped only where an identical one reaches it, so a
     function in which every fact occurs once keeps all its checks *)
  let repeated () =
    let seen = Array.make (Hashtbl.length ids) false in
    Array.exists
      (List.exists (function
        | Avail (id, _) -> seen.(id) || (seen.(id) <- true; false)
        | Kill _ -> false))
      events
  in
  if not (repeated ()) then f
  else
    let n = Array.length f.fblocks in
    (* [None] is the optimistic top element (not yet computed); the meet
       ignores top predecessors, which is what makes back edges converge
       from above. *)
    let out = Array.make n None in
    let in_of b =
      if b = 0 then Some IM.empty
      else
        List.fold_left
          (fun acc p ->
            match out.(p) with
            | None -> acc
            | Some m -> (
                match acc with None -> Some m | Some a -> Some (meet a m)))
          None dom.Dom.preds.(b)
    in
    let changed = ref true in
    while !changed do
      changed := false;
      Array.iter
        (fun b ->
          match in_of b with
          | None -> ()
          | Some m ->
              let m' = List.fold_left (transfer kills) m events.(b) in
              let same =
                match out.(b) with
                | Some prev -> IM.equal Int.equal prev m'
                | None -> false
              in
              if not same then begin
                out.(b) <- Some m';
                changed := true
              end)
        dom.Dom.rpo
    done;
    let rewrite b blk =
      match if Dom.reachable dom b then in_of b else None with
      | None -> blk
      | Some m0 ->
          let _, rev =
            List.fold_left2
              (fun (m, acc) inst ev ->
                match ev with
                | Avail (id, w) when
                    (match IM.find_opt id m with
                    | Some w' -> w' >= w
                    | None -> false) ->
                    (m, acc)
                | _ -> (transfer kills m ev, inst :: acc))
              (m0, []) blk.insts events.(b)
          in
          { blk with insts = List.rev rev }
    in
    { f with fblocks = Array.mapi rewrite f.fblocks }

(* ------------------------------------------------------------------ *)
(* Entry point                                                          *)
(* ------------------------------------------------------------------ *)

let elim_func ~(meta_floor : int) ?(widen = true) (f : func) : func =
  let f, cfg = hoist_loops ~meta_floor f (cfg_of f) in
  let f, cfg = if widen then widen_loops f cfg else (f, cfg) in
  let f = if widen then coalesce_blocks f else f in
  let f = local_metaload_cse f in
  check_cse f cfg.dom

(** Static instrumentation census, for tests and reporting. *)
let count_insts (p : inst -> bool) (f : func) : int =
  Array.fold_left
    (fun acc blk ->
      acc + List.length (List.filter p blk.insts))
    0 f.fblocks

let count_checks =
  count_insts (function Check _ | CheckFptr _ -> true | _ -> false)

let count_metaloads = count_insts (function MetaLoad _ -> true | _ -> false)

(** Loop-widened spans: one preheader check standing for a whole loop's
    per-iteration checks (empty [sp_sites]). *)
let count_widened =
  count_insts (function
    | CheckSpan { sp_sites; _ } -> Array.length sp_sites = 0
    | _ -> false)

(** Checks saved by in-block coalescing: members beyond the first of
    each multi-site span. *)
let count_coalesced (f : func) : int =
  Array.fold_left
    (fun acc blk ->
      List.fold_left
        (fun acc inst ->
          match inst with
          | CheckSpan { sp_sites; _ } -> acc + max 0 (Array.length sp_sites - 1)
          | _ -> acc)
        acc blk.insts)
    0 f.fblocks
