(* CFG analysis over [Ir.func]: successors/predecessors, reverse
   postorder, dominator tree, natural loops.

   The dominator tree uses the Cooper–Harvey–Kennedy iterative algorithm
   ("A Simple, Fast Dominance Algorithm"): process blocks in reverse
   postorder, intersect the candidate dominators of each block's
   processed predecessors by walking up the current tree, repeat to a
   fixpoint.  On the reducible CFGs our structured lowering produces it
   converges in two passes; irreducible graphs are still handled
   correctly, just in a few more iterations.

   Everything here is positional: blocks are indexed into
   [func.fblocks], the entry block is index 0, and unreachable blocks
   are excluded from the reverse postorder (their [rpo_pos] and [idom]
   are -1, and they belong to no loop).  Consumers such as the
   redundant-check elimination pass skip them. *)

open Ir

(** Branch targets of a terminator, in CFG order (duplicates possible
    for [TBr c t t]-style degenerate branches and shared switch cases). *)
let succs_of_term (t : terminator) : int list =
  match t with
  | TRet _ | TUnreachable -> []
  | TJmp t -> [ t ]
  | TBr (_, t1, t2) -> [ t1; t2 ]
  | TSwitch (_, cases, d) -> List.map snd cases @ [ d ]

type t = {
  nblocks : int;
  succs : int list array;  (** deduplicated successor lists *)
  preds : int list array;  (** deduplicated predecessor lists *)
  rpo : int array;  (** [rpo.(i)] = id of the i-th block in reverse
                        postorder; covers reachable blocks only *)
  rpo_pos : int array;  (** block id -> position in [rpo], or -1 if the
                            block is unreachable from the entry *)
  idom : int array;  (** immediate dominator; the entry maps to itself,
                         unreachable blocks map to -1 *)
}

let dedup (l : int list) : int list =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc)
       [] l)

let compute (f : func) : t =
  let n = Array.length f.fblocks in
  let succs =
    Array.init n (fun i -> dedup (succs_of_term f.fblocks.(i).term))
  in
  let preds = Array.make n [] in
  Array.iteri
    (fun i ss -> List.iter (fun s -> preds.(s) <- i :: preds.(s)) ss)
    succs;
  Array.iteri (fun i l -> preds.(i) <- List.rev l) preds;
  (* Depth-first postorder from the entry; reversed = RPO. *)
  let visited = Array.make n false in
  let post = ref [] in
  (* Recursive: the depth is at most the block count.  OCaml 5 runs
     OCaml code on stacks that grow on demand up to the runtime's limit
     (OCAMLRUNPARAM l, 128M words by default), far beyond the blocks of
     any lowered function, so long straight-line chains cannot overflow.
     Successors are visited in list order: the resulting RPO positions
     order the instructions [Elim] hoists into a preheader. *)
  let rec dfs b =
    if not visited.(b) then begin
      visited.(b) <- true;
      List.iter dfs succs.(b);
      post := b :: !post
    end
  in
  if n > 0 then dfs 0;
  let rpo = Array.of_list !post in
  let rpo_pos = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_pos.(b) <- i) rpo;
  (* Cooper–Harvey–Kennedy. *)
  let idom = Array.make n (-1) in
  if n > 0 then idom.(0) <- 0;
  let rec intersect b1 b2 =
    if b1 = b2 then b1
    else if rpo_pos.(b1) > rpo_pos.(b2) then intersect idom.(b1) b2
    else intersect b1 idom.(b2)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> 0 then begin
          let new_idom =
            List.fold_left
              (fun acc p ->
                if idom.(p) = -1 then acc
                else match acc with
                  | None -> Some p
                  | Some a -> Some (intersect p a))
              None preds.(b)
          in
          match new_idom with
          | Some ni when idom.(b) <> ni ->
              idom.(b) <- ni;
              changed := true
          | _ -> ()
        end)
      rpo
  done;
  { nblocks = n; succs; preds; rpo; rpo_pos; idom }

let reachable (d : t) (b : int) : bool = d.rpo_pos.(b) >= 0

(** [dominates d a b]: every path from the entry to [b] passes through
    [a] (reflexive).  False if either block is unreachable. *)
let dominates (d : t) (a : int) (b : int) : bool =
  if not (reachable d a && reachable d b) then false
  else begin
    (* Walk b's dominator chain upward; a dominator always has a
       strictly smaller RPO position, so stop once we pass a's. *)
    let rec up x = x = a || (x <> 0 && d.rpo_pos.(x) > d.rpo_pos.(a)
                             && up d.idom.(x))
    in
    up b
  end

(* ------------------------------------------------------------------ *)
(* Natural loops                                                        *)
(* ------------------------------------------------------------------ *)

type loop = {
  header : int;
  body : bool array;  (** per-block membership, header included *)
  latches : int list;  (** in-loop sources of back edges to the header *)
  exits : int list;  (** in-loop blocks with a successor outside *)
}

let loop_size (l : loop) =
  Array.fold_left (fun acc m -> if m then acc + 1 else acc) 0 l.body

(** Natural loops of the CFG: one loop per header, merging the bodies of
    all back edges that share that header, sorted smallest-body-first so
    inner loops come before the loops that enclose them. *)
let natural_loops (d : t) : loop list =
  let back_edges =
    (* u -> v is a back edge when v dominates u. *)
    Array.to_list d.rpo
    |> List.concat_map (fun u ->
           List.filter_map
             (fun v -> if dominates d v u then Some (u, v) else None)
             d.succs.(u))
  in
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (u, v) ->
      let ls = try Hashtbl.find by_header v with Not_found -> [] in
      Hashtbl.replace by_header v (u :: ls))
    back_edges;
  let loops =
    Hashtbl.fold
      (fun header latches acc ->
        let body = Array.make d.nblocks false in
        body.(header) <- true;
        (* Blocks that reach a latch without passing through the header:
           walk predecessors backwards from each latch (recursively, like
           [compute]'s depth-first search). *)
        let rec add b =
          if not body.(b) then begin
            body.(b) <- true;
            List.iter add d.preds.(b)
          end
        in
        List.iter add latches;
        let exits = ref [] in
        Array.iteri
          (fun b inside ->
            if inside
               && List.exists (fun s -> not body.(s)) d.succs.(b)
            then exits := b :: !exits)
          body;
        { header; body; latches; exits = List.rev !exits } :: acc)
      by_header []
  in
  List.sort (fun a b -> compare (loop_size a) (loop_size b)) loops
