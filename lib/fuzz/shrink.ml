(* Greedy test-case minimizer.

   Given a program the oracle flagged, repeatedly try one-step
   simplifications — delete a global definition, delete a window of
   statements, replace a control-flow construct by its body — and keep
   any that still reproduces a finding of the *same class*.  Candidates
   that no longer compile are rejected automatically (the oracle
   classifies them as a different finding or none), so the edits don't
   need to preserve well-formedness themselves.

   Each candidate costs a full oracle evaluation (seven VM runs), so
   the search is bounded by an oracle-call budget rather than a size
   target. *)

module A = Cminus.Ast

let window_sizes = [ 8; 4; 2; 1 ]

let zero =
  { A.edesc = A.Eintlit (0L, Cminus.Ctypes.IInt); eloc = Cminus.Lexer.no_loc }

let is_zero_init = function
  | Some (A.Iexpr { A.edesc = A.Eintlit (0L, _); _ }) -> true
  | _ -> false

(* all lists obtained by deleting a window or simplifying one element *)
let rec list_variants (ss : A.stmt list) : A.stmt list list =
  let n = List.length ss in
  let windows =
    List.concat_map
      (fun w ->
        if w > n then []
        else
          List.init
            (n - w + 1)
            (fun i -> List.filteri (fun j _ -> j < i || j >= i + w) ss))
      window_sizes
  in
  let subs =
    List.concat
      (List.mapi
         (fun i s ->
           List.map
             (fun s' -> List.mapi (fun j x -> if j = i then s' else x) ss)
             (stmt_variants s))
         ss)
  in
  windows @ subs

(* simpler statements that might preserve the failure *)
and stmt_variants (s : A.stmt) : A.stmt list =
  let mk d = { s with A.sdesc = d } in
  match s.A.sdesc with
  | A.Sif (c, t, None) ->
      t :: List.map (fun t' -> mk (A.Sif (c, t', None))) (stmt_variants t)
  | A.Sif (c, t, Some f) ->
      [ t; f; mk (A.Sif (c, t, None)) ]
      @ List.map (fun t' -> mk (A.Sif (c, t', Some f))) (stmt_variants t)
      @ List.map (fun f' -> mk (A.Sif (c, t, Some f'))) (stmt_variants f)
  | A.Swhile (c, b) ->
      b :: List.map (fun b' -> mk (A.Swhile (c, b'))) (stmt_variants b)
  | A.Sdo (b, c) ->
      b :: List.map (fun b' -> mk (A.Sdo (b', c))) (stmt_variants b)
  | A.Sfor (i, c, st, b) ->
      b :: List.map (fun b' -> mk (A.Sfor (i, c, st, b'))) (stmt_variants b)
  | A.Sblock [ one ] -> [ one ]
  | A.Sblock ss -> List.map (fun ss' -> mk (A.Sblock ss')) (list_variants ss)
  | A.Sdecl ds ->
      (* zeroing an initializer detaches the declaration from whatever
         computed it, letting that computation (often a whole helper
         function) be deleted in a later step *)
      List.concat
        (List.mapi
           (fun i d ->
             if d.A.dinit = None || is_zero_init d.A.dinit then []
             else
               [
                 mk
                   (A.Sdecl
                      (List.mapi
                         (fun j x ->
                           if j = i then
                             { x with A.dinit = Some (A.Iexpr zero) }
                           else x)
                         ds));
               ])
           ds)
  | _ -> []

let program_variants (p : A.program) : A.program list =
  let defs = p.A.defs in
  let removals =
    List.concat
      (List.mapi
         (fun i d ->
           match d with
           | A.Gfun f when f.A.fname = "main" -> []
           | _ -> [ { p with A.defs = List.filteri (fun j _ -> j <> i) defs } ])
         defs)
  in
  let body_edits =
    List.concat
      (List.mapi
         (fun i d ->
           match d with
           | A.Gfun f ->
               List.map
                 (fun body ->
                   {
                     p with
                     A.defs =
                       List.mapi
                         (fun j x ->
                           if j = i then A.Gfun { f with A.fbody = body } else x)
                         defs;
                   })
                 (list_variants f.A.fbody)
           | _ -> [])
         defs)
  in
  removals @ body_edits

(** Minimize [p] while the oracle keeps reporting class [cls] for the
    same expectation.  Returns the smallest program found within the
    oracle-call [budget].  [oracle] overrides the verdict function
    (default {!Oracle.check} with [expect]) — the matrix campaign
    passes its scheme-list oracle so per-scheme classes shrink under
    the oracle that found them. *)
let minimize ?(budget = 250) ?max_steps ?oracle ~(expect : Gen.expect)
    ~(cls : string) (p : A.program) : A.program =
  let verdict_of =
    match oracle with
    | Some f -> f
    | None -> fun prog -> Oracle.check ?max_steps ~expect prog
  in
  let budget = ref budget in
  let keeps prog =
    !budget > 0
    &&
    begin
      decr budget;
      match verdict_of prog with
      | Oracle.Bug f -> f.Oracle.cls = cls
      | Oracle.Ok_ | Oracle.Skip _ -> false
    end
  in
  let rec go p =
    if !budget <= 0 then p
    else
      match List.find_opt keeps (program_variants p) with
      | Some p' -> go p'
      | None -> p
  in
  go p
