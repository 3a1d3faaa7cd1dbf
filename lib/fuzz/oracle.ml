(* Differential oracle: run one generated program in lock-step under
   every pipeline configuration and compare what should be identical.

   Seven runs per case:

   - [U]: uninstrumented.
   - Four full-checking runs crossing the metadata facility
     (shadow-space / hash-table) with the elimination pass (on / off).
   - Two store-only runs (shadow / hash).

   What must agree depends on what the generator promised:

   - The four full-checking runs must agree *exactly* — outcome string,
     program stdout, and live heap bytes at exit — with each other,
     always: neither the metadata facility nor check elimination may
     change observable behavior.  The two store-only runs likewise
     share one instrumented IR (the facility is a VM knob) and must
     agree with each other.
   - A [Safe] case additionally pins every instrumented run to the
     uninstrumented one: completeness says instrumentation never
     changes a correct program's behavior (paper section 4), and the
     heap-bytes comparison checks allocation conservation.
   - A [Trap_write] case must abort with a bounds violation in all six
     instrumented runs; a [Trap_read] only in the full-checking ones
     (store-only trades read checks away by design, section 3.5 — after
     the un-trapped read the store-only runs may legitimately diverge
     from [U], because they observe different stack leftovers). *)

module A = Cminus.Ast
module St = Interp.State
module Vm = Interp.Vm

type run_info = {
  tag : string;
  outcome : string;
  out : string;
  heap_live : int;
}

type finding = { cls : string; detail : string; runs : run_info list }

type verdict = Ok_ | Skip of string | Bug of finding

let full_configs : (string * Softbound.Config.options) list =
  let d = Softbound.Config.default in
  [
    ("F-shadow-elim", d);
    ("F-shadow-noelim", { d with eliminate_checks = false });
    ("F-hash-elim", { d with facility = Hash_table });
    ("F-hash-noelim", { d with facility = Hash_table; eliminate_checks = false });
  ]

let store_configs : (string * Softbound.Config.options) list =
  let s = Softbound.Config.store_only in
  [
    ("S-shadow", s);
    ("S-hash", { s with facility = Hash_table });
  ]

let info tag (r : Vm.result) =
  {
    tag;
    outcome = St.string_of_outcome r.Vm.outcome;
    out = r.Vm.stdout_text;
    heap_live = r.Vm.heap_live;
  }

let same a b = a.outcome = b.outcome && a.out = b.out && a.heap_live = b.heap_live

let is_bounds (r : Vm.result) =
  match r.Vm.outcome with St.Trapped (St.Bounds_violation _) -> true | _ -> false

let limited (r : Vm.result) =
  match r.Vm.outcome with
  | St.Trapped St.Step_limit | St.Trapped St.Out_of_memory -> true
  | _ -> false

let clip s = if String.length s <= 160 then s else String.sub s 0 160 ^ "..."

let describe i =
  Printf.sprintf "%s: %s | heap %d | out %S" i.tag i.outcome i.heap_live
    (clip i.out)

(* first pair in the group whose observations differ, if any *)
let disagreement = function
  | [] -> None
  | x :: rest ->
      List.find_opt (fun y -> not (same x y)) rest
      |> Option.map (fun y -> (x, y))

let frontend_error (f : unit -> 'a) : ('a, string) result =
  let at (l : Cminus.Lexer.loc) = Printf.sprintf "%d:%d" l.line l.col in
  try Ok (f ()) with
  | Cminus.Lexer.Lex_error (m, l) -> Error (Printf.sprintf "lex %s: %s" (at l) m)
  | Cminus.Parser.Parse_error (m, l) ->
      Error (Printf.sprintf "parse %s: %s" (at l) m)
  | Cminus.Typecheck.Error (m, l) ->
      Error (Printf.sprintf "typecheck %s: %s" (at l) m)
  | Cminus.Ctypes.Type_error m -> Error (Printf.sprintf "type: %s" m)
  | Sbir.Lower.Error m -> Error (Printf.sprintf "lower: %s" m)
  | Sbir.Ir.Invalid m -> Error (Printf.sprintf "ir: %s" m)

(* The fixed SoftBound-configuration half of the oracle.  [extras]
   rides along only so its runs appear in the resource-limit skip and
   in every finding's [runs] — per-scheme classification happens in
   {!check}. *)
let lockstep ~(expect : Gen.expect) ~u ~fulls ~stores ~extras : verdict =
  let all = ("U", u) :: (fulls @ stores @ extras) in
  let infos = List.map (fun (t, r) -> info t r) all in
  let ui = info "U" u in
  let fis = List.map (fun (t, r) -> info t r) fulls in
  let sis = List.map (fun (t, r) -> info t r) stores in
  let f0 = snd (List.hd fulls) in
  let s0 = snd (List.hd stores) in
  let bug cls detail = Bug { cls; detail; runs = infos } in
  if List.exists (fun (_, r) -> limited r) all then
    Skip
      (Printf.sprintf "resource limit: %s"
         (String.concat "; " (List.map describe infos)))
  else begin
    match (disagreement fis, disagreement sis) with
    | Some (a, b), _ ->
        bug "full-configs-disagree"
          (Printf.sprintf "%s / %s" (describe a) (describe b))
    | _, Some (a, b) ->
        bug "store-configs-disagree"
          (Printf.sprintf "%s / %s" (describe a) (describe b))
    | None, None -> (
        match expect with
        | Gen.Safe ->
            if not (same ui (List.hd fis)) then
              if is_bounds f0 then
                bug "false-positive"
                  (Printf.sprintf "%s / %s" (describe ui)
                     (describe (List.hd fis)))
              else
                bug "unsafe-divergence"
                  (Printf.sprintf "%s / %s" (describe ui)
                     (describe (List.hd fis)))
            else if not (same ui (List.hd sis)) then
              bug "store-divergence"
                (Printf.sprintf "%s / %s" (describe ui)
                   (describe (List.hd sis)))
            else Ok_
        | Gen.Trap_write ->
            if not (is_bounds f0) then
              bug "missed-detection"
                (Printf.sprintf "expected bounds trap on write; %s"
                   (describe (List.hd fis)))
            else if not (is_bounds s0) then
              bug "missed-detection-store"
                (Printf.sprintf "store-only must catch OOB writes; %s"
                   (describe (List.hd sis)))
            else Ok_
        | Gen.Trap_read ->
            if not (is_bounds f0) then
              bug "missed-detection"
                (Printf.sprintf "expected bounds trap on read; %s"
                   (describe (List.hd fis)))
            else Ok_)
  end

(** Print, compile, and cross-check one generated program: the seven
    configurations above, plus each of [schemes] (none by default; the
    N-scheme campaign passes {!Schemes.all}) with an explicit
    expected-divergence model.  For each extra scheme:

    - On a [Safe] case every scheme must neither trap (per-scheme
      ["false-positive:<name>"]) nor diverge from the uninstrumented
      run (["unsafe-divergence:<name>"]).
    - On an injected case with [~sub_object:false], schemes whose
      detection is landing-independent ([guaranteed_detect]: the
      transform schemes, whose per-pointer provenance bounds travel
      with the pointer) must trap — a silent run is
      ["missed-detection:<name>"].  Landing-dependent plugins may trap
      (documented coverage) or must match the uninstrumented run.
    - On a sub-object case ([~sub_object:true], an overflow that stays
      inside its allocation) every object-granularity scheme
      ([misses_sub_object]) must stay *silent* — a trap means the gap
      model, or the scheme, is wrong (["gap-model-violated:<name>"]) —
      and its run must match the uninstrumented one.  Only SoftBound's
      shrunken bounds catch these (Table 4).

    Any divergence outside this model is a real bug. *)
let check ?(max_steps = 20_000_000) ?poll ?(schemes = [])
    ?(sub_object = false) ~(expect : Gen.expect) (prog : A.program) : verdict =
  (* [poll] threads straight into every configuration's VM run, so a
     serve fuzz job's wall-clock deadline interrupts the oracle
     mid-campaign instead of waiting out the step budget *)
  let src = Cminus.Pretty.program_string prog in
  match frontend_error (fun () -> Softbound.compile src) with
  | Error msg -> Bug { cls = "frontend-reject"; detail = msg; runs = [] }
  | Ok m -> (
      let cfg = { St.default_config with St.max_steps; poll } in
      let attempt () =
        let u = Softbound.run_unprotected ~cfg m in
        let run_opts (tag, opts) = (tag, Softbound.run_protected ~opts ~cfg m) in
        let fulls = List.map run_opts full_configs in
        let stores = List.map run_opts store_configs in
        let extras =
          List.map
            (fun (e : Schemes.entry) -> (e, Schemes.run ~cfg e m))
            schemes
        in
        (u, fulls, stores, extras)
      in
      match frontend_error attempt with
      | Error msg -> Bug { cls = "frontend-reject"; detail = msg; runs = [] }
      | Ok (u, fulls, stores, extras) ->
          let extra_runs =
            List.map (fun ((e : Schemes.entry), r) -> (e.Schemes.sname, r)) extras
          in
          match lockstep ~expect ~u ~fulls ~stores ~extras:extra_runs with
          | (Skip _ | Bug _) as v -> v
          | Ok_ ->
              let infos =
                List.map
                  (fun (t, r) -> info t r)
                  (("U", u) :: (fulls @ stores @ extra_runs))
              in
              let ui = info "U" u in
              let bug cls detail = Bug { cls; detail; runs = infos } in
              let rec go = function
                | [] -> Ok_
                | ((e : Schemes.entry), r) :: rest -> (
                    let name = e.Schemes.sname in
                    let i = info name r in
                    let det = Schemes.detected r in
                    match expect with
                    | Gen.Safe ->
                        if det then bug ("false-positive:" ^ name) (describe i)
                        else if not (same ui i) then
                          bug
                            ("unsafe-divergence:" ^ name)
                            (Printf.sprintf "%s / %s" (describe ui)
                               (describe i))
                        else go rest
                    | Gen.Trap_read | Gen.Trap_write ->
                        if sub_object && e.Schemes.misses_sub_object then
                          if det then
                            bug
                              ("gap-model-violated:" ^ name)
                              (Printf.sprintf
                                 "object-granularity scheme trapped on a \
                                  sub-object overflow; %s"
                                 (describe i))
                          else if not (same ui i) then
                            bug
                              ("unsafe-divergence:" ^ name)
                              (Printf.sprintf "%s / %s" (describe ui)
                                 (describe i))
                          else go rest
                        else if det then go rest
                        else if e.Schemes.guaranteed_detect then
                          bug
                            ("missed-detection:" ^ name)
                            (Printf.sprintf
                               "expected a trap on the injected OOB %s; %s"
                               (match expect with
                               | Gen.Trap_write -> "write"
                               | _ -> "read")
                               (describe i))
                        else if not (same ui i) then
                          bug
                            ("unsafe-divergence:" ^ name)
                            (Printf.sprintf "%s / %s" (describe ui)
                               (describe i))
                        else go rest)
              in
              go extras)
