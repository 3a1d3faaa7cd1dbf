(* Campaign driver: generate, cross-check, shrink, report.

   Program [k] of a campaign draws from [Rng.split root k], so any
   finding replays in isolation: the same seed and index always
   regenerate the same program. *)

(* [fuzz]'s root module: re-export the pieces. *)
module Rng = Rng
module Gen = Gen
module Oracle = Oracle
module Shrink = Shrink
module Adversary = Adversary

let expect_name = function
  | Gen.Safe -> "safe"
  | Gen.Trap_read -> "oob-read"
  | Gen.Trap_write -> "oob-write"

type finding_report = {
  index : int;  (** case number within the campaign *)
  note : string;  (** generator's description of the case *)
  expect : Gen.expect;
  cls : string;
  detail : string;
  source : string;  (** the program as generated *)
  shrunk : string option;  (** minimized reproducer, when shrinking ran *)
}

type report = {
  seed : int;
  count : int;
  matrix : bool;  (** ran under the N-scheme oracle *)
  tested : int;  (** cases that ran to a verdict *)
  skipped : int;  (** cases dropped for hitting resource limits *)
  trap_cases : int;  (** cases carrying an injected violation *)
  findings : finding_report list;
}

(** Regenerate case [index] of campaign [seed] (for replaying a
    reported finding). *)
let case_of ~seed ~index : Gen.case =
  let root = Rng.create seed in
  let r = Rng.split root index in
  let oob = Rng.chance r ~pct:30 in
  Gen.generate r ~oob

(** Per-case verdict, produced independently of every other case. *)
type outcome = O_tested | O_skipped | O_finding of finding_report

(** Evaluate case [k] to an outcome.  Self-contained: the case is
    regenerated from [seed]/[k] and the oracle builds fresh pipelines
    and VM states, so outcomes are independent of evaluation order —
    which is what lets a campaign fan out across domains.  With
    [~matrix:true] the oracle also runs every registry scheme (the
    N-scheme oracle). *)
let eval_case ?(shrink = true) ?(matrix = false) ?max_steps ?poll
    ?(shrink_budget = 250) ~seed k : bool * outcome =
  let case = case_of ~seed ~index:k in
  let is_trap = case.Gen.expect <> Gen.Safe in
  let oracle =
    Oracle.check ?max_steps ?poll
      ~schemes:(if matrix then Schemes.all else [])
      ~sub_object:case.Gen.sub_object ~expect:case.Gen.expect
  in
  let verdict =
    try oracle case.Gen.prog
    with e ->
      Oracle.Bug
        {
          Oracle.cls = "harness-exception";
          detail = Printexc.to_string e;
          runs = [];
        }
  in
  let outcome =
    match verdict with
    | Oracle.Ok_ -> O_tested
    | Oracle.Skip _ -> O_skipped
    | Oracle.Bug f ->
        let source = Cminus.Pretty.program_string case.Gen.prog in
        let shrunk =
          if not shrink then None
          else
            let small =
              try
                Shrink.minimize ~oracle ?max_steps ~budget:shrink_budget
                  ~expect:case.Gen.expect ~cls:f.Oracle.cls case.Gen.prog
              with _ -> case.Gen.prog
            in
            Some (Cminus.Pretty.program_string small)
        in
        O_finding
          {
            index = k;
            note = case.Gen.note;
            expect = case.Gen.expect;
            cls = f.Oracle.cls;
            detail = f.Oracle.detail;
            source;
            shrunk;
          }
  in
  (is_trap, outcome)

let run_campaign ?(shrink = true) ?(matrix = false) ?max_steps ?poll
    ?(shrink_budget = 250) ?(progress = fun (_ : int) -> ()) ?(jobs = 1) ~seed
    ~count () : report =
  (* [jobs <= 1] runs inline on this domain; otherwise cases fan out via
     {!Parutil.parmap}, whose results come back in case order — so the
     fold below (and hence the report) is identical either way.
     [progress] only ticks on the sequential path: with workers racing
     through the queue there is no meaningful "current case". *)
  let outcomes =
    if jobs <= 1 then
      List.init count (fun k ->
          progress k;
          eval_case ~shrink ~matrix ?max_steps ?poll ~shrink_budget ~seed k)
    else
      Parutil.parmap ~jobs
        (eval_case ~shrink ~matrix ?max_steps ?poll ~shrink_budget ~seed)
        (List.init count Fun.id)
  in
  let tested = ref 0 and skipped = ref 0 and traps = ref 0 in
  let findings = ref [] in
  List.iter
    (fun (is_trap, outcome) ->
      if is_trap then incr traps;
      match outcome with
      | O_tested -> incr tested
      | O_skipped -> incr skipped
      | O_finding f ->
          incr tested;
          findings := f :: !findings)
    outcomes;
  {
    seed;
    count;
    matrix;
    tested = !tested;
    skipped = !skipped;
    trap_cases = !traps;
    findings = List.rev !findings;
  }

let render_finding (f : finding_report) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "FINDING case=%d class=%s expect=%s (%s)\n  %s\n" f.index
       f.cls (expect_name f.expect) f.note f.detail);
  let body = Option.value f.shrunk ~default:f.source in
  Buffer.add_string b "  reproducer:\n";
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         Buffer.add_string b "    ";
         Buffer.add_string b line;
         Buffer.add_char b '\n');
  Buffer.contents b

let render (r : report) : string =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "fuzz%s: seed=%d count=%d tested=%d skipped=%d injected=%d findings=%d\n"
       (if r.matrix then " (N-scheme matrix)" else "")
       r.seed r.count r.tested r.skipped r.trap_cases (List.length r.findings));
  List.iter (fun f -> Buffer.add_string b (render_finding f)) r.findings;
  Buffer.contents b
