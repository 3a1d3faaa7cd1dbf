(* N-scheme matrix tests.

   The completeness-gap matrix: the four fixed attack programs
   (Schemes.gap_attacks) run under every scheme on the Runner axis, and
   every Detected/survived cell is pinned exactly — SoftBound full
   checking is the only configuration besides store-only that sees the
   sub-object overflow, store-only is blind to the read attack, and the
   memcheck-like redzone checker misses stack and underflow attacks.
   If a scheme's coverage shifts, these tests force the diff to be
   reviewed, exactly like a golden file.

   The N-scheme differential oracle: a bounded seeded campaign over the
   full matrix must classify every divergence as a documented gap (zero
   findings), and a deliberately injected scheme bug (CGuard silently
   skipping read checks, behind a test hook) must be flagged as
   missed-detection.

   Golden/expect: profile JSON and trap traces for the three
   related-work schemes on the two fixed attack programs, pinned
   byte-for-byte under test/golden/ (regenerate with gen_golden). *)

module Gen = Fuzz.Gen
module Oracle = Fuzz.Oracle

let tc name f = Alcotest.test_case name `Quick f

(* ---- registry sanity ---- *)

let registry_tests =
  [
    tc "registry: names are distinct and findable" (fun () ->
        let names = Schemes.names () in
        Alcotest.(check int)
          "count" 7 (List.length names);
        Alcotest.(check int)
          "distinct"
          (List.length names)
          (List.length (List.sort_uniq compare names));
        List.iter
          (fun n ->
            match Schemes.find n with
            | Some e -> Alcotest.(check string) "roundtrip" n e.Schemes.sname
            | None -> Alcotest.fail ("find lost " ^ n))
          names);
    tc "registry: every scheme documents the sub-object gap" (fun () ->
        List.iter
          (fun e ->
            Alcotest.(check bool)
              (e.Schemes.sname ^ " misses sub-object")
              true e.Schemes.misses_sub_object)
          (Schemes.all ()));
    tc "registry: transform schemes use whole-object bounds" (fun () ->
        List.iter
          (fun e ->
            match e.Schemes.impl with
            | Schemes.Transform opts ->
                Alcotest.(check bool)
                  (e.Schemes.sname ^ " shrink_bounds off")
                  false opts.Softbound.Config.shrink_bounds
            | Schemes.Plugin _ -> ())
          (Schemes.all ()));
  ]

(* ---- the completeness-gap matrix, every cell pinned ---- *)

(* expected Detected cells per attack, in Exp_schemes.schemes order:
   [sb-full; sb-store; mscc; cguard; framer; l4-pointer; jones-kelly;
   memcheck-like; mudflap-like] *)
let expected_matrix =
  [
    (* only per-pointer bounds shrunk to the field see an overflow that
       stays inside the allocation (Table 4's sub-object row) *)
    ( "sub-object-overflow",
      [ true; true; false; false; false; false; false; false; false ] );
    (* a classic adjacent-block heap overflow: everyone sees it *)
    ( "adjacent-heap-overflow",
      [ true; true; true; true; true; true; true; true; true ] );
    (* underflow below the block: the memcheck-like checker only pads
       the far end of heap blocks with a redzone *)
    ( "heap-underflow",
      [ true; true; true; true; true; true; true; false; true ] );
    (* an out-of-bounds *read*: store-only checking skips it by design,
       and the heap-only redzone checker cannot see stack accesses *)
    ( "off-by-one-read",
      [ true; false; true; true; true; true; true; false; true ] );
  ]

let gap_matrix_tests =
  [
    tc "gap matrix: every cell is exactly as documented" (fun () ->
        List.iter
          (fun (attack, src) ->
            let m = Softbound.compile src in
            let expected =
              match List.assoc_opt attack expected_matrix with
              | Some cells -> cells
              | None -> Alcotest.fail ("no expectation for " ^ attack)
            in
            List.iter2
              (fun (sname, scheme) want ->
                let det =
                  Harness.Runner.detected
                    (Harness.Runner.verdict_of (Harness.Runner.run scheme m))
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s under %s" attack sname)
                  want det)
              Harness.Exp_schemes.schemes expected)
          Schemes.gap_attacks);
    tc "gap matrix: full SoftBound strictly dominates every other scheme"
      (fun () ->
        (* SoftBound full checking detects all four attacks, and every
           other scheme misses at least one it catches *)
        List.iter
          (fun (_, cells) ->
            Alcotest.(check bool) "sb-full detects" true (List.nth cells 0))
          expected_matrix;
        List.iteri
          (fun i (sname, _) ->
            if i > 0 then
              Alcotest.(check bool)
                (sname ^ " misses something sb-full catches")
                true
                (List.exists
                   (fun (_, cells) -> not (List.nth cells i))
                   expected_matrix))
          Harness.Exp_schemes.schemes);
    tc "gap matrix: surviving attacks still corrupt under no protection"
      (fun () ->
        (* sanity that the attacks are real violations: the adjacent
           heap overflow is detected by every scheme but runs to
           completion unprotected *)
        let src = List.assoc "adjacent-heap-overflow" Schemes.gap_attacks in
        let r =
          Harness.Runner.run Harness.Runner.Unprotected
            (Softbound.compile src)
        in
        match r.Interp.Vm.outcome with
        | Interp.State.Exit 0 -> ()
        | o ->
            Alcotest.fail
              ("unprotected run should survive: "
              ^ Interp.State.string_of_outcome o));
  ]

(* ---- golden: the related-work schemes on the fixed attacks ---- *)

let golden = Committed.check_golden
let compile_golden = Committed.compile_golden

let scheme_opts =
  [
    ("cguard", Schemes.Cguard.options ());
    ("framer", Schemes.Framer.options ());
    ("l4-pointer", Schemes.L4_pointer.options ());
  ]

let golden_tests =
  List.concat_map
    (fun prog ->
      List.concat_map
        (fun (sname, opts) ->
          [
            tc
              (Printf.sprintf "golden: %s metrics JSON under %s" prog sname)
              (fun () ->
                let p =
                  Harness.Profile.profile ~label:(prog ^ ".c") ~opts
                    (compile_golden (prog ^ ".c"))
                in
                golden
                  (Printf.sprintf "%s.%s.profile.json" prog sname)
                  (Harness.Json.pretty (Harness.Profile.to_json p)));
            tc
              (Printf.sprintf "golden: %s trap trace under %s" prog sname)
              (fun () ->
                let cfg =
                  { Interp.State.default_config with
                    Interp.State.trace_depth = 16 }
                in
                let p =
                  Harness.Profile.profile ~label:(prog ^ ".c") ~opts ~cfg
                    ~with_baseline:false
                    (compile_golden (prog ^ ".c"))
                in
                golden
                  (Printf.sprintf "%s.%s.trace.txt" prog sname)
                  (Obs.dump_trace
                     p.Harness.Profile.result.Interp.Vm.obs));
          ])
        scheme_opts)
    [ "oob_write"; "oob_read" ]

(* ---- the N-scheme differential oracle ---- *)

let rd_program () =
  Cminus.Parser.parse_string
    "int main(void) { long a[4]; long i; for (i = 0; i < 4; i = i + 1) \
     a[i] = i; long x = a[6]; return (int)(x & 0); }"

let oracle_tests =
  [
    Alcotest.test_case "matrix campaign: zero unexplained divergences" `Slow
      (fun () ->
        let r =
          Fuzz.run_campaign ~matrix:true ~shrink:false ~seed:1 ~count:200 ()
        in
        (match r.Fuzz.findings with
        | [] -> ()
        | f :: _ ->
            Alcotest.fail
              (Printf.sprintf "unexplained divergence (%d total), first: %s"
                 (List.length r.Fuzz.findings)
                 (Fuzz.render_finding f)));
        Alcotest.(check bool) "matrix mode recorded" true r.Fuzz.matrix;
        Alcotest.(check int) "all cases ran" 200
          (r.Fuzz.tested + r.Fuzz.skipped);
        Alcotest.(check bool) "some cases injected violations" true
          (r.Fuzz.trap_cases > 0));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:30
         ~name:"matrix oracle: random cases classify clean"
         QCheck.(int_range 5000 6000)
         (fun seed ->
           let r = Fuzz.Rng.split (Fuzz.Rng.create seed) 0 in
           let oob = Fuzz.Rng.chance r ~pct:40 in
           let case = Gen.generate r ~oob in
           match
             Oracle.check_matrix ~expect:case.Gen.expect
               ~sub_object:case.Gen.sub_object case.Gen.prog
           with
           | Oracle.Ok_ | Oracle.Skip _ -> true
           | Oracle.Bug f ->
               QCheck.Test.fail_reportf "%s: %s" f.Oracle.cls f.Oracle.detail));
    tc "matrix oracle: injected scheme bug is flagged" (fun () ->
        (* silently drop CGuard's read checks behind the test hook: the
           oracle must notice the missed detection on a read attack *)
        let prog = rd_program () in
        (match
           Oracle.check_matrix ~expect:Gen.Trap_read ~sub_object:false prog
         with
        | Oracle.Ok_ -> ()
        | Oracle.Bug f ->
            Alcotest.fail ("clean run flagged: " ^ f.Oracle.cls)
        | Oracle.Skip why -> Alcotest.fail ("skipped: " ^ why));
        Fun.protect
          ~finally:(fun () -> Schemes.Cguard.test_skip_read_checks := false)
          (fun () ->
            Schemes.Cguard.test_skip_read_checks := true;
            match
              Oracle.check_matrix ~expect:Gen.Trap_read ~sub_object:false
                prog
            with
            | Oracle.Bug f ->
                Alcotest.(check string)
                  "class" "missed-detection:cguard" f.Oracle.cls
            | Oracle.Ok_ ->
                Alcotest.fail "oracle accepted a scheme that skips checks"
            | Oracle.Skip why -> Alcotest.fail ("skipped: " ^ why)));
    tc "matrix oracle: sub-object trap by a gap scheme is a model violation"
      (fun () ->
        (* the other direction of the gap model: a whole-object scheme
           that traps on a sub-object attack contradicts its documented
           gap, and the oracle says so *)
        let sub_src = List.assoc "sub-object-overflow" Schemes.gap_attacks in
        let prog = Cminus.Parser.parse_string sub_src in
        match
          Oracle.check_matrix ~expect:Gen.Trap_write ~sub_object:true prog
        with
        | Oracle.Ok_ -> ()
        | Oracle.Bug f ->
            Alcotest.fail (f.Oracle.cls ^ ": " ^ f.Oracle.detail)
        | Oracle.Skip why -> Alcotest.fail ("skipped: " ^ why));
  ]

let suite = registry_tests @ gap_matrix_tests @ golden_tests @ oracle_tests
