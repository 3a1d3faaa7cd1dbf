(* Test entry point: all suites. *)

let () =
  Alcotest.run "softbound"
    [
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("typecheck", Test_typecheck.suite);
      ("machine", Test_machine.suite);
      ("lower+inline", Test_lower.suite);
      ("interp", Test_interp.suite);
      ("softbound", Test_softbound.suite);
      ("elim", Test_elim.suite);
      ("elim-props", Test_elim_props.suite);
      ("obs", Test_obs.suite);
      ("roundtrip", Test_roundtrip.suite);
      ("baselines", Test_baselines.suite);
      ("attacks", Test_attacks.suite);
      ("workloads", Test_workloads.suite);
      ("formal", Test_formal.suite);
      ("properties", Test_props.suite);
      ("fuzz", Test_fuzz.suite);
      ("schemes", Test_schemes.suite);
      ("engines", Test_engines.suite);
      ("adversary", Test_adversary.suite);
      ("parallel", Test_par.suite);
      ("serve", Test_serve.suite);
      ("artifacts", Test_artifacts.suite);
    ]
