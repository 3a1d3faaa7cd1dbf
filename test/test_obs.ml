(* Observability-layer tests.

   Golden/expect: the metrics JSON and the trap-time trace dump for two
   fixed attack programs are pinned byte-for-byte under test/golden/.
   If an intentional cost-model or collector change shifts them,
   regenerate with the commands noted next to each file and review the
   diff — that review is the point of the golden test.

   Invariants: the collector is purely observational (identical
   simulated results with it off), attribution covers at least 95% of
   executed checks/metadata operations on every workload, and the
   harness performs exactly one transform per (program, elimination)
   pair however many configurations run. *)

module S = Interp.State

let tc name f = Alcotest.test_case name `Quick f

let golden = Committed.check_golden
let compile_golden = Committed.compile_golden

(* ---- golden: metrics JSON ---- *)
(* regenerate: dune exec bin/softbound_cli.exe -- profile \
     test/golden/<name>.c --json > test/golden/<name>.profile.json *)

let profile_json name =
  let p = Harness.Profile.profile ~label:name (compile_golden name) in
  Harness.Json.pretty (Harness.Profile.to_json p)

(* ---- golden: trap-time trace dump ---- *)
(* regenerate: dune exec test/gen_golden.exe (see that file) *)

let trace_dump name =
  let cfg = { S.default_config with S.trace_depth = 16 } in
  let p =
    Harness.Profile.profile ~label:name ~cfg ~with_baseline:false
      (compile_golden name)
  in
  Obs.dump_trace p.Harness.Profile.result.Interp.Vm.obs

(* ---- invariance / attribution / cache ---- *)

let full_hash =
  { Softbound.Config.default with
    Softbound.Config.facility = Softbound.Config.Hash_table }

(* every purely-observational invariant must hold under both execution
   engines — the collector hooks sit on different code paths in the
   threaded-code and decoding engines *)
let engines = [ S.Eng_decode; S.Eng_closure ]

let same_simulation ?(engine = S.Eng_closure) src opts =
  let m = Softbound.compile src in
  let cfg_on = { S.default_config with S.engine } in
  let cfg_off = { cfg_on with S.obs_enabled = false } in
  let a = Softbound.run_protected ~opts ~cfg:cfg_on m in
  let b = Softbound.run_protected ~opts ~cfg:cfg_off m in
  Alcotest.(check string) "outcome"
    (S.string_of_outcome a.Interp.Vm.outcome)
    (S.string_of_outcome b.Interp.Vm.outcome);
  Alcotest.(check string) "stdout" a.Interp.Vm.stdout_text
    b.Interp.Vm.stdout_text;
  Alcotest.(check int) "cycles" a.Interp.Vm.stats.S.cycles
    b.Interp.Vm.stats.S.cycles;
  Alcotest.(check int) "insts" a.Interp.Vm.stats.S.insts
    b.Interp.Vm.stats.S.insts;
  Alcotest.(check int) "checks" a.Interp.Vm.stats.S.checks
    b.Interp.Vm.stats.S.checks;
  Alcotest.(check int) "cache hits" a.Interp.Vm.cache_hits
    b.Interp.Vm.cache_hits;
  Alcotest.(check int) "cache misses" a.Interp.Vm.cache_misses
    b.Interp.Vm.cache_misses

let loopy =
  "int main(void) { int a[64]; int *p = (int*)malloc(4); int i; \
   for (i = 0; i < 100; i++) { a[i % 64] = i; a[i % 64] += 3; \
   *p = *p + a[i % 64]; } printf(\"%d\\n\", *p); return 0; }"

let suite =
  [
    tc "golden: oob_write metrics JSON" (fun () ->
        golden "oob_write.profile.json" (profile_json "oob_write.c"));
    tc "golden: oob_read metrics JSON" (fun () ->
        golden "oob_read.profile.json" (profile_json "oob_read.c"));
    tc "golden: oob_write trap trace" (fun () ->
        golden "oob_write.trace.txt" (trace_dump "oob_write.c"));
    tc "golden: oob_read trap trace" (fun () ->
        golden "oob_read.trace.txt" (trace_dump "oob_read.c"));
    tc "metrics JSON is run-to-run deterministic" (fun () ->
        Alcotest.(check string)
          "two same-seed profiles"
          (profile_json "oob_read.c")
          (profile_json "oob_read.c"));
    tc "obs off: simulated results identical (shadow, both engines)"
      (fun () ->
        List.iter
          (fun engine ->
            same_simulation ~engine loopy Softbound.Config.default)
          engines);
    tc "obs off: simulated results identical (hash, both engines)" (fun () ->
        List.iter (fun engine -> same_simulation ~engine loopy full_hash)
          engines);
    tc "attribution: >=95% on every workload, both engines" (fun () ->
        List.iter
          (fun engine ->
            let cfg = { S.default_config with S.engine } in
            List.iter
              (fun (w : Workloads.workload) ->
                let p =
                  Harness.Profile.profile ~label:w.Workloads.name ~cfg
                    ~argv:w.Workloads.quick_args ~with_baseline:false
                    (Harness.Runner.compile_workload w)
                in
                let f = Harness.Profile.attributed_fraction p in
                if f < 0.95 then
                  Alcotest.failf
                    "%s [%s]: only %.2f%% of operations attributed"
                    w.Workloads.name (S.engine_name engine) (100.0 *. f))
              Workloads.all)
          engines);
    tc "transform cache: one transform per (program, elim) pair" (fun () ->
        (* a fresh module so nothing is cached yet *)
        let m = Softbound.compile loopy in
        let before = Harness.Runner.transforms_performed () in
        let sweep () =
          List.iter
            (fun (_, opts) ->
              ignore (Harness.Runner.run (Harness.Runner.Softbound opts) m))
            Harness.Exp_breakdown.configs
        in
        sweep ();
        let mid = Harness.Runner.transforms_performed () in
        (* 8 configurations = {full,store} x {shadow,hash} x {elim,no} —
           the facility is runtime-only, so only 4 distinct transforms *)
        Alcotest.(check int) "transforms for 8 configs" 4 (mid - before);
        sweep ();
        Alcotest.(check int) "second sweep fully cached" 0
          (Harness.Runner.transforms_performed () - mid));
    tc "site census: elim only removes sites, never renumbers" (fun () ->
        let m = Softbound.compile loopy in
        let on_m, on_n = Softbound.instrument_with_sites m in
        let off_m, off_n =
          Softbound.instrument_with_sites
            ~opts:
              { Softbound.Config.default with
                Softbound.Config.eliminate_checks = false }
            m
        in
        Alcotest.(check int) "assigned counts agree" off_n on_n;
        let ids mm =
          List.map (fun (s : Obs.site_info) -> s.Obs.si_id)
            (Obs.sites_of_modul mm)
        in
        let on_ids = ids on_m and off_ids = ids off_m in
        Alcotest.(check int) "elim-off keeps every site" off_n
          (List.length off_ids);
        List.iter
          (fun i ->
            if not (List.mem i off_ids) then
              Alcotest.failf "surviving site %d unknown to elim-off" i)
          on_ids;
        if List.length on_ids >= List.length off_ids then
          Alcotest.fail "elim removed nothing on a redundancy-rich program");
  ]
