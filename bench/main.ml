(* Benchmark harness.

   Two layers:

   1. bechamel micro-benchmarks — one [Test.make] per paper artifact
      (Table 1/3/4, Figure 1/2 per configuration, the MSCC comparison,
      and the compilation pipeline itself), measuring the wall-clock cost
      of regenerating each result at reduced workload sizes;

   2. the paper's tables and figures themselves, regenerated at full
      workload sizes and printed after the timing runs — this is the
      output to compare against the paper (see EXPERIMENTS.md).

   Run with:  dune exec bench/main.exe
   (pass --tables-only to skip the bechamel timing runs) *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Micro-benchmarks                                                     *)
(* ------------------------------------------------------------------ *)

let compiled_workloads =
  lazy
    (List.map (fun w -> (w, Harness.Runner.compile_workload w)) Workloads.all)

let run_all_quick scheme () =
  List.iter
    (fun ((w : Workloads.workload), m) ->
      ignore (Harness.Runner.run ~argv:w.quick_args scheme m))
    (Lazy.force compiled_workloads)

let test_table1 =
  Test.make ~name:"table1: attribute probes"
    (Staged.stage (fun () -> ignore (Harness.Exp_table1.run ())))

let test_table3 =
  Test.make ~name:"table3: 18 attacks x 3 configs"
    (Staged.stage (fun () -> ignore (Harness.Exp_table3.run ())))

let test_table4 =
  Test.make ~name:"table4: bugbench x 5 tools"
    (Staged.stage (fun () -> ignore (Harness.Exp_table4.run ())))

let test_fig1 =
  Test.make ~name:"fig1: pointer-op census (quick)"
    (Staged.stage (fun () -> ignore (Harness.Exp_fig1.run ~quick:true ())))

let test_fig2_configs =
  Test.make_grouped ~name:"fig2 (quick)"
    [
      Test.make ~name:"baseline"
        (Staged.stage (run_all_quick Harness.Runner.Unprotected));
      Test.make ~name:"shadow/full"
        (Staged.stage
           (run_all_quick (Harness.Runner.Softbound Harness.Runner.sb_full_shadow)));
      Test.make ~name:"hash/full"
        (Staged.stage
           (run_all_quick (Harness.Runner.Softbound Harness.Runner.sb_full_hash)));
      Test.make ~name:"shadow/store"
        (Staged.stage
           (run_all_quick (Harness.Runner.Softbound Harness.Runner.sb_store_shadow)));
      Test.make ~name:"hash/store"
        (Staged.stage
           (run_all_quick (Harness.Runner.Softbound Harness.Runner.sb_store_hash)));
    ]

let test_mscc =
  Test.make ~name:"sec6.5: mscc-style (quick)"
    (Staged.stage (run_all_quick Harness.Runner.Mscc))

let test_elim =
  Test.make_grouped ~name:"elim (quick)"
    [
      Test.make ~name:"shadow/full elim-on"
        (Staged.stage
           (run_all_quick (Harness.Runner.Softbound Harness.Runner.sb_full_shadow)));
      Test.make ~name:"shadow/full elim-off"
        (Staged.stage
           (run_all_quick
              (Harness.Runner.Softbound
                 (Harness.Exp_elim.without_elim Harness.Runner.sb_full_shadow))));
    ]

let test_breakdown =
  Test.make ~name:"breakdown: obs attribution (quick)"
    (Staged.stage (fun () -> ignore (Harness.Exp_breakdown.run ~quick:true ())))

let test_ablations =
  Test.make ~name:"ablations: shrink/memcpy/clear/prune"
    (Staged.stage (fun () ->
         ignore (Harness.Exp_ablation.run_shrink ());
         ignore (Harness.Exp_ablation.run_memcpy ());
         ignore (Harness.Exp_ablation.run_clear_free ())))

let test_pipeline =
  Test.make_grouped ~name:"pipeline"
    [
      Test.make ~name:"compile treeadd"
        (Staged.stage (fun () ->
             ignore
               (Softbound.compile
                  (Option.get (Workloads.find "treeadd")).Workloads.source)));
      Test.make ~name:"instrument treeadd"
        (let m =
           Softbound.compile
             (Option.get (Workloads.find "treeadd")).Workloads.source
         in
         Staged.stage (fun () -> ignore (Softbound.instrument m)));
    ]

let all_tests =
  Test.make_grouped ~name:"softbound"
    [
      test_table1; test_table3; test_table4; test_fig1; test_fig2_configs;
      test_mscc; test_elim; test_breakdown; test_ablations; test_pipeline;
    ]

let run_bechamel () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:50 ~quota:(Time.second 2.0) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Printf.printf "%-45s %15s\n" "benchmark" "time/run";
  Printf.printf "%s\n" (String.make 61 '-');
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, result) ->
      let t =
        match Analyze.OLS.estimates result with
        | Some [ est ] -> est
        | _ -> nan
      in
      let pretty =
        if Float.is_nan t then "n/a"
        else if t > 1e9 then Printf.sprintf "%8.2f  s" (t /. 1e9)
        else if t > 1e6 then Printf.sprintf "%8.2f ms" (t /. 1e6)
        else if t > 1e3 then Printf.sprintf "%8.2f us" (t /. 1e3)
        else Printf.sprintf "%8.2f ns" t
      in
      Printf.printf "%-45s %15s\n" name pretty)
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* The paper's artifacts at full size                                   *)
(* ------------------------------------------------------------------ *)

let print_artifacts () =
  print_endline "\n==================================================";
  print_endline "Paper artifacts (full workload sizes)";
  print_endline "==================================================\n";
  print_endline (Harness.Exp_table1.render (Harness.Exp_table1.run ()));
  print_endline (Harness.Exp_table3.render (Harness.Exp_table3.run ()));
  print_endline (Harness.Exp_table4.render (Harness.Exp_table4.run ()));
  print_endline (Harness.Exp_fig1.render (Harness.Exp_fig1.run ()));
  print_endline (Harness.Exp_fig2.render (Harness.Exp_fig2.run ()));
  print_endline (Harness.Exp_mscc.render (Harness.Exp_mscc.run ~quick:true ()));
  print_endline (Harness.Exp_memory.render (Harness.Exp_memory.run ()));
  print_endline (Harness.Exp_sweep.render (Harness.Exp_sweep.run ()));
  print_endline (Harness.Exp_ablation.render ());
  (* elimination ablation, plus the machine-readable per-kernel cycle
     record tracking the perf trajectory from PR to PR *)
  let elim_rows = Harness.Exp_elim.run () in
  print_endline (Harness.Exp_elim.render elim_rows);
  Harness.Artifact.write_file "BENCH_elim.json"
    (Harness.Exp_elim.to_json elim_rows);
  print_endline "wrote BENCH_elim.json";
  (* per-site overhead attribution (check vs metadata vs wrapper vs
     residual), the observability layer's headline artifact *)
  let bd_rows = Harness.Exp_breakdown.run () in
  print_endline (Harness.Exp_breakdown.render bd_rows);
  Harness.Artifact.write_file "BENCH_breakdown.json"
    (Harness.Exp_breakdown.to_json bd_rows);
  print_endline "wrote BENCH_breakdown.json";
  (* engine throughput vs the recorded pre-fast-path baseline; iters=2
     matches the committed artifact's convention *)
  let vs_rows = Harness.Exp_vmspeed.run ~iters:2 () in
  print_endline (Harness.Exp_vmspeed.render vs_rows);
  Harness.Artifact.write_file "BENCH_vmspeed.json"
    (Harness.Exp_vmspeed.to_json ~quick:false ~iters:2 vs_rows);
  print_endline "wrote BENCH_vmspeed.json"

let () =
  let args = Array.to_list Sys.argv in
  if not (List.mem "--tables-only" args) then begin
    print_endline "bechamel timing runs (reduced workload sizes)";
    print_endline "=============================================";
    run_bechamel ()
  end;
  print_artifacts ()
