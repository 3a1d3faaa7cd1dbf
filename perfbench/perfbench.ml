(* The benchmark: one workload per process.

     perfbench.exe --workload fig2|serve-cold|serve-hot --seed N
                   --seconds S --trace 0|1 [--quick] [--wrong-expect]
                   [--setup-only]

   --trace 0 measures the end-to-end metrics with tracing off.
   --trace 1 measures the per-layer metrics: the workload runs traced
   and untraced side by side (fig2: each kernel run traced, then at
   once untraced; serve: short untraced and traced sessions alternate),
   so that the tracing overhead and the share of the untraced service
   time the layer spans account for can be reported.  --setup-only
   prints one set-up time and exits.
   --quick shrinks the workload for the self-test, and --wrong-expect
   plants one wrong expected verdict.  The last line of stdout is the
   result object; a summary goes to stderr. *)

module Runner = Harness.Runner

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;
  wrong : bool;
  setup_only : bool;
}

let parse_args () : args =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and quick = ref false and wrong = ref false in
  let setup_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " fig2|serve-cold|serve-hot");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
      ("--quick", Arg.Set quick, " small inputs (self-test)");
      ("--wrong-expect", Arg.Set wrong, " plant one wrong expected verdict");
      ("--setup-only", Arg.Set setup_only, " print one set-up time and exit");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (List.mem !workload [ "fig2"; "serve-cold"; "serve-hot" ]) then begin
    prerr_endline "perfbench: --workload must be fig2, serve-cold or serve-hot";
    exit 2
  end;
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1;
    quick = !quick; wrong = !wrong; setup_only = !setup_only }

(* The traced run's layer self times inside each operation should come
   to this share of the untraced service time, in percent.  Tracing adds
   its own cost; the traced serve-cold jobs do not leave their modules
   in the Runner caches, so the collector marks less; and the host
   drifts between the alternating sessions.  A figure outside the range
   is reported on stderr, and the self-test fails on it; it does not
   make the run's outputs wrong, so it does not touch [correct]. *)
let accounted_min = 85.0
let accounted_max = 115.0

(* at most 17 spans per job, so the traced serve jobs fit in the span
   store *)
let max_traced_jobs = 3_600

let ok_pct ~attempted ~failed =
  100.0 *. float_of_int (attempted - failed) /. float_of_int (max 1 attempted)

let trace_dir = ".perfbench"

let write_trace workload spans =
  if Span.dropped () > 0 then
    Printf.eprintf "trace: %d spans did not fit in the store\n" (Span.dropped ());
  (try Unix.mkdir trace_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Filename.concat trace_dir ("trace-" ^ workload ^ ".jsonl") in
  Span.write_file path spans;
  Printf.eprintf "trace: %d spans written to %s\n" (List.length spans) path

let finish ~correct ~attempted ~failed metrics =
  List.iter
    (fun x -> Printf.eprintf "  %-32s %14.4f %s\n" x.Report.name x.Report.value x.Report.unit_)
    metrics;
  print_endline (Report.result_line ~correct ~attempted ~failed metrics)

let print_setup s = Printf.printf "{\"setup_s\": %.9f}\n" s

(* the trace-mode figures every workload reports besides the layers *)
let trace_metrics ~service_ms ~accounted_pct ~overhead_pct ~queue_ms
    ~source_hit_pct ~transform_hit_pct =
  [
    Report.m "harness.service_ms" "ms" service_ms;
    Report.m "harness.source_cache_hit_pct" "%" source_hit_pct;
    Report.m "harness.transform_cache_hit_pct" "%" transform_hit_pct;
    Report.m "par.queue_wait_ms" "ms" queue_ms;
    Report.m "trace.accounted_pct" "%" accounted_pct;
    Report.m "trace.overhead_pct" "%" overhead_pct;
  ]

(* does the staged transform print like the composite one, for both
   checking modes? *)
let split_matches_module m =
  Pipeline.split_matches Runner.sb_full_shadow m
  && Pipeline.split_matches Runner.sb_store_shadow m

let split_matches src = split_matches_module (Softbound.compile src)

(* the structural checks of a traced run: the spans nest and all fit
   in the store *)
let trace_ok (sum : Layers.summary) accounted_pct =
  if accounted_pct < accounted_min || accounted_pct > accounted_max then
    Printf.eprintf "trace: layer self times cover %.1f%% of the service time, \
                    outside [%.0f%%, %.0f%%]\n" accounted_pct accounted_min accounted_max;
  sum.Layers.nesting_errors = 0 && Span.dropped () = 0

(* ------------------------------------------------------------------ *)
(* fig2                                                                 *)
(* ------------------------------------------------------------------ *)

let fig2 (a : args) =
  let t0 = Span.now () in
  if a.trace then begin
    Span.init ();
    let ps = Fig2.setup ~traced:false ~quick:a.quick () in
    Pipeline.split_ok :=
      List.for_all (fun (p : Fig2.program) -> split_matches_module p.Fig2.base) ps;
    Span.recording := true;
    let ps = Fig2.setup ~traced:true ~quick:a.quick () in
    Span.recording := false;
    let runs = Fig2.order ~seed:a.seed ps in
    let traced, untraced = Fig2.run_paired runs in
    let vm = Layers.vm () in
    Array.iter (Layers.add_result vm) traced.Fig2.results;
    let spans = Span.collect () in
    write_trace a.workload spans;
    let sum = Layers.summarize ~ops:1.0 spans vm in
    let total p = Array.fold_left ( +. ) 0.0 p.Fig2.times in
    let accounted_pct = sum.Layers.accounted_s /. total untraced *. 100.0 in
    let failed =
      Fig2.failures ~wrong:a.wrong runs untraced untraced
      + Fig2.failures ~wrong:false runs untraced traced
    in
    let correct = failed = 0 && trace_ok sum accounted_pct in
    finish ~correct ~attempted:(2 * Array.length runs) ~failed
      (sum.Layers.metrics
      @ trace_metrics
          ~service_ms:(total untraced /. float_of_int (Array.length runs) *. 1000.0)
          ~accounted_pct
          ~overhead_pct:((total traced /. total untraced -. 1.0) *. 100.0)
          ~queue_ms:0.0 ~source_hit_pct:0.0 ~transform_hit_pct:0.0)
  end
  else begin
    let ps = Fig2.setup ~traced:false ~quick:a.quick () in
    let runs = Fig2.order ~seed:a.seed ps in
    let setup_s = Span.now () -. t0 in
    if a.setup_only then print_setup setup_s
    else begin
      let start = Span.now () in
      (* at least three passes, so that each run's median outvotes one
         slow stretch of the host *)
      let min_passes = if a.quick then 1 else 3 in
      let rec passes acc =
        if List.length acc >= min_passes && Span.now () -. start >= a.seconds
        then List.rev acc
        else passes (Fig2.run_pass ~traced:false runs :: acc)
      in
      let all = passes [] in
      let first = List.hd all in
      let failed =
        List.fold_left (fun n p -> n + Fig2.failures ~wrong:a.wrong runs first p) 0 all
      in
      let attempted = Array.length runs * List.length all in
      (* each run's median over the passes *)
      let med =
        Array.mapi
          (fun i _ -> Report.median (List.map (fun p -> p.Fig2.times.(i)) all))
          runs
      in
      let wall = Array.fold_left ( +. ) 0.0 med in
      let med_ms = Report.sorted (Array.to_list (Array.map (fun t -> t *. 1000.0) med)) in
      Printf.eprintf "fig2: %d passes of %d runs\n" (List.length all) (Array.length runs);
      finish ~correct:(failed = 0) ~attempted ~failed
        ([
           Report.m "setup_s" "s" setup_s;
           Report.m "wall_s" "s" wall;
           Report.m "jobs_per_s" "1/s" (float_of_int (Array.length runs) /. wall);
           Report.m "latency_p50_ms" "ms" (Report.median_sorted med_ms);
           Report.m "latency_p99_ms" "ms" (Report.percentile med_ms 99.0);
           Report.m "peak_rss_mb" "MB" (Report.peak_rss_mb ());
           Report.m "ok_pct" "%" (ok_pct ~attempted ~failed);
         ]
        @ Fig2.overhead_metrics (Fig2.cycles_of runs first))
    end
  end

(* ------------------------------------------------------------------ *)
(* serve-cold / serve-hot                                               *)
(* ------------------------------------------------------------------ *)

let serve kind (a : args) =
  let module L = Serve_load in
  let t0 = Span.now () in
  let gen = L.generator kind ~seed:a.seed in
  let warm_failed = L.warm_up kind ~seed:a.seed in
  let min_jobs = if a.quick then 20 else 1000 in
  if a.setup_only then begin
    let o =
      L.closed_loop ~gen ~seconds:0.0 ~min_jobs:0 ~max_jobs:0
        ~server:L.untraced_server ()
    in
    print_setup (o.L.t_start -. t0)
  end
  else if a.trace then begin
    (* short untraced and traced sessions of equal size alternate, so
       that both sample the same stretches of the host *)
    let rounds = 12 in
    let slot = a.seconds /. float_of_int (2 * rounds) in
    let per_session = max_traced_jobs / rounds in
    let next = ref 0 and compiles = ref 0 and transforms = ref 0 in
    let session ~traced ~wrong =
      let o =
        if traced then begin
          Span.recording := true;
          Fun.protect ~finally:(fun () -> Span.recording := false) (fun () ->
              L.closed_loop ~first:!next ~gen ~seconds:slot ~min_jobs:1
                ~max_jobs:per_session ~server:(L.traced_serve kind) ())
        end
        else begin
          let c0 = Runner.source_compiles_performed () in
          let t0 = Runner.transforms_performed () in
          let o =
            L.closed_loop ~first:!next ~wrong ~gen ~seconds:slot ~min_jobs:1
              ~max_jobs:per_session ~server:L.untraced_server ()
          in
          compiles := !compiles + Runner.source_compiles_performed () - c0;
          transforms := !transforms + Runner.transforms_performed () - t0;
          o
        end
      in
      next := !next + o.L.attempted;
      o
    in
    Pipeline.split_ok := List.for_all split_matches (L.split_sample kind ~seed:a.seed);
    Span.init ();
    Pipeline.reset_counters ();
    let pairs =
      List.init rounds (fun r ->
          let u = session ~traced:false ~wrong:(a.wrong && r = 0) in
          (u, session ~traced:true ~wrong:false))
    in
    let us = List.map fst pairs and ts = List.map snd pairs in
    let sum f l = List.fold_left (fun acc o -> acc +. f o) 0.0 l in
    let jobs l = sum (fun o -> float_of_int o.L.attempted) l in
    let rate l = jobs l /. sum (fun o -> o.L.elapsed) l in
    let spans = Span.collect () in
    write_trace a.workload spans;
    let sum_t = Layers.summarize ~ops:(jobs ts) spans L.traced_vm in
    let per_job f = sum (fun o -> f o *. float_of_int o.L.attempted) us /. jobs us in
    let service_ms = per_job (fun o -> o.L.service_ms) in
    let accounted_pct = sum_t.Layers.accounted_s /. jobs ts *. 1000.0 /. service_ms *. 100.0 in
    let hit_pct performed = 100.0 *. (1.0 -. float_of_int performed /. jobs us) in
    let failed = warm_failed + int_of_float (sum (fun o -> float_of_int o.L.failed) (us @ ts)) in
    let correct = failed = 0 && trace_ok sum_t accounted_pct in
    finish ~correct ~attempted:!next ~failed
      (sum_t.Layers.metrics
      @ trace_metrics ~service_ms ~accounted_pct
          ~overhead_pct:((rate us /. rate ts -. 1.0) *. 100.0)
          ~queue_ms:(per_job (fun o -> o.L.queue_ms))
          ~source_hit_pct:(hit_pct !compiles)
          ~transform_hit_pct:(hit_pct !transforms))
  end
  else begin
    let o =
      L.closed_loop ~wrong:a.wrong ~gen ~seconds:a.seconds ~min_jobs
        ~max_jobs:max_int ~server:L.untraced_server ()
    in
    let setup_s = o.L.t_start -. t0 in
    (* before the overhead runs, which are not part of the service *)
    let peak_rss_mb = Report.peak_rss_mb () in
    let cycles, bad = L.overheads kind ~quick:a.quick in
    let failed = warm_failed + o.L.failed + bad in
    let attempted = o.L.attempted in
    let jobs_per_s = Report.median o.L.rates in
    Printf.eprintf "%s: %d jobs, as many latency samples\n" a.workload attempted;
    Printf.eprintf "jobs/s per window: %s\n"
      (String.concat " " (List.map (Printf.sprintf "%.0f") o.L.rates));
    finish ~correct:(failed = 0) ~attempted ~failed
      ([
         Report.m "setup_s" "s" setup_s;
         Report.m "wall_s" "s" (1000.0 /. jobs_per_s);
         Report.m "jobs_per_s" "1/s" jobs_per_s;
         Report.m "latency_p50_ms" "ms" o.L.p50_ms;
         Report.m "latency_p99_ms" "ms" o.L.p99_ms;
         Report.m "peak_rss_mb" "MB" peak_rss_mb;
         Report.m "ok_pct" "%" (ok_pct ~attempted ~failed);
       ]
      @ Fig2.overhead_metrics cycles)
  end

let () =
  let a = parse_args () in
  match a.workload with
  | "fig2" -> fig2 a
  | "serve-cold" -> serve Serve_load.Cold a
  | _ -> serve Serve_load.Hot a
