(* Scheme tour: one benchmark, every protection scheme, side by side.

   Runs the treeadd kernel (the most pointer-intensive workload) under
   the uninstrumented baseline, all four SoftBound configurations, the
   MSCC-style transform, the related-work schemes (CGuard, FRAMER, L4
   Pointer), and the three baseline checkers, printing the cost profile
   of each — a compact, runnable version of the trade-off story
   Figures 1–2 and section 6.5 tell.

   Run with:  dune exec examples/scheme_tour.exe [workload] *)

let schemes : (string * Harness.Runner.scheme) list =
  [
    ("baseline", Harness.Runner.Unprotected);
    ("softbound shadow/full", Harness.Runner.Softbound Harness.Runner.sb_full_shadow);
    ("softbound hash/full", Harness.Runner.Softbound Harness.Runner.sb_full_hash);
    ("softbound shadow/store", Harness.Runner.Softbound Harness.Runner.sb_store_shadow);
    ("softbound hash/store", Harness.Runner.Softbound Harness.Runner.sb_store_hash);
  ]
  @ List.map
      (fun e -> (e.Schemes.sname, Harness.Runner.Registered e))
      Schemes.all

let () =
  let name = if Array.length Sys.argv > 1 then Sys.argv.(1) else "treeadd" in
  let w =
    match Workloads.find name with
    | Some w -> w
    | None ->
        Printf.eprintf "unknown workload %s (one of: %s)\n" name
          (String.concat ", " Workloads.names);
        exit 2
  in
  Printf.printf "Scheme tour: %s — %s\n\n" w.Workloads.name
    w.Workloads.description;
  let m = Harness.Runner.compile_workload w in
  let base = Harness.Runner.run ~argv:w.quick_args Harness.Runner.Unprotected m in
  Printf.printf "%-24s %12s %10s %8s %11s %10s\n" "scheme" "cycles"
    "overhead" "checks" "meta ops" "miss%";
  Printf.printf "%s\n" (String.make 80 '-');
  List.iter
    (fun (label, scheme) ->
      let r = Harness.Runner.run ~argv:w.quick_args scheme m in
      let s = r.stats in
      (match r.outcome with
      | Interp.State.Exit 0 -> ()
      | o ->
          Printf.printf "%-24s %s\n" label (Interp.State.string_of_outcome o));
      Printf.printf "%-24s %12d %9.0f%% %8d %11d %9.1f%%\n" label
        s.Interp.State.cycles
        (100.0 *. Harness.Runner.overhead r base)
        s.checks
        (s.meta_loads + s.meta_stores)
        (100.0
        *. float_of_int r.cache_misses
        /. float_of_int (max 1 (r.cache_hits + r.cache_misses))))
    schemes;
  Printf.printf
    "\nEvery scheme produced: %s(The outputs are identical across schemes — \
     the compatibility claim.)\n"
    base.stdout_text
