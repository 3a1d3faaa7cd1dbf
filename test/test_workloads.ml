(* Workload integration tests: every benchmark runs cleanly in every
   protection configuration with identical output — the paper's "no false
   positives, no source modification" compatibility claim, measured. *)

let schemes : (string * Harness.Runner.scheme) list =
  [
    ("unprotected", Harness.Runner.Unprotected);
    ("sb-full-shadow", Harness.Runner.Softbound Harness.Runner.sb_full_shadow);
    ("sb-full-hash", Harness.Runner.Softbound Harness.Runner.sb_full_hash);
    ("sb-store-shadow", Harness.Runner.Softbound Harness.Runner.sb_store_shadow);
    ("mscc", Harness.Runner.Mscc);
    ("jones-kelly", Harness.Runner.Jones_kelly);
    ("memcheck", Harness.Runner.Memcheck);
    ("mudflap", Harness.Runner.Mudflap);
  ]

let suite =
  List.map
    (fun (w : Workloads.workload) ->
      Alcotest.test_case w.name `Quick (fun () ->
          let m = Harness.Runner.compile_workload w in
          let argv = w.quick_args in
          let reference = Harness.Runner.run ~argv Harness.Runner.Unprotected m in
          (match reference.outcome with
          | Interp.State.Exit 0 -> ()
          | o ->
              Alcotest.fail
                ("unprotected run failed: " ^ Interp.State.string_of_outcome o));
          List.iter
            (fun (name, scheme) ->
              let r = Harness.Runner.run ~argv scheme m in
              (match r.outcome with
              | Interp.State.Exit 0 -> ()
              | o ->
                  Alcotest.fail
                    (Printf.sprintf "%s under %s: %s" w.name name
                       (Interp.State.string_of_outcome o)));
              Alcotest.(check string)
                (w.name ^ " output under " ^ name)
                reference.stdout_text r.stdout_text)
            schemes))
    Workloads.all
  @ [
      Alcotest.test_case "pointer fractions match categories" `Quick
        (fun () ->
          let rows =
            Harness.(
              Exp_fig1.rows ~quick:true
                (Matrix.build (Exp_fig1.cells ~quick:true)))
          in
          List.iter
            (fun (r : Harness.Exp_fig1.row) ->
              match r.workload.Workloads.name with
              | "go" | "lbm" | "hmmer" | "compress" | "ijpeg" ->
                  Alcotest.(check bool)
                    (r.workload.Workloads.name ^ " is scalar")
                    true (r.ptr_fraction < 0.05)
              | "treeadd" | "em3d" | "mst" | "perimeter" ->
                  Alcotest.(check bool)
                    (r.workload.Workloads.name ^ " is pointer-heavy")
                    true (r.ptr_fraction > 0.30)
              | _ -> ())
            rows);
      Alcotest.test_case "overheads ordered: full >= store, hash >= shadow"
        `Quick (fun () ->
          (* one representative from each side of Figure 2 *)
          List.iter
            (fun name ->
              let w = Option.get (Workloads.find name) in
              let row =
                Harness.(
                  Exp_fig2.row ~quick:true
                    (Matrix.build
                       (List.filter
                          (fun (w', _, _) -> w' == w)
                          (Exp_fig2.cells ~quick:true)))
                    w)
              in
              Alcotest.(check bool) (name ^ ": hash >= shadow") true
                (row.hash_full >= row.shadow_full -. 0.02);
              Alcotest.(check bool) (name ^ ": full >= store") true
                (row.shadow_full >= row.shadow_store -. 0.02))
            [ "compress"; "treeadd" ]);
      Alcotest.test_case "matrix: each distinct cell simulated once" `Quick
        (fun () ->
          let open Harness in
          let quick = true in
          let cells =
            List.concat
              [ Exp_fig1.cells ~quick; Exp_fig2.cells ~quick;
                Exp_elim.cells ~quick; Exp_breakdown.cells ~quick;
                Exp_schemes.cells ~quick; Exp_memory.cells ~quick;
                Exp_mscc.cells ~quick ]
          in
          Alcotest.(check int) "cells the seven experiments read" (50 * 15)
            (List.length cells);
          let before = Matrix.simulations_performed () in
          let m = Matrix.build ~jobs:2 cells in
          let built = Matrix.simulations_performed () - before in
          Alcotest.(check int) "20 distinct schemes x 15 kernels" (20 * 15)
            built;
          ignore (Exp_fig1.rows ~quick m);
          ignore (Exp_fig2.rows ~quick m);
          ignore (Exp_elim.rows ~quick m);
          ignore (Exp_breakdown.rows ~quick m);
          ignore (Exp_schemes.rows ~quick m);
          ignore (Exp_memory.rows ~quick m);
          ignore (Exp_mscc.rows ~quick m);
          Alcotest.(check int) "a second view simulates nothing" built
            (Matrix.simulations_performed () - before);
          (* a related-work scheme and its SoftBound options are one run *)
          List.iter
            (fun (scheme, opts) ->
              let w = List.hd Workloads.all in
              Alcotest.(check bool)
                (Runner.scheme_name scheme ^ " is its options")
                true
                (Matrix.kernel m ~quick w scheme
                == Matrix.kernel m ~quick w (Runner.Softbound opts)))
            [ (Runner.Cguard, Schemes.Cguard.options ());
              (Runner.Framer, Schemes.Framer.options ());
              (Runner.L4_pointer, Schemes.L4_pointer.options ()) ]);
      Alcotest.test_case "metadata ops track pointer ops" `Quick (fun () ->
          let w = Option.get (Workloads.find "treeadd") in
          let m = Harness.Runner.compile_workload w in
          let r =
            Harness.Runner.run ~argv:w.quick_args
              (Harness.Runner.Softbound Harness.Runner.sb_full_shadow)
              m
          in
          let s = r.stats in
          Alcotest.(check bool) "meta ops happen" true
            (s.Interp.State.meta_loads + s.Interp.State.meta_stores > 100));
      Alcotest.test_case "failing runs name the kernel and configuration"
        `Quick (fun () ->
          let m = Softbound.compile "int main(void) { return 3; }" in
          let r = Harness.Runner.run Harness.Runner.Unprotected m in
          match
            Harness.Runner.check_clean ~quick:true ~workload:"demo-kernel"
              ~scheme:"unprotected" r
          with
          | () -> Alcotest.fail "expected Workload_failed"
          | exception
              Harness.Runner.Workload_failed
                { workload = "demo-kernel"; scheme = "unprotected"; quick = true; outcome }
            -> Alcotest.(check string) "outcome recorded" "exit 3" outcome
          | exception e ->
              Alcotest.fail ("wrong exception: " ^ Printexc.to_string e));
    ]
