(* Parallel harness drivers: Parutil semantics, and the determinism
   contract — a parallel run's merged output equals the sequential
   run's, outcome for outcome, because results merge in input order and
   every unit of work is self-contained. *)

module P = Parutil

let tc name f = Alcotest.test_case name `Quick f

let suite =
  [
    tc "parmap: results in input order, any jobs" (fun () ->
        let xs = List.init 23 Fun.id in
        let f x = (x * 7) + 1 in
        List.iter
          (fun jobs ->
            Alcotest.(check (list int))
              (Printf.sprintf "jobs=%d" jobs)
              (List.map f xs)
              (P.parmap ~jobs f xs))
          [ 1; 2; 3; 8; 64 ]);
    tc "parmap: jobs exceeding items is fine" (fun () ->
        Alcotest.(check (list int))
          "singleton" [ 42 ]
          (P.parmap ~jobs:8 (fun x -> x) [ 42 ]));
    tc "parmap: failures report identically at any jobs width" (fun () ->
        (* several items fail with distinct errors; every width must
           report the lowest-index failure, like the sequential run *)
        let f x = if x mod 3 = 1 then failwith (Printf.sprintf "boom-%d" x) else x in
        let xs = List.init 20 Fun.id in
        List.iter
          (fun jobs ->
            Alcotest.check_raises
              (Printf.sprintf "jobs=%d reports the index-1 failure" jobs)
              (Failure "boom-1")
              (fun () -> ignore (P.parmap ~jobs f xs)))
          [ 1; 2; 3; 8 ]);
    tc "parmap: failure determinism is repeatable under racing" (fun () ->
        (* jitter the work so different domains hit their failures in
           different wall-clock orders; the report must not move *)
        let f x =
          let spin = (x * 37) mod 11 in
          let acc = ref 0 in
          for i = 0 to spin * 1000 do acc := !acc + i done;
          ignore !acc;
          if x = 7 || x = 13 || x = 18 then failwith (Printf.sprintf "f%d" x)
          else x
        in
        let xs = List.init 24 Fun.id in
        for _ = 1 to 20 do
          Alcotest.check_raises "always the lowest index (7)" (Failure "f7")
            (fun () -> ignore (P.parmap ~jobs:4 f xs))
        done);
    tc "parmap: available_jobs is positive" (fun () ->
        Alcotest.(check bool) "positive" true (P.available_jobs () > 0));
    tc "fuzz campaign: jobs=3 report equals jobs=1, outcome for outcome"
      (fun () ->
        let run jobs =
          Fuzz.run_campaign ~shrink:false ~max_steps:200_000 ~jobs ~seed:11
            ~count:24 ()
        in
        let seq = run 1 and par = run 3 in
        Alcotest.(check int) "tested" seq.Fuzz.tested par.Fuzz.tested;
        Alcotest.(check int) "skipped" seq.Fuzz.skipped par.Fuzz.skipped;
        Alcotest.(check int) "trap cases" seq.Fuzz.trap_cases
          par.Fuzz.trap_cases;
        Alcotest.(check bool) "findings (order included)" true
          (seq.Fuzz.findings = par.Fuzz.findings);
        Alcotest.(check string) "rendered report" (Fuzz.render seq)
          (Fuzz.render par));
    tc "experiment rows: parallel fan-out equals sequential run" (fun () ->
        (* a slice of the elim cells: enough to drive the shared
           transform/compile caches from several domains at once *)
        let cells =
          List.filter
            (fun ((w : Workloads.workload), _, _) ->
              List.mem w.name [ "compress"; "bisort"; "treeadd"; "mst" ])
            (Harness.Exp_elim.cells ~quick:true)
        in
        let seq = Harness.Matrix.build ~jobs:1 cells in
        let par = Harness.Matrix.build ~jobs:4 cells in
        Alcotest.(check bool) "identical summaries" true
          (List.map (Harness.Matrix.get seq) cells
          = List.map (Harness.Matrix.get par) cells));
  ]
