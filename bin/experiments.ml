(* Regenerate any of the paper's tables/figures by id.

   Usage:
     experiments <id>... [--quick] [--jobs N] [--iters N] [--out DIR]
     experiments determinism <artifact id>...

   Every simulated table and artifact is a view of one simulation
   matrix ({!Harness.Matrix}), built once over the cells that the named
   targets read: each (kernel, arguments, scheme) runs once however
   many targets read it.  A full-size run of an experiment with a
   committed artifact rewrites BENCH_<id>.json; a --quick run writes
   its artifacts only into the directory --out names.
   [determinism <id>...] runs [<id>... --quick] at --jobs 1 and at
   --jobs 2, each in one fresh process, and compares each artifact
   without its declared host-timing fields. *)

open Harness

let usage () =
  prerr_endline
    "usage: experiments \
     <table1|table3|table4|fig1|fig2|mscc|memory|sweep|ablations|elim|\
     breakdown|vmspeed|serve|adversarial|schemes|bench-check|all>... \
     [--quick] [--jobs N] [--iters N] [--out DIR]\n\
    \       experiments determinism <artifact>...";
  exit 2

let determinism names =
  let artifacts =
    List.map
      (fun name ->
        match Bench_check.find name with
        | Some e -> e.Bench_check.artifact
        | None -> usage ())
      names
  in
  (* one fresh process per width runs the whole set into a scratch
     directory *)
  let run_set jobs =
    let dir = Filename.temp_dir "experiments" "" in
    Fun.protect
      ~finally:(fun () ->
        Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
        Sys.rmdir dir)
      (fun () ->
        let cmd =
          Printf.sprintf "%s %s --quick --jobs %d --out %s > /dev/null"
            (Filename.quote Sys.executable_name)
            (String.concat " " names) jobs (Filename.quote dir)
        in
        if Sys.command cmd <> 0 then failwith (cmd ^ " failed");
        List.map
          (fun (a : Artifact.t) ->
            let file = Filename.concat dir (Artifact.file a) in
            (a.name, Json.parse (Artifact.read_file file)))
          artifacts)
  in
  (* the two widths {!Bench_check.determinism} compares *)
  let sets = List.map (fun jobs -> (jobs, run_set jobs)) [ 1; 2 ] in
  let run (a : Artifact.t) ~jobs = List.assoc a.name (List.assoc jobs sets) in
  let failed =
    List.filter
      (fun a ->
        match Bench_check.determinism a ~run:(run a) with
        | Ok report -> print_endline report; false
        | Error report -> prerr_endline report; true)
      artifacts
  in
  exit (if failed = [] then 0 else 1)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  (* --jobs N / --iters N / --out DIR: parallel width of the matrix and
     of the other drivers, timed iterations of the vmspeed rows,
     artifact directory *)
  let rec opt name = function
    | flag :: v :: _ when flag = name -> Some v
    | _ :: rest -> opt name rest
    | [] -> None
  in
  let int_opt name default =
    match opt name args with
    | None -> default
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let jobs = int_opt "--jobs" 1 in
  let iters = int_opt "--iters" 1 in
  let out = opt "--out" args in
  let targets =
    let rec strip = function
      | ("--jobs" | "--iters" | "--out") :: _ :: rest -> strip rest
      | "--quick" :: rest -> strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let targets =
    match targets with
    | [] | [ "determinism" ] -> usage ()
    | "determinism" :: names -> determinism names
    | ts when List.mem "all" ts ->
        [ "table1"; "table3"; "table4"; "fig1"; "fig2"; "mscc"; "memory";
          "sweep"; "ablations"; "elim"; "breakdown"; "vmspeed"; "serve";
          "adversarial"; "schemes" ]
    | ts -> ts
  in
  (* artifacts go to --out DIR, or at full size to the committed files *)
  let dir =
    match out with
    | None when not quick -> Some Filename.current_dir_name
    | dir -> dir
  in
  (* each target: the matrix cells it reads, and its run over the matrix *)
  let target t : Matrix.cell list * (Matrix.t -> string) =
    let table render = ([], fun _ -> render ()) in
    match Bench_check.find t with
    | Some e ->
        ( e.cells ~quick,
          fun m ->
            let json, table = e.run ~quick ~jobs ~iters m in
            Option.iter
              (fun d ->
                Artifact.write_file
                  (Filename.concat d (Artifact.file e.artifact))
                  json)
              dir;
            table )
    | None -> (
        match t with
        | "fig1" -> Exp_fig1.(cells ~quick, fun m -> render (rows ~quick m))
        | "fig2" -> Exp_fig2.(cells ~quick, fun m -> render (rows ~quick m))
        | "mscc" -> Exp_mscc.(cells ~quick, fun m -> render (rows ~quick m))
        | "sweep" -> Exp_sweep.(cells, fun m -> render (rows m))
        | "table1" -> table Exp_table1.(fun () -> render (run ()))
        | "table3" -> table Exp_table3.(fun () -> render (run ()))
        | "table4" -> table Exp_table4.(fun () -> render (run ()))
        | "ablations" -> table Exp_ablation.render
        | "bench-check" ->
            table (fun () ->
                (* validate the committed BENCH_*.json artifacts *)
                let report, ok = Bench_check.run () in
                if not ok then begin
                  prerr_endline report;
                  exit 1
                end;
                report)
        | "adversarial" ->
            table (fun () ->
                let t = Exp_adversarial.run ~quick ~jobs () in
                if not (Exp_adversarial.ok t) then begin
                  print_endline (Exp_adversarial.render t);
                  prerr_endline "adversarial: robust safety violated";
                  exit 1
                end;
                Exp_adversarial.render t)
        | other ->
            Printf.eprintf "unknown experiment %s\n" other;
            exit 2)
  in
  let targets = List.map target targets in
  let matrix = Matrix.build ~jobs (List.concat_map fst targets) in
  List.iter
    (fun (_, run) ->
      print_endline (run matrix);
      print_newline ())
    targets
