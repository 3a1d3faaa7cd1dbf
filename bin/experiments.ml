(* Regenerate any of the paper's tables/figures by id.

   Usage:
     experiments <id>... [--quick] [--jobs N] [--iters N] [--out FILE]
     experiments determinism <artifact id>...

   A full-size run of an experiment with a committed artifact rewrites
   BENCH_<id>.json; a --quick run writes its artifact only to --out.
   [determinism <id>] runs [<id> --quick] at --jobs 1 and --jobs 2, each
   in a fresh process, and compares the two artifacts without their
   declared host-timing fields. *)

open Harness

let usage () =
  prerr_endline
    "usage: experiments \
     <table1|table3|table4|fig1|fig2|mscc|memory|sweep|ablations|elim|\
     breakdown|vmspeed|serve|adversarial|schemes|bench-check|all> \
     [--quick] [--jobs N] [--iters N] [--out FILE]\n\
    \       experiments determinism <artifact>";
  exit 2

let determinism name =
  let a = match Bench_check.find name with Some (a, _) -> a | None -> usage () in
  let run ~jobs =
    let tmp = Filename.temp_file name ".json" in
    Fun.protect ~finally:(fun () -> Sys.remove tmp) (fun () ->
        let cmd =
          Printf.sprintf "%s %s --quick --jobs %d --out %s > /dev/null"
            (Filename.quote Sys.executable_name) name jobs (Filename.quote tmp)
        in
        if Sys.command cmd <> 0 then failwith (cmd ^ " failed");
        Json.parse (Artifact.read_file tmp))
  in
  match Bench_check.determinism a ~run with
  | Ok report -> print_endline report
  | Error report -> prerr_endline report; exit 1

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  (* --jobs N / --iters N / --out FILE: parallel width of the experiment
     driver, timed iterations of the vmspeed rows, artifact path *)
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
    | "determinism" :: names -> List.iter determinism names; exit 0
    | ts when List.mem "all" ts ->
        [ "table1"; "table3"; "table4"; "fig1"; "fig2"; "mscc"; "memory";
          "sweep"; "ablations"; "elim"; "breakdown"; "vmspeed"; "serve";
          "adversarial"; "schemes" ]
    | ts -> ts
  in
  (* --out names the artifact of exactly one artifact experiment *)
  if out <> None && List.length (List.filter_map Bench_check.find targets) <> 1
  then usage ();
  List.iter
    (fun t ->
      let out =
        match Bench_check.find t with
        | Some (a, run) ->
            let json, table = run ~quick ~jobs ~iters in
            (match out with
            | Some path -> Artifact.write_file path json
            | None when not quick ->
                Artifact.write_file (Artifact.file a) json
            | None -> ());
            table
        | None -> (
            match t with
            | "table1" -> Exp_table1.(render (run ()))
            | "table3" -> Exp_table3.(render (run ()))
            | "table4" -> Exp_table4.(render (run ()))
            | "fig1" -> Exp_fig1.(render (run ~quick ()))
            | "fig2" -> Exp_fig2.(render (run ~quick ()))
            | "mscc" -> Exp_mscc.(render (run ~quick ()))
            | "sweep" -> Exp_sweep.(render (run ()))
            | "ablations" -> Exp_ablation.render ()
            | "bench-check" ->
                (* validate the committed BENCH_*.json artifacts *)
                let report, ok = Bench_check.run () in
                if not ok then begin
                  prerr_endline report;
                  exit 1
                end;
                report
            | "adversarial" ->
                let t = Exp_adversarial.run ~quick ~jobs () in
                if not (Exp_adversarial.ok t) then begin
                  print_endline (Exp_adversarial.render t);
                  prerr_endline "adversarial: robust safety violated";
                  exit 1
                end;
                Exp_adversarial.render t
            | other ->
                Printf.eprintf "unknown experiment %s\n" other;
                exit 2)
      in
      print_endline out;
      print_newline ())
    targets
