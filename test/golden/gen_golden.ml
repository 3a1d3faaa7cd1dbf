(* Regenerate the pinned expect files for the observability golden
   tests (test_obs.ml), after reviewing that a metrics/trace change is
   intentional:

     dune exec test/golden/gen_golden.exe

   Writes <name>.profile.json and <name>.trace.txt next to each fixed
   attack program.  The computations here must mirror test_obs.ml
   exactly — that is what makes the expected files reproducible. *)

module S = Interp.State

let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc;
  Printf.printf "wrote %s\n" path

let compile name =
  Softbound.compile (read_file (Filename.concat dir (name ^ ".c")))

(* the related-work schemes pinned by test_schemes.ml: same two attack
   programs, instrumented with each scheme's option profile *)
let scheme_opts =
  List.map
    (fun (e : Schemes.entry) ->
      match e.impl with
      | Schemes.Transform opts -> (e.sname, opts)
      | Schemes.Plugin _ -> invalid_arg e.sname)
    Schemes.[ cguard; framer; l4_pointer ]

let () =
  List.iter
    (fun name ->
      let m = compile name in
      let label = name ^ ".c" in
      let p = Harness.Profile.profile ~label m in
      write_file
        (Filename.concat dir (name ^ ".profile.json"))
        (Harness.Json.pretty (Harness.Profile.to_json p));
      let cfg = { S.default_config with S.trace_depth = 16 } in
      let pt = Harness.Profile.profile ~label ~cfg ~with_baseline:false m in
      write_file
        (Filename.concat dir (name ^ ".trace.txt"))
        (Obs.dump_trace pt.Harness.Profile.result.Interp.Vm.obs);
      List.iter
        (fun (sname, opts) ->
          let ps = Harness.Profile.profile ~label ~opts m in
          write_file
            (Filename.concat dir
               (Printf.sprintf "%s.%s.profile.json" name sname))
            (Harness.Json.pretty (Harness.Profile.to_json ps));
          let pst =
            Harness.Profile.profile ~label ~opts ~cfg ~with_baseline:false m
          in
          write_file
            (Filename.concat dir (Printf.sprintf "%s.%s.trace.txt" name sname))
            (Obs.dump_trace pst.Harness.Profile.result.Interp.Vm.obs))
        scheme_opts)
    [ "oob_write"; "oob_read" ]
