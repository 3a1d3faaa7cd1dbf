(* Regenerate the pinned instrumented-IR digests for the elimination
   golden test (test_elim.ml), after reviewing that an IR change is
   intentional:

     make elim-golden

   (or: dune exec test/golden/gen_elim_digests.exe).  Writes
   elim_ir.digests: one "<md5> <label>" line per program and option
   set, the MD5 of [Pretty_ir.dump_module] of the instrumented module.
   The corpus here must mirror test_elim.ml exactly — that is what
   makes the digests reproducible. *)

let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden"

let no_widen =
  { Softbound.Config.default with Softbound.Config.widen_checks = false }

let corpus : (string * Softbound.Config.options * string) list =
  List.concat_map
    (fun (w : Workloads.workload) ->
      [
        ("kernel:" ^ w.name ^ ":default", Softbound.Config.default, w.source);
        ("kernel:" ^ w.name ^ ":store-only", Softbound.Config.store_only,
         w.source);
        ("kernel:" ^ w.name ^ ":no-widen", no_widen, w.source);
      ])
    Workloads.all
  @ List.map
      (fun (a : Attacks.Wilander.attack) ->
        (Printf.sprintf "wilander:%02d" a.id, Softbound.Config.default,
         a.source))
      Attacks.Wilander.all
  @ List.map
      (fun (p : Attacks.Bugbench.program) ->
        ("bugbench:" ^ p.name, Softbound.Config.default, p.source))
      Attacks.Bugbench.all
  @ List.init 200 (fun index ->
        let case = Fuzz.case_of ~seed:1 ~index in
        ( Printf.sprintf "fuzz:1:%d" index,
          Softbound.Config.default,
          Cminus.Pretty.program_string case.Fuzz.Gen.prog ))

let digest opts src =
  let m = Softbound.compile src in
  let m', _ = Softbound.instrument_with_sites ~opts m in
  Digest.to_hex (Digest.string (Sbir.Pretty_ir.dump_module m'))

let () =
  let path = Filename.concat dir "elim_ir.digests" in
  let oc = open_out_bin path in
  List.iter
    (fun (label, opts, src) ->
      Printf.fprintf oc "%s %s\n" (digest opts src) label)
    corpus;
  close_out oc;
  Printf.printf "wrote %s (%d digests)\n" path (List.length corpus)
