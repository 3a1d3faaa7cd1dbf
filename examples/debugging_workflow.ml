(* Debugging workflow: using SoftBound full checking as a development
   tool on a program with a latent read overflow (the BugBench scenario
   of section 6.2 / Table 4).

   The bug is a read that stays *inside* an enclosing struct, so it never
   crashes, never touches a redzone, and silently produces wrong answers
   — the hardest kind to find.  The example shows how each tool class
   responds and how SoftBound's abort message pinpoints the access.

   Run with:  dune exec examples/debugging_workflow.exe *)

let buggy = Attacks.Bugbench.go

let run_with scheme m = Harness.Runner.run scheme m

let describe (r : Interp.Vm.result) =
  match r.outcome with
  | Interp.State.Exit n ->
      Printf.sprintf "ran to completion (exit %d) — bug not noticed" n
  | Interp.State.Trapped t -> Interp.State.string_of_trap t

let () =
  Printf.printf "Debugging a silent read overflow\n";
  Printf.printf "================================\n\n";
  Printf.printf "program: %s\n%s\n\n" buggy.Attacks.Bugbench.name
    buggy.Attacks.Bugbench.description;

  let m = Softbound.compile buggy.Attacks.Bugbench.source in

  Printf.printf "1. plain run:          %s\n"
    (describe (run_with Harness.Runner.Unprotected m));
  Printf.printf "2. memcheck-style:     %s\n"
    (describe (run_with (Harness.Runner.Registered Schemes.memcheck) m));
  Printf.printf "3. mudflap-style:      %s\n"
    (describe (run_with (Harness.Runner.Registered Schemes.mudflap) m));
  Printf.printf "4. softbound (store):  %s\n"
    (describe
       (run_with (Harness.Runner.Softbound Harness.Runner.sb_store_shadow) m));
  Printf.printf "5. softbound (full):   %s\n\n"
    (describe
       (run_with (Harness.Runner.Softbound Harness.Runner.sb_full_shadow) m));

  (* fix the off-by-one and show the clean bill of health *)
  let patch src ~from ~into =
    let rec find i =
      if i + String.length from > String.length src then None
      else if String.sub src i (String.length from) = from then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> failwith ("patch target not found: " ^ from)
    | Some i ->
        String.sub src 0 i ^ into
        ^ String.sub src
            (i + String.length from)
            (String.length src - i - String.length from)
  in
  let fixed_src =
    patch buggy.Attacks.Bugbench.source
      ~from:"n += pos->cells[pt + 1];    /* missing right-edge guard */"
      ~into:"if (pt % 9 != 8) n += pos->cells[pt + 1];"
  in
  let fixed_m = Softbound.compile fixed_src in
  Printf.printf "after fixing the off-by-one:\n";
  Printf.printf "   softbound (full):   %s\n"
    (describe
       (run_with (Harness.Runner.Softbound Harness.Runner.sb_full_shadow)
          fixed_m));
  Printf.printf
    "\nOnly complete spatial checking sees an in-struct read overflow;\n\
     the paper's Table 4 shows the same pattern on the original BugBench\n\
     programs.\n"
