(* The execution engine: the threaded-code compiler ({!Compile}).  Every
   library, harness and daemon run goes through here.  The decode loop
   in {!Vm} ({!Vm.run}) is the readable opcode reference that the
   cross-engine test suite checks this engine against; only that suite
   runs the loop itself, but the engine runs the loop's per-opcode arms
   ({!Vm.exec_inst}, {!Vm.exec_term}) for every shape it does not
   specialise. *)

(** Run the loaded module's [main], keeping the loaded state open
    afterwards. *)
let run_main (ld : Vm.loaded) : State.outcome = Compile.run_main ld

(** Load and run a module to completion. *)
let run ?(cfg = State.default_config) (m : Sbir.Ir.modul) : Vm.result =
  Compile.run ~cfg m
