(* The SoftBound pipeline, one public entry point per call, so that each
   layer can be timed on its own.

   Untraced, the benchmark calls the library's composite entry points
   ([Softbound.compile], [Softbound.instrument_with_sites],
   [Interp.Engine.run]).  Traced, it calls the stages those are built
   from, each inside a span:

   - [cminus]: [Lexer.tokenize], [Parser.parse_program_tokens],
     [Typecheck.check_program];
   - [sbir]: [Lower.lower_program], [Opt.run], [Inline.run], [Opt.run]
     (the order [Softbound.compile] uses);
   - [softbound]: [Transform.transform_with_sites] with elimination
     off, then [Elim.elim_func] over each instrumented function (the
     order [transform_with_sites] uses with elimination on);
   - [interp]: [Vm.create], [Compile.attach], [Engine.run_main] and
     [Vm.finish].

   [split_matches] checks that the staged transform prints
   byte-identically to the composite one. *)

module Ir = Sbir.Ir
module S = Interp.State

(* static counts from the traced stages *)
let tokens = Atomic.make 0
let ir_insts = Atomic.make 0
let checks_emitted = Atomic.make 0
let checks_kept = Atomic.make 0
let checks_widened = Atomic.make 0
let checks_coalesced = Atomic.make 0

let counters =
  [ ("cminus.tokens", tokens); ("sbir.ir_insts", ir_insts);
    ("softbound.checks_emitted", checks_emitted);
    ("softbound.checks_kept", checks_kept);
    ("softbound.checks_widened", checks_widened);
    ("softbound.checks_coalesced", checks_coalesced) ]

let reset_counters () = List.iter (fun (_, a) -> Atomic.set a 0) counters
let add a n = ignore (Atomic.fetch_and_add a n)

(* If the staged transform ever stops printing like the composite one,
   the two stages are timed as one ("softbound.transform"). *)
let split_ok = ref true

let sum_funcs (m : Ir.modul) (f : Ir.func -> int) : int =
  Hashtbl.fold (fun _ fn acc -> acc + f fn) m.Ir.mfuncs 0

let count_insts (f : Ir.func) =
  Array.fold_left (fun acc b -> acc + List.length b.Ir.insts) 0 f.Ir.fblocks

(** [Softbound.compile], stage by stage. *)
let front_end ~traced (src : string) : Ir.modul =
  if not traced then Softbound.compile src
  else begin
    let toks = Span.with_ "cminus.lex" (fun () -> Cminus.Lexer.tokenize src) in
    add tokens (Array.length toks);
    let ast =
      Span.with_ "cminus.parse" (fun () ->
          Cminus.Parser.parse_program_tokens toks)
    in
    let tp =
      Span.with_ "cminus.typecheck" (fun () ->
          Cminus.Typecheck.check_program ast)
    in
    let m = Span.with_ "sbir.lower" (fun () -> Sbir.Lower.lower_program tp) in
    let m = Span.with_ "sbir.opt" (fun () -> Sbir.Opt.run m) in
    let m = Span.with_ "sbir.inline" (fun () -> Sbir.Inline.run m) in
    let m = Span.with_ "sbir.opt" (fun () -> Sbir.Opt.run m) in
    add ir_insts (sum_funcs m count_insts);
    m
  end

(* transform with elimination off, then [Elim.elim_func] over each
   instrumented function, exactly as [transform_with_sites] interleaves
   them with elimination on *)
let staged_transform (opts : Softbound.Config.options) (m : Ir.modul) =
  let raw, _sites =
    Span.with_ "softbound.transform" (fun () ->
        Softbound.Transform.transform_with_sites
          ~opts:{ opts with Softbound.Config.eliminate_checks = false }
          m)
  in
  add checks_emitted (sum_funcs raw Softbound.Elim.count_checks);
  Span.with_ "softbound.elim" @@ fun () ->
  let funcs = Hashtbl.copy raw.Ir.mfuncs in
  List.iter
    (fun n ->
      let f0 = Hashtbl.find m.Ir.mfuncs n in
      let name = Softbound.Transform.sb_name n in
      let f =
        Softbound.Elim.elim_func ~meta_floor:f0.Ir.fnregs
          ~widen:opts.Softbound.Config.widen_checks
          (Hashtbl.find raw.Ir.mfuncs name)
      in
      Hashtbl.replace funcs name f)
    m.Ir.mfunc_order;
  { raw with Ir.mfuncs = funcs }

(** Does the staged transform print like the composite one? *)
let split_matches opts m =
  let saved = !Span.recording in
  Span.recording := false;
  let staged =
    Fun.protect ~finally:(fun () -> Span.recording := saved) (fun () ->
        staged_transform opts m)
  in
  String.equal
    (Sbir.Pretty_ir.dump_module staged)
    (Sbir.Pretty_ir.dump_module
       (fst (Softbound.instrument_with_sites ~opts m)))

(** [Softbound.instrument_with_sites], stage by stage when traced. *)
let instrument ~traced (opts : Softbound.Config.options) (m : Ir.modul) :
    Ir.modul =
  if not traced then fst (Softbound.instrument_with_sites ~opts m)
  else begin
    let m' =
      if !split_ok then staged_transform opts m
      else
        Span.with_ "softbound.transform" (fun () ->
            fst (Softbound.instrument_with_sites ~opts m))
    in
    add checks_kept (sum_funcs m' Softbound.Elim.count_checks);
    add checks_widened (sum_funcs m' Softbound.Elim.count_widened);
    add checks_coalesced (sum_funcs m' Softbound.Elim.count_coalesced);
    m'
  end

(** The VM settings [Runner.run] uses for a scheme; [None] is the
    uninstrumented baseline. *)
let cfg_of (opts : Softbound.Config.options option) : S.config =
  let base = { S.default_config with S.max_steps = 2_000_000_000 } in
  match opts with
  | None -> base
  | Some o ->
      {
        base with
        S.meta = Some (Softbound.facility_of o.Softbound.Config.facility);
        store_only = o.Softbound.Config.mode = Softbound.Config.Store_only;
      }

(** [Interp.Engine.run], stage by stage when traced. *)
let execute ~traced ~(cfg : S.config) (m : Ir.modul) : Interp.Vm.result =
  if not traced then Interp.Engine.run ~cfg m
  else begin
    let ld = Span.with_ "interp.load" (fun () -> Interp.Vm.create ~cfg m) in
    Span.with_ "interp.closure_compile" (fun () ->
        ignore (Interp.Compile.attach ld));
    Span.with_ "interp.exec" (fun () ->
        Interp.Vm.finish ld (Interp.Engine.run_main ld))
  end
