(* The fig2 workload: the 15 kernels of [Workloads.all] at full size,
   each run uninstrumented and under the four SoftBound configurations of
   Figure 2 — 75 kernel runs per pass.

   Set-up compiles and instruments every kernel (full and store-only;
   shadow and hash runs share one instrumented module, as in
   [Runner.instrument_cached]).  The timed phase repeats passes over the
   75 runs in a seed-shuffled order: kernels shuffled, and the five
   configurations shuffled within each kernel. *)

module Ir = Sbir.Ir
module Runner = Harness.Runner
module S = Interp.State

type config = Baseline | Full_shadow | Full_hash | Store_shadow | Store_hash

let configs = [ Baseline; Full_shadow; Full_hash; Store_shadow; Store_hash ]
let sb_configs = List.tl configs

let config_name = function
  | Baseline -> "baseline"
  | Full_shadow -> "full_shadow"
  | Full_hash -> "full_hash"
  | Store_shadow -> "store_shadow"
  | Store_hash -> "store_hash"

let opts_of = function
  | Baseline -> None
  | Full_shadow -> Some Runner.sb_full_shadow
  | Full_hash -> Some Runner.sb_full_hash
  | Store_shadow -> Some Runner.sb_store_shadow
  | Store_hash -> Some Runner.sb_store_hash

(** One program, compiled and instrumented for every configuration. *)
type program = {
  name : string;
  argv : string list;
  base : Ir.modul;
  full : Ir.modul;
  store : Ir.modul;
}

let prepare ~traced ~name ~argv (src : string) : program =
  let base = Pipeline.front_end ~traced src in
  let inst c = Pipeline.instrument ~traced (Option.get (opts_of c)) base in
  { name; argv; base; full = inst Full_shadow; store = inst Store_shadow }

let run ~traced (p : program) (c : config) : Interp.Vm.result =
  let m =
    match c with
    | Baseline -> p.base
    | Full_shadow | Full_hash -> p.full
    | Store_shadow | Store_hash -> p.store
  in
  let cfg = { (Pipeline.cfg_of (opts_of c)) with S.argv = p.argv } in
  Pipeline.execute ~traced ~cfg m

(** Does [r] (under [c]) behave like the baseline run [b]: a SoftBound
    run must end like the baseline and print the same output. *)
let agrees (b : Interp.Vm.result) (r : Interp.Vm.result) : bool =
  r.Interp.Vm.outcome = b.Interp.Vm.outcome
  && String.equal r.Interp.Vm.stdout_text b.Interp.Vm.stdout_text

(** Geometric mean over programs of the simulated-cycle overhead of
    configuration [c] against the baseline, in percent. *)
let geomean_overhead_pct (cycles : (config * int) list list) (c : config) :
    float =
  let logs =
    List.map
      (fun per ->
        log
          (float_of_int (List.assoc c per)
          /. float_of_int (List.assoc Baseline per)))
      cycles
  in
  (exp (Report.mean logs) -. 1.0) *. 100.0

let overhead_metrics cycles =
  List.map
    (fun c ->
      Report.m ("sim_overhead_" ^ config_name c ^ "_pct") "%"
        (geomean_overhead_pct cycles c))
    sb_configs

(** Run every program under every configuration once; the per-program
    cycle counts and the number of runs that misbehaved: a baseline
    that does not exit normally or a SoftBound run that disagrees with
    it. *)
let overheads (ps : program list) : (config * int) list list * int =
  let bad = ref 0 in
  let cycles =
    List.map
      (fun p ->
        let b = run ~traced:false p Baseline in
        (match b.Interp.Vm.outcome with S.Exit _ -> () | S.Trapped _ -> incr bad);
        List.map
          (fun c ->
            let r = if c = Baseline then b else run ~traced:false p c in
            if not (agrees b r) then incr bad;
            (c, r.Interp.Vm.stats.S.cycles))
          configs)
      ps
  in
  (cycles, !bad)

(* ------------------------------------------------------------------ *)
(* The workload                                                         *)
(* ------------------------------------------------------------------ *)

let shuffle rng (a : 'a array) =
  for k = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (k + 1) in
    let t = a.(k) in
    a.(k) <- a.(j);
    a.(j) <- t
  done;
  a

let setup ~traced ~quick () : program list =
  List.map
    (fun (w : Workloads.workload) ->
      prepare ~traced ~name:w.Workloads.name
        ~argv:(if quick then w.Workloads.quick_args else [])
        w.Workloads.source)
    Workloads.all

let order ~seed (ps : program list) : (program * config) array =
  let rng = Random.State.make [| seed |] in
  shuffle rng (Array.of_list ps)
  |> Array.to_list
  |> List.concat_map (fun p ->
         shuffle rng (Array.of_list configs) |> Array.to_list
         |> List.map (fun c -> (p, c)))
  |> Array.of_list

type pass = { times : float array; results : Interp.Vm.result array }

let run_one ~traced i (p, c) =
  let t0 = Span.now () in
  let r = Span.with_ ~req:i Layers.op (fun () -> run ~traced p c) in
  (Span.now () -. t0, r)

let pass_of (rs : (float * Interp.Vm.result) array) : pass =
  { times = Array.map fst rs; results = Array.map snd rs }

let run_pass ~traced runs = pass_of (Array.mapi (run_one ~traced) runs)

(** The traced pass and the untraced pass, run by run: each run traced,
    then at once untraced, so that both see the same host.  The traced
    run compiles the closures its module needs (as the first run of a
    kernel does in a plain pass), and the untraced one finds them
    cached. *)
let run_paired runs : pass * pass =
  let rs =
    Array.mapi
      (fun i x ->
        Span.recording := true;
        let t = run_one ~traced:true i x in
        Span.recording := false;
        (t, run_one ~traced:false i x))
      runs
  in
  (pass_of (Array.map fst rs), pass_of (Array.map snd rs))

(** Failed runs of a pass: a run that does not exit 0, prints other
    output than its kernel's baseline run, or counts other cycles than
    in the first pass.  [wrong] plants a wrong expected output for the
    first run (the self-test's check that failures are seen). *)
let failures ~wrong (runs : (program * config) array) (first : pass)
    (p : pass) : int =
  let base_out = Hashtbl.create 16 in
  Array.iteri
    (fun i (k, c) ->
      if c = Baseline then
        Hashtbl.replace base_out k.name p.results.(i).Interp.Vm.stdout_text)
    runs;
  let bad = ref 0 in
  Array.iteri
    (fun i (k, _) ->
      let r = p.results.(i) in
      let expected = Hashtbl.find base_out k.name in
      let expected = if wrong && i = 0 then "wrong " ^ expected else expected in
      if
        r.Interp.Vm.outcome <> S.Exit 0
        || not (String.equal r.Interp.Vm.stdout_text expected)
        || r.Interp.Vm.stats.S.cycles
           <> first.results.(i).Interp.Vm.stats.S.cycles
      then incr bad)
    runs;
  !bad

let cycles_of runs (p : pass) =
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i (k, c) ->
      let l = Option.value (Hashtbl.find_opt tbl k.name) ~default:[] in
      Hashtbl.replace tbl k.name ((c, p.results.(i).Interp.Vm.stats.S.cycles) :: l))
    runs;
  Hashtbl.fold (fun _ l acc -> l :: acc) tbl []
