(* Per-layer figures of a traced run: self times and allocation from the
   spans, work counts from the VM results and the traced stages. *)

(* metric name, span name *)
let stages =
  [
    ("cminus.lex_ms", "cminus.lex");
    ("cminus.parse_ms", "cminus.parse");
    ("cminus.typecheck_ms", "cminus.typecheck");
    ("sbir.lower_ms", "sbir.lower");
    ("sbir.opt_ms", "sbir.opt");
    ("sbir.inline_ms", "sbir.inline");
    ("softbound.transform_ms", "softbound.transform");
    ("softbound.elim_ms", "softbound.elim");
    ("interp.load_ms", "interp.load");
    ("interp.closure_compile_ms", "interp.closure_compile");
    ("interp.exec_ms", "interp.exec");
    ("harness.proto_parse_ms", "harness.proto_parse");
    ("harness.cache_lookup_ms", "harness.cache_lookup");
    ("harness.json_ms", "harness.json");
  ]

let alloc_layers = [ "cminus"; "sbir"; "softbound"; "interp"; "harness" ]

(** The root span of one operation: a serve job's service, or one
    kernel run of Figure 2.  Its self time belongs to no layer. *)
let op = "op"

(* VM work, summed over the traced operations *)
type vm = {
  mutable runs : int;
  mutable cycles : float;
  mutable checks : float;
  mutable meta_loads : float;
  mutable meta_stores : float;
  mutable cache_misses : float;
  mutable resident_kb : float;
}

let vm () =
  { runs = 0; cycles = 0.0; checks = 0.0; meta_loads = 0.0; meta_stores = 0.0;
    cache_misses = 0.0; resident_kb = 0.0 }

let add_result (v : vm) (r : Interp.Vm.result) =
  let s = r.Interp.Vm.stats in
  v.runs <- v.runs + 1;
  v.cycles <- v.cycles +. float_of_int s.Interp.State.cycles;
  v.checks <- v.checks +. float_of_int s.Interp.State.checks;
  v.meta_loads <- v.meta_loads +. float_of_int s.Interp.State.meta_loads;
  v.meta_stores <- v.meta_stores +. float_of_int s.Interp.State.meta_stores;
  v.cache_misses <- v.cache_misses +. float_of_int r.Interp.Vm.cache_misses;
  v.resident_kb <-
    v.resident_kb +. (float_of_int r.Interp.Vm.resident_bytes /. 1024.0)

type summary = {
  metrics : Report.metric list;
  accounted_s : float;  (** layer self time inside [op] spans *)
  nesting_errors : int;
}

(** Per-operation figures from [spans] over [ops] operations; the VM
    counts in [v] cover the same operations. *)
let summarize ~(ops : float) (spans : Span.t list) (v : vm) : summary =
  let self = Span.self spans in
  let op_ids = Hashtbl.create 1024 in
  List.iter (fun s -> if s.Span.name = op then Hashtbl.replace op_ids s.Span.id ()) spans;
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
  (* is the span inside an [op] span? *)
  let rec under_op (s : Span.t) =
    s.Span.parent >= 0
    && (Hashtbl.mem op_ids s.Span.parent
       || match Hashtbl.find_opt by_id s.Span.parent with
          | Some p -> under_op p
          | None -> false)
  in
  let time name =
    List.fold_left
      (fun acc (s, t, _) -> if s.Span.name = name then acc +. t else acc)
      0.0 self
  in
  let words l =
    List.fold_left
      (fun acc (s, _, w) ->
        if s.Span.name <> op && Span.layer s.Span.name = l then acc +. w
        else acc)
      0.0 self
  in
  let accounted_s =
    List.fold_left
      (fun acc (s, t, _) ->
        if s.Span.name <> op && under_op s then acc +. t else acc)
      0.0 self
  in
  let per x = x /. ops in
  let ms x = per x *. 1000.0 in
  let exec_s = time "interp.exec" in
  let counter name =
    float_of_int (Atomic.get (List.assoc name Pipeline.counters))
  in
  let metrics =
    List.map (fun (mname, sname) -> Report.m mname "ms" (ms (time sname))) stages
    @ List.map
        (fun (mname, _) -> Report.m mname "count" (per (counter mname)))
        Pipeline.counters
    @ List.map
        (fun l -> Report.m (l ^ ".alloc_mwords") "Mwords" (per (words l) /. 1e6))
        alloc_layers
    @ [
        Report.m "interp.sim_mcycles_per_s" "Mcycles/s"
          (if exec_s > 0.0 then v.cycles /. exec_s /. 1e6 else 0.0);
        Report.m "interp.sim_cycles" "count" (per v.cycles);
        Report.m "interp.dyn_checks" "count" (per v.checks);
        Report.m "interp.meta_loads" "count" (per v.meta_loads);
        Report.m "interp.meta_stores" "count" (per v.meta_stores);
        Report.m "machine.cache_misses" "count" (per v.cache_misses);
        Report.m "machine.resident_kb" "KiB"
          (if v.runs > 0 then v.resident_kb /. float_of_int v.runs else 0.0);
        Report.m "trace.unattributed_ms" "ms" (ms (time op));
        Report.m "trace.spans" "count" (per (float_of_int (List.length spans)));
        Report.m "softbound.split_identical" "bool"
          (if !Pipeline.split_ok then 1.0 else 0.0);
      ]
  in
  { metrics; accounted_s; nesting_errors = Span.nesting_errors spans }
