(* VM throughput: simulated cycles executed per host wall-clock second.

   Every artifact in this repo is bottlenecked on the host speed of the
   IR interpreter, so the engine's throughput is tracked as a number
   ([BENCH_vmspeed.json]), not a claim.  Each row times [iters] complete
   runs of one kernel under one scheme — unprotected exercises the bare
   dispatch/memory fast path, softbound-full-hash additionally hammers
   the metadata hash table — and reports simulated-cycles-per-
   host-second.  Simulated cycle counts are deterministic and
   golden-checked elsewhere; only the fields the artifact declares as
   host timing vary from run to run, and [experiments determinism
   vmspeed] compares everything except those.  Each row also records
   the engine's closure dispatches per simulated instruction, a host-work
   proxy that is exact where timings are noisy: fewer than one means
   superinstructions ran several instructions per dispatch.  Its
   [bounces] count the chains the engine's driver entered: one per
   entry function (main, and SoftBound's global-metadata initializer),
   plus one per re-entry after a builtin's comparator returns, a longjmp
   moves to another frame, or a poll hook runs.

   The recorded baseline below was measured with this same harness on
   the PR 4 engine (pre-decoded dispatch, word-granular memory — the
   commit this PR builds on), so the JSON carries both sides of the
   before/after comparison, and every current row additionally carries
   its own [speedup_vs_baseline] against the matching baseline row. *)

type row = {
  name : string;
  scheme : string;
  sim_cycles : int;  (** cycles of one run — deterministic *)
  dispatches_per_inst : float;
      (** {!Interp.Vm.result.dispatches} over instructions — deterministic *)
  bounces : int;  (** {!Interp.Vm.result.bounces} of one run — deterministic *)
  runs : int;  (** timed iterations behind [host_seconds] *)
  host_seconds : float;
}

let cps (r : row) : float =
  if r.host_seconds <= 0.0 then 0.0
  else float_of_int r.sim_cycles *. float_of_int r.runs /. r.host_seconds

let schemes : (string * Runner.scheme) list =
  [
    ("unprotected", Runner.Unprotected);
    ("softbound-full-hash", Runner.Softbound Runner.sb_full_hash);
  ]

let scheme_names = List.map fst schemes

(* ------------------------------------------------------------------ *)
(* Recorded baseline                                                    *)
(* ------------------------------------------------------------------ *)

(** Throughput of the PR 4 engine (pre-decoded dispatch, word-granular
    memory, direct-mapped metadata inline cache — before the
    threaded-code compiler and the flat shadow space), measured by this
    harness at full workload sizes, iters=2.  Units: simulated cycles
    per host second. *)
let baseline_label = "pre-decoded dispatch engine (PR 4), full args, iters=2"

let baseline : (string * string * float) list =
  [
    ("go", "unprotected", 8.376137e+07);
    ("go", "softbound-full-hash", 8.087095e+07);
    ("lbm", "unprotected", 8.926850e+07);
    ("lbm", "softbound-full-hash", 9.265726e+07);
    ("hmmer", "unprotected", 6.049091e+07);
    ("hmmer", "softbound-full-hash", 5.908649e+07);
    ("compress", "unprotected", 5.688519e+07);
    ("compress", "softbound-full-hash", 5.682227e+07);
    ("ijpeg", "unprotected", 9.910587e+07);
    ("ijpeg", "softbound-full-hash", 9.472003e+07);
    ("bh", "unprotected", 4.760601e+07);
    ("bh", "softbound-full-hash", 5.312291e+07);
    ("tsp", "unprotected", 6.064308e+07);
    ("tsp", "softbound-full-hash", 6.400811e+07);
    ("libquantum", "unprotected", 5.274694e+07);
    ("libquantum", "softbound-full-hash", 5.424285e+07);
    ("perimeter", "unprotected", 5.391860e+07);
    ("perimeter", "softbound-full-hash", 6.990481e+07);
    ("health", "unprotected", 4.026240e+07);
    ("health", "softbound-full-hash", 6.029398e+07);
    ("bisort", "unprotected", 3.519432e+07);
    ("bisort", "softbound-full-hash", 5.380921e+07);
    ("mst", "unprotected", 5.994314e+07);
    ("mst", "softbound-full-hash", 6.050445e+07);
    ("li", "unprotected", 3.298558e+07);
    ("li", "softbound-full-hash", 5.453920e+07);
    ("em3d", "unprotected", 5.035378e+07);
    ("em3d", "softbound-full-hash", 7.972125e+07);
    ("treeadd", "unprotected", 2.888976e+07);
    ("treeadd", "softbound-full-hash", 4.928997e+07);
  ]

let baseline_cps ~name ~scheme =
  List.find_map
    (fun (n, s, v) -> if n = name && s = scheme then Some v else None)
    baseline

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

let measure_one ~quick ~iters (w : Workloads.workload)
    ((sname, scheme) : string * Runner.scheme) : row =
  let m = Runner.compile_workload w in
  let argv = if quick then w.Workloads.quick_args else [] in
  (* untimed warm run: fills the transform and closure-compile caches so
     the timed loop measures the interpreter, not the pipeline *)
  let r0 = Runner.run ~argv scheme m in
  Runner.check_clean ~quick ~workload:w.Workloads.name ~scheme:sname
    r0.Interp.Vm.outcome;
  let t0 = now () in
  for _ = 1 to iters do
    ignore (Runner.run ~argv scheme m)
  done;
  let t1 = now () in
  {
    name = w.Workloads.name;
    scheme = sname;
    sim_cycles = r0.Interp.Vm.stats.Interp.State.cycles;
    dispatches_per_inst =
      float_of_int r0.Interp.Vm.dispatches
      /. float_of_int (max 1 r0.Interp.Vm.stats.Interp.State.insts);
    bounces = r0.Interp.Vm.bounces;
    runs = iters;
    host_seconds = t1 -. t0;
  }

let run ?(quick = false) ?(iters = 1) ?(jobs = 1) () : row list =
  let tasks =
    List.concat_map (fun w -> List.map (fun s -> (w, s)) schemes) Workloads.all
  in
  (* transform everything up front (serially) so parallel timing rows
     never serialize on the transform-cache mutex mid-measurement *)
  List.iter
    (fun (w, (_, scheme)) ->
      match scheme with
      | Runner.Softbound opts ->
          ignore (Runner.instrument_cached ~opts (Runner.compile_workload w))
      | _ -> ignore (Runner.compile_workload w))
    tasks;
  Parutil.parmap ~jobs (fun (w, s) -> measure_one ~quick ~iters w s) tasks

(* ------------------------------------------------------------------ *)
(* Aggregation                                                          *)
(* ------------------------------------------------------------------ *)

let geomean = function
  | [] -> 0.0
  | xs ->
      exp
        (List.fold_left (fun a x -> a +. log (max 1e-9 x)) 0.0 xs
        /. float_of_int (List.length xs))

let geomean_cps_of ~scheme (rows : row list) : float =
  geomean
    (List.filter_map
       (fun r -> if r.scheme = scheme then Some (cps r) else None)
       rows)

let geomean_cps_baseline ~scheme : float option =
  match List.filter (fun (_, s, _) -> s = scheme) baseline with
  | [] -> None
  | xs -> Some (geomean (List.map (fun (_, _, v) -> v) xs))

(** Per-row speedup over the matching recorded-baseline row. *)
let row_speedup (r : row) : float option =
  match baseline_cps ~name:r.name ~scheme:r.scheme with
  | Some b when b > 0.0 -> Some (cps r /. b)
  | _ -> None

(** Geomean speedup of one scheme's rows over the recorded baseline;
    [None] when no baseline is recorded. *)
let speedup_of ~scheme (rows : row list) : float option =
  match geomean_cps_baseline ~scheme with
  | None -> None
  | Some b when b <= 0.0 -> None
  | Some b -> Some (geomean_cps_of ~scheme rows /. b)

let overall_speedup (rows : row list) : float option =
  let per = List.filter_map (fun s -> speedup_of ~scheme:s rows) scheme_names in
  if List.length per <> List.length scheme_names then None
  else Some (geomean per)

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let mcps x = Printf.sprintf "%.1f" (x /. 1e6)

let render (rows : row list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "VM throughput: simulated Mcycles per host second (higher is faster)\n";
  let kernels =
    List.sort_uniq compare (List.map (fun r -> r.name) rows)
  in
  (* keep registry order, not alphabetical *)
  let kernels =
    List.filter (fun w -> List.mem w kernels) Workloads.names
  in
  Buffer.add_string buf
    (Texttable.render
       ~headers:
         ([ "benchmark" ]
         @ List.concat_map
             (fun s -> [ s; "vs base"; "disp/inst" ])
             scheme_names)
       (List.map
          (fun k ->
            let cells =
              List.concat_map
                (fun s ->
                  match
                    List.find_opt (fun r -> r.name = k && r.scheme = s) rows
                  with
                  | None -> [ "-"; "-"; "-" ]
                  | Some r ->
                      [ mcps (cps r);
                        (match row_speedup r with
                        | Some x -> Printf.sprintf "%.2fx" x
                        | None -> "-");
                        Printf.sprintf "%.3f" r.dispatches_per_inst ])
                scheme_names
            in
            k :: cells)
          kernels));
  Buffer.add_string buf "geomean Mcycles/host-second:\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "  %-20s %s%s\n" s
           (mcps (geomean_cps_of ~scheme:s rows))
           (match speedup_of ~scheme:s rows with
           | Some x -> Printf.sprintf "  (%.2fx vs recorded baseline)" x
           | None -> "  (no recorded baseline)")))
    scheme_names;
  (match overall_speedup rows with
  | Some x ->
      Buffer.add_string buf
        (Printf.sprintf "overall geomean speedup vs baseline: %.2fx\n" x)
  | None -> ());
  Buffer.contents buf

let artifact : Artifact.t =
  let open Artifact in
  let row =
    Fields
      (nums
         [ "sim_cycles"; "dispatches_per_inst"; "bounces";
           "cycles_per_host_sec"; "speedup_vs_baseline" ])
  in
  let rows_per_scheme = List.map (fun s -> (s, Any)) scheme_names in
  { name = "vmspeed"; tag = "vmspeed";
    host_timing =
      [ "host_seconds"; "cycles_per_host_sec"; "speedup_vs_baseline";
        "geomean_cycles_per_host_sec" ];
    fields =
      [ ( "baseline",
          Fields
            [ ("rows", Rows (Fields (nums [ "cycles_per_host_sec" ])));
              ("geomean_cycles_per_host_sec", Any) ] );
        ( "current",
          Fields
            [ ("rows", Table ("scheme", rows_per_scheme, row));
              ("geomean_cycles_per_host_sec", Any) ] );
        ("speedup_vs_baseline", Fields (nums [ "overall" ])) ] }

(** Machine-readable artifact ([BENCH_vmspeed.json]). *)
let to_json ?(quick = false) ?(iters = 1) (rows : row list) : Json.t =
  let cps_num = Json.sig_digits 7 in
  let speedup x = Json.decimals 3 (Option.value ~default:0.0 x) in
  let per names f = Json.Obj (List.map (fun s -> (s, f s)) names) in
  let baseline_json =
    match baseline with
    | [] -> Json.Null
    | b ->
        let row (n, s, v) =
          Json.Obj
            [ ("name", Json.Str n); ("scheme", Json.Str s);
              ("cycles_per_host_sec", cps_num v) ]
        in
        Json.Obj
          [ ("label", Json.Str baseline_label);
            ("rows", Json.List (List.map row b));
            ( "geomean_cycles_per_host_sec",
              per scheme_names (fun s ->
                  cps_num
                    (Option.value ~default:0.0 (geomean_cps_baseline ~scheme:s)))
            ) ]
  in
  let row r =
    Json.Obj
      [ ("name", Json.Str r.name); ("scheme", Json.Str r.scheme);
        ("sim_cycles", Json.int r.sim_cycles);
        ("dispatches_per_inst", Json.decimals 4 r.dispatches_per_inst);
        ("bounces", Json.int r.bounces);
        ("runs", Json.int r.runs);
        ("host_seconds", Json.decimals 6 r.host_seconds);
        ("cycles_per_host_sec", cps_num (cps r));
        ( "speedup_vs_baseline",
          match row_speedup r with None -> Json.Null | x -> speedup x )
      ]
  in
  let geomean s = cps_num (geomean_cps_of ~scheme:s rows) in
  let speedups =
    Json.Obj
      (List.map (fun s -> (s, speedup (speedup_of ~scheme:s rows))) scheme_names
      @ [ ("overall", speedup (overall_speedup rows)) ])
  in
  Artifact.document artifact
    [ ("unit", Json.Str "simulated cycles per host second");
      ("quick", Json.Bool quick); ("iters", Json.int iters);
      ("baseline", baseline_json);
      ( "current",
        Json.Obj
          [ ("rows", Json.List (List.map row rows));
            ("geomean_cycles_per_host_sec", per scheme_names geomean) ] );
      ("speedup_vs_baseline", speedups) ]
