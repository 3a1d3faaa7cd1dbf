(* Paper-Figure-style overhead breakdown: for every workload and every
   SoftBound configuration (full/store-only × shadow/hash × elim
   on/off), split the instrumented run's overhead cycles into check
   cost, metadata-operation cost, wrapper cost, and the residual
   (memory-system pressure, metadata propagation, calling-convention
   growth) — the attribution the paper gives in prose for its 67%
   average and that CGuard/FRAMER use to motivate their designs.

   Emitted as [BENCH_breakdown.json]; deterministic for a fixed
   seed/workload set because site assignment, the interpreter, and the
   collector are all deterministic. *)

module S = Interp.State

type split = {
  cname : string;  (** configuration label *)
  cycles : int;
  check : int;  (** site-attributed check + fptr-check cycle deltas *)
  meta : int;  (** site-attributed metadata load/store cycle deltas *)
  wrapper : int;  (** wrapper-inclusive cycle deltas *)
  residual : int;  (** overhead minus the attributed buckets *)
}

type row = {
  workload : Workloads.workload;
  base_cycles : int;
  splits : split list;
}

let without_elim o = { o with Softbound.Config.eliminate_checks = false }

(** The 8 configurations, in fixed report order. *)
let configs : (string * Softbound.Config.options) list =
  List.concat_map
    (fun (fname, opts) ->
      [ (fname ^ "-elim", opts); (fname ^ "-noelim", without_elim opts) ])
    [
      ("shadow-full", Runner.sb_full_shadow);
      ("hash-full", Runner.sb_full_hash);
      ("shadow-store", Runner.sb_store_shadow);
      ("hash-store", Runner.sb_store_hash);
    ]

let split_of ~cname ~base (r : Interp.Vm.result) : split =
  let o = r.Interp.Vm.obs in
  let k = Profile.site_kind_cycles o in
  let check = k Obs.KCheck + k Obs.KCheckFptr in
  let meta = k Obs.KMetaLoad + k Obs.KMetaStore in
  let wrapper = Obs.wrapper_cycles o in
  let cycles = r.Interp.Vm.stats.S.cycles in
  {
    cname;
    cycles;
    check;
    meta;
    wrapper;
    residual = cycles - base - check - meta - wrapper;
  }

let run_one ?(quick = false) (w : Workloads.workload) : row =
  let m = Runner.compile_workload w in
  let argv = if quick then w.Workloads.quick_args else [] in
  let base = Runner.run ~argv Runner.Unprotected m in
  let base_cycles = base.Interp.Vm.stats.S.cycles in
  let splits =
    List.map
      (fun (cname, opts) ->
        let r = Runner.run ~argv (Runner.Softbound opts) m in
        Runner.check_clean ~quick ~workload:w.Workloads.name ~scheme:cname r;
        split_of ~cname ~base:base_cycles r)
      configs
  in
  { workload = w; base_cycles; splits }

let run ?(quick = false) ?(jobs = 1) () : row list =
  (* deterministic fan-out: see the note on {!Exp_elim.run} *)
  Parutil.parmap ~jobs (run_one ~quick) Workloads.all

let frac part whole =
  if whole <= 0 then 0.0 else float_of_int part /. float_of_int whole

let render (rows : row list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Overhead breakdown per workload x configuration (fractions of \
     overhead cycles):\n";
  Buffer.add_string buf
    (Texttable.render
       ~headers:
         [ "benchmark"; "config"; "overhead"; "check"; "metadata"; "wrapper";
           "residual" ]
       (List.concat_map
          (fun r ->
            List.map
              (fun s ->
                let ov = s.cycles - r.base_cycles in
                [
                  r.workload.Workloads.name;
                  s.cname;
                  Texttable.pct (frac ov r.base_cycles);
                  Texttable.pct (frac s.check ov);
                  Texttable.pct (frac s.meta ov);
                  Texttable.pct (frac s.wrapper ov);
                  Texttable.pct (frac s.residual ov);
                ])
              r.splits)
          rows));
  (* headline aggregate: shadow/full with elimination, summed *)
  let agg name f =
    let tot =
      List.fold_left
        (fun acc r ->
          match
            List.find_opt (fun s -> s.cname = "shadow-full-elim") r.splits
          with
          | Some s -> acc + f s
          | None -> acc)
        0 rows
    in
    Printf.sprintf "  %-9s %d\n" name tot
  in
  Buffer.add_string buf
    "\naggregate cycles over all workloads (shadow/full, elim on):\n";
  Buffer.add_string buf (agg "check" (fun s -> s.check));
  Buffer.add_string buf (agg "metadata" (fun s -> s.meta));
  Buffer.add_string buf (agg "wrapper" (fun s -> s.wrapper));
  Buffer.add_string buf (agg "residual" (fun s -> s.residual));
  Buffer.contents buf

let artifact : Artifact.t =
  let open Artifact in
  let split =
    Fields (nums [ "cycles"; "check"; "metadata"; "wrapper"; "residual" ])
  in
  let configs = Fields (List.map (fun (c, _) -> (c, split)) configs) in
  { name = "breakdown"; tag = "overhead-breakdown"; host_timing = [];
    fields =
      [ ( "workloads",
          Rows
            (Fields
               [ ("name", Str); ("base_cycles", Num); ("configs", configs) ])
        ) ] }

(** Machine-readable export ([BENCH_breakdown.json]). *)
let to_json (rows : row list) : Json.t =
  let split s =
    ( s.cname,
      Json.Obj
        (Json.ints
           [ ("cycles", s.cycles); ("check", s.check); ("metadata", s.meta);
             ("wrapper", s.wrapper); ("residual", s.residual) ]) )
  in
  let workload r =
    Json.Obj
      [ ("name", Json.Str r.workload.Workloads.name);
        ("base_cycles", Json.int r.base_cycles);
        ("configs", Json.Obj (List.map split r.splits)) ]
  in
  Artifact.document artifact
    [ ("unit", Json.Str "simulated cycles");
      ("workloads", Json.List (List.map workload rows)) ]
