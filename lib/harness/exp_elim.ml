(* Ablation of the redundant-check elimination pass (Elim): every
   Figure 2 configuration — {hash-table, shadow-space} x {full,
   store-only} — run over the 15 kernels with [eliminate_checks] on and
   off, reporting per-benchmark and geometric-mean simulated-cycle
   overheads plus the dynamic check/metadata-lookup counts the pass
   removed.

   The acceptance bar: with elimination on, the geometric-mean overhead
   must drop versus off in at least the shadow/full configuration (the
   paper's headline config), with detection untouched — the test suite
   re-runs the Wilander/BugBench matrix under elimination separately. *)

type cell = {
  cycles_on : int;
  cycles_nw : int;  (** elimination on, check widening off (control) *)
  cycles_off : int;
  ov_on : float;  (** overhead vs uninstrumented, elimination on *)
  ov_nw : float;  (** overhead, elimination on but [widen_checks] off *)
  ov_off : float;  (** overhead vs uninstrumented, elimination off *)
}

type row = {
  workload : Workloads.workload;
  base_cycles : int;
  shadow_full : cell;
  hash_full : cell;
  shadow_store : cell;
  hash_store : cell;
  checks_on : int;  (** dynamic checks executed, shadow/full, elim on *)
  checks_nw : int;  (** same with the widening sub-passes disabled *)
  checks_off : int;
  metaloads_on : int;  (** dynamic metadata lookups, shadow/full, elim on *)
  metaloads_off : int;
  widened : int;  (** static loop-widened spans, shadow/full *)
  coalesced : int;  (** static checks folded into in-block spans *)
}

let without_elim o = { o with Softbound.Config.eliminate_checks = false }
let without_widen o = { o with Softbound.Config.widen_checks = false }

(* each Figure 2 configuration with Elim on, with widening off, and
   with Elim off *)
let cells ~quick =
  Matrix.kernels ~quick
    (Runner.Unprotected
    :: List.concat_map
         (fun o ->
           List.map
             (fun o -> Runner.Softbound o)
             [ o; without_widen o; without_elim o ])
         Runner.[ sb_full_shadow; sb_full_hash; sb_store_shadow; sb_store_hash ])

let row ~quick (m : Matrix.t) (w : Workloads.workload) : row =
  let run opts = Matrix.kernel m ~quick w (Runner.Softbound opts) in
  let base = Matrix.cycles (Matrix.kernel m ~quick w Runner.Unprotected) in
  let cell opts =
    let on = run opts
    and nw = run (without_widen opts)
    and off = run (without_elim opts) in
    {
      cycles_on = Matrix.cycles on;
      cycles_nw = Matrix.cycles nw;
      cycles_off = Matrix.cycles off;
      ov_on = Matrix.overhead ~base on;
      ov_nw = Matrix.overhead ~base nw;
      ov_off = Matrix.overhead ~base off;
    }
  in
  let sf = Runner.sb_full_shadow in
  let sf_on = (run sf).stats
  and sf_nw = (run (without_widen sf)).stats
  and sf_off = (run (without_elim sf)).stats in
  let widened, coalesced =
    let mi, _ =
      Runner.instrument_cached ~opts:sf (Runner.compile_workload w)
    in
    Hashtbl.fold
      (fun _ f (w, c) ->
        ( w + Softbound.Elim.count_widened f,
          c + Softbound.Elim.count_coalesced f ))
      mi.Sbir.Ir.mfuncs (0, 0)
  in
  {
    workload = w;
    base_cycles = base;
    shadow_full = cell sf;
    hash_full = cell Runner.sb_full_hash;
    shadow_store = cell Runner.sb_store_shadow;
    hash_store = cell Runner.sb_store_hash;
    checks_on = sf_on.Interp.State.checks;
    checks_nw = sf_nw.Interp.State.checks;
    checks_off = sf_off.Interp.State.checks;
    metaloads_on = sf_on.Interp.State.meta_loads;
    metaloads_off = sf_off.Interp.State.meta_loads;
    widened;
    coalesced;
  }

let rows ~quick m : row list = List.map (row ~quick m) Workloads.all

(** Geometric mean of the cycle ratios (instrumented / base), reported
    as an overhead — the acceptance metric. *)
let geomean_ov (cell_of : row -> cell) (value : cell -> float)
    (rows : row list) : float =
  let log_sum =
    List.fold_left
      (fun acc r -> acc +. log (1.0 +. value (cell_of r)))
      0.0 rows
  in
  exp (log_sum /. float_of_int (List.length rows)) -. 1.0

let render (rows : row list) : string =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    "Check-elimination ablation: simulated-cycle overhead with the Elim \
     pass on / off\n";
  Buffer.add_string buf
    (Texttable.render
       ~headers:
         [ "benchmark"; "shadow/full on"; "no-widen"; "shadow/full off";
           "saved"; "checks on/nw/off"; "widened"; "coalesced" ]
       (List.map
          (fun r ->
            let c = r.shadow_full in
            [
              r.workload.Workloads.name;
              Texttable.pct c.ov_on;
              Texttable.pct c.ov_nw;
              Texttable.pct c.ov_off;
              Texttable.pct (c.ov_off -. c.ov_on);
              Printf.sprintf "%d/%d/%d" r.checks_on r.checks_nw r.checks_off;
              Printf.sprintf "%d" r.widened;
              Printf.sprintf "%d" r.coalesced;
            ])
          rows));
  let gm cell_of v = geomean_ov cell_of v rows in
  let line name cell_of =
    Printf.sprintf
      "  %-13s %s -> %s -> %s  (geomean overhead off -> no-widen -> on)\n"
      name
      (Texttable.pct (gm cell_of (fun c -> c.ov_off)))
      (Texttable.pct (gm cell_of (fun c -> c.ov_nw)))
      (Texttable.pct (gm cell_of (fun c -> c.ov_on)))
  in
  Buffer.add_string buf "\ngeometric-mean overheads across the 15 kernels:\n";
  Buffer.add_string buf (line "shadow/full" (fun r -> r.shadow_full));
  Buffer.add_string buf (line "hash/full" (fun r -> r.hash_full));
  Buffer.add_string buf (line "shadow/store" (fun r -> r.shadow_store));
  Buffer.add_string buf (line "hash/store" (fun r -> r.hash_store));
  let sf_off = gm (fun r -> r.shadow_full) (fun c -> c.ov_off) in
  let sf_on = gm (fun r -> r.shadow_full) (fun c -> c.ov_on) in
  Buffer.add_string buf
    (Printf.sprintf
       "\nacceptance (shadow/full): elimination %s the geomean overhead \
        (%s -> %s)\n"
       (if sf_on < sf_off then "LOWERS" else "DOES NOT LOWER")
       (Texttable.pct sf_off) (Texttable.pct sf_on));
  Buffer.contents buf

let groups =
  [
    ("shadow_full", fun r -> r.shadow_full);
    ("hash_full", fun r -> r.hash_full);
    ("shadow_store", fun r -> r.shadow_store);
    ("hash_store", fun r -> r.hash_store);
  ]

let artifact : Artifact.t =
  let open Artifact in
  let trio = nums [ "on"; "no_widen"; "off" ] in
  let cell =
    trio @ nums [ "overhead_on"; "overhead_no_widen"; "overhead_off" ]
  in
  let per_group s = List.map (fun (g, _) -> (g, s)) groups in
  let kernel =
    [ ("name", Str); ("base_cycles", Num) ]
    @ per_group (Fields cell)
    @ [ ("checks", Fields trio); ("meta_loads", Fields (nums [ "on"; "off" ])) ]
    @ nums [ "checks_widened"; "checks_coalesced" ]
  in
  { name = "elim"; tag = "elim-ablation"; host_timing = [];
    fields =
      [ ("kernels", Rows (Fields kernel));
        ("geomean_overhead", Fields (per_group (Fields trio))) ] }

(** Machine-readable per-kernel cycles for the perf trajectory
    ([BENCH_elim.json]). *)
let to_json (rows : row list) : Json.t =
  let ov = Json.decimals 4 in
  let trio on nw off =
    Json.ints [ ("on", on); ("no_widen", nw); ("off", off) ]
  in
  let cell c =
    Json.Obj
      (trio c.cycles_on c.cycles_nw c.cycles_off
      @ [ ("overhead_on", ov c.ov_on); ("overhead_no_widen", ov c.ov_nw);
          ("overhead_off", ov c.ov_off) ])
  in
  let kernel r =
    Json.Obj
      ([ ("name", Json.Str r.workload.Workloads.name);
         ("base_cycles", Json.int r.base_cycles) ]
      @ List.map (fun (g, cell_of) -> (g, cell (cell_of r))) groups
      @ [ ("checks", Json.Obj (trio r.checks_on r.checks_nw r.checks_off));
          ( "meta_loads",
            Json.Obj
              (Json.ints [ ("on", r.metaloads_on); ("off", r.metaloads_off) ]) ) ]
      @ Json.ints
          [ ("checks_widened", r.widened); ("checks_coalesced", r.coalesced) ])
  in
  let geo (g, cell_of) =
    let gm value = ov (geomean_ov cell_of value rows) in
    ( g,
      Json.Obj
        [ ("on", gm (fun c -> c.ov_on)); ("no_widen", gm (fun c -> c.ov_nw));
          ("off", gm (fun c -> c.ov_off)) ] )
  in
  Artifact.document artifact
    [ ("unit", Json.Str "simulated cycles");
      ("kernels", Json.List (List.map kernel rows));
      ("geomean_overhead", Json.Obj (List.map geo groups)) ]
