(* Figure 2: runtime overhead of the four SoftBound configurations
   (hash-table vs shadow-space metadata, complete vs store-only checks)
   over an uninstrumented baseline, per benchmark plus average.

   Absolute numbers come from the simulated-cycle model, so only the
   *shape* is compared to the paper: hash > shadow, complete > store-only,
   pointer-heavy (right side) >> scalar (left side), store-only below 15%
   for at least half of the benchmarks. *)

type row = {
  workload : Workloads.workload;
  base_cycles : int;
  hash_full : float;
  shadow_full : float;
  hash_store : float;
  shadow_store : float;
  cguard : float;
  framer : float;
  l4_pointer : float;
      (** related-work scheme columns (print-only context for the
          SoftBound shape checks; the committed scheme artifact is
          BENCH_schemes.json) *)
}

let schemes =
  Runner.Unprotected
  :: List.map
       (fun o -> Runner.Softbound o)
       Runner.[ sb_full_hash; sb_full_shadow; sb_store_hash; sb_store_shadow ]
  @ Runner.[ Cguard; Framer; L4_pointer ]

let cells ~quick = Matrix.kernels ~quick schemes

let row ~quick (m : Matrix.t) (w : Workloads.workload) : row =
  let base = Matrix.cycles (Matrix.kernel m ~quick w Runner.Unprotected) in
  let ovs scheme = Matrix.overhead ~base (Matrix.kernel m ~quick w scheme) in
  let ov opts = ovs (Runner.Softbound opts) in
  {
    workload = w;
    base_cycles = base;
    hash_full = ov Runner.sb_full_hash;
    shadow_full = ov Runner.sb_full_shadow;
    hash_store = ov Runner.sb_store_hash;
    shadow_store = ov Runner.sb_store_shadow;
    cguard = ovs Runner.Cguard;
    framer = ovs Runner.Framer;
    l4_pointer = ovs Runner.L4_pointer;
  }

let rows ~quick m : row list = List.map (row ~quick m) Workloads.all

let avg f rows =
  List.fold_left (fun a r -> a +. f r) 0.0 rows /. float_of_int (List.length rows)

let render (rows : row list) : string =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    "Figure 2: runtime overhead of SoftBound (simulated cycles vs uninstrumented)\n";
  Buffer.add_string buf
    (Texttable.render
       ~headers:
         [ "benchmark"; "base Mcycles"; "hash/full"; "shadow/full";
           "hash/store"; "shadow/store"; "cguard"; "framer"; "l4-ptr" ]
       (List.map
          (fun r ->
            [
              r.workload.Workloads.name;
              Printf.sprintf "%.2f" (float_of_int r.base_cycles /. 1e6);
              Texttable.pct r.hash_full;
              Texttable.pct r.shadow_full;
              Texttable.pct r.hash_store;
              Texttable.pct r.shadow_store;
              Texttable.pct r.cguard;
              Texttable.pct r.framer;
              Texttable.pct r.l4_pointer;
            ])
          rows
       @ [
           [
             "average";
             "";
             Texttable.pct (avg (fun r -> r.hash_full) rows);
             Texttable.pct (avg (fun r -> r.shadow_full) rows);
             Texttable.pct (avg (fun r -> r.hash_store) rows);
             Texttable.pct (avg (fun r -> r.shadow_store) rows);
             Texttable.pct (avg (fun r -> r.cguard) rows);
             Texttable.pct (avg (fun r -> r.framer) rows);
             Texttable.pct (avg (fun r -> r.l4_pointer) rows);
           ];
         ]));
  (* shape checks against the paper *)
  let n = List.length rows in
  let store_below_15 =
    List.length (List.filter (fun r -> r.shadow_store < 0.15) rows)
  in
  let hash_ge_shadow =
    List.length (List.filter (fun r -> r.hash_full >= r.shadow_full -. 0.02) rows)
  in
  let full_ge_store =
    List.length
      (List.filter (fun r -> r.shadow_full >= r.shadow_store -. 0.02) rows)
  in
  Buffer.add_string buf
    (Printf.sprintf
       "\nshape vs paper:\n\
       \  hash-table >= shadow-space (full): %d/%d benchmarks\n\
       \  full >= store-only (shadow):       %d/%d benchmarks\n\
       \  store-only below 15%%:              %d/%d benchmarks (paper: more than half)\n\
       \  averages (paper: hash/full 127%%, shadow/full 79%%, shadow/store 32%%)\n\
       \    measured: hash/full %s, shadow/full %s, shadow/store %s\n"
       hash_ge_shadow n full_ge_store n store_below_15 n
       (Texttable.pct (avg (fun r -> r.hash_full) rows))
       (Texttable.pct (avg (fun r -> r.shadow_full) rows))
       (Texttable.pct (avg (fun r -> r.shadow_store) rows)));
  Buffer.contents buf
