(* Parameter sweep: overhead as a function of problem size.

   Not a figure in the paper, but the paper's cache-miss discussion
   (section 6.3: "the additional memory pressure is contributing to the
   runtime overheads") predicts a size-dependent effect: once a
   benchmark's working set plus its metadata no longer fit the cache,
   the metadata traffic starts costing misses, not just instructions.
   This sweep makes that observable: treeadd's overhead grows with tree
   depth as the 16-bytes-per-pointer shadow entries push the working set
   past the 32 KiB L1, while compress (almost no metadata) stays flat. *)

type point = {
  param : int;
  base_cycles : int;
  overhead_full : float;
  base_miss_rate : float;
  full_miss_rate : float;
}

type sweep = { workload : string; points : point list }

let full_shadow = Runner.Softbound Runner.sb_full_shadow

let sweeps : (string * int list) list =
  [ ("treeadd", [ 6; 8; 10; 12; 14 ]); ("compress", [ 2; 8; 16; 32 ]) ]

(* each point runs the workload with its scale argument as argv *)
let workload name = Option.get (Workloads.find name)
let argv param = [ string_of_int param ]

let cells =
  List.concat_map
    (fun (name, params) ->
      List.concat_map
        (fun p ->
          List.map
            (fun s -> (workload name, argv p, s))
            [ Runner.Unprotected; full_shadow ])
        params)
    sweeps

let point (m : Matrix.t) (w : Workloads.workload) (param : int) : point =
  let base = Matrix.get m (w, argv param, Runner.Unprotected) in
  let full = Matrix.get m (w, argv param, full_shadow) in
  let miss (r : Matrix.summary) =
    float_of_int r.cache_misses
    /. float_of_int (max 1 (r.cache_hits + r.cache_misses))
  in
  {
    param;
    base_cycles = Matrix.cycles base;
    overhead_full = Matrix.overhead ~base:(Matrix.cycles base) full;
    base_miss_rate = miss base;
    full_miss_rate = miss full;
  }

let rows (m : Matrix.t) : sweep list =
  List.map
    (fun (name, params) ->
      { workload = name; points = List.map (point m (workload name)) params })
    sweeps

let render (results : sweep list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Parameter sweep: full-checking overhead vs problem size\n\
     (cache pressure from metadata appears once the working set grows;\n\
     section 6.3's cache-miss observation)\n\n";
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Texttable.render
           ~title:(Printf.sprintf "%s (param = scale argument)" s.workload)
           ~headers:
             [ "param"; "base Mcycles"; "overhead"; "base miss%"; "sb miss%" ]
           (List.map
              (fun p ->
                [
                  string_of_int p.param;
                  Printf.sprintf "%.2f" (float_of_int p.base_cycles /. 1e6);
                  Texttable.pct p.overhead_full;
                  Texttable.pct1 p.base_miss_rate;
                  Texttable.pct1 p.full_miss_rate;
                ])
              s.points));
      Buffer.add_char buf '\n')
    results;
  Buffer.contents buf
