(* Paper-Figure-style overhead breakdown: for every workload and every
   SoftBound configuration (full/store-only × shadow/hash × elim
   on/off), split the instrumented run's overhead cycles into check
   cost, metadata-operation cost, wrapper cost, and the residual
   (memory-system pressure, metadata propagation, calling-convention
   growth) — the attribution the paper gives in prose for its 67%
   average and that CGuard/FRAMER use to motivate their designs.  The
   split is {!Matrix.split}, the one the scheme matrix prints too.

   Emitted as [BENCH_breakdown.json]; deterministic for a fixed
   seed/workload set because site assignment, the interpreter, and the
   collector are all deterministic. *)

type row = {
  workload : Workloads.workload;
  base_cycles : int;
  splits : (string * Matrix.summary) list;  (** per configuration *)
}

(** The 8 configurations, in fixed report order. *)
let configs : (string * Softbound.Config.options) list =
  List.concat_map
    (fun (fname, opts) ->
      [ (fname ^ "-elim", opts); (fname ^ "-noelim", Exp_elim.without_elim opts) ])
    [
      ("shadow-full", Runner.sb_full_shadow);
      ("hash-full", Runner.sb_full_hash);
      ("shadow-store", Runner.sb_store_shadow);
      ("hash-store", Runner.sb_store_hash);
    ]

let cells ~quick =
  Matrix.kernels ~quick
    (Runner.Unprotected :: List.map (fun (_, o) -> Runner.Softbound o) configs)

let row ~quick (m : Matrix.t) (w : Workloads.workload) : row =
  let base_cycles =
    Matrix.cycles (Matrix.kernel m ~quick w Runner.Unprotected)
  in
  let splits =
    List.map
      (fun (cname, opts) ->
        let s = Matrix.kernel m ~quick w (Runner.Softbound opts) in
        Matrix.check_clean ~quick ~workload:w.Workloads.name ~scheme:cname s;
        (cname, s))
      configs
  in
  { workload = w; base_cycles; splits }

let rows ~quick m : row list = List.map (row ~quick m) Workloads.all

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
              (fun (cname, s) ->
                r.workload.Workloads.name :: cname
                :: Matrix.split_cells ~base:r.base_cycles s)
              r.splits)
          rows));
  (* headline aggregate: shadow/full with elimination, summed *)
  let totals =
    List.fold_left
      (fun acc r ->
        match List.assoc_opt "shadow-full-elim" r.splits with
        | Some s ->
            List.map2
              (fun (k, a) (_, b) -> (k, a + b))
              acc
              (Matrix.split ~base:r.base_cycles s)
        | None -> acc)
      [ ("check", 0); ("metadata", 0); ("wrapper", 0); ("residual", 0) ]
      rows
  in
  Buffer.add_string buf
    "\naggregate cycles over all workloads (shadow/full, elim on):\n";
  List.iter
    (fun (k, tot) -> Buffer.add_string buf (Printf.sprintf "  %-9s %d\n" k tot))
    totals;
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
  let workload r =
    let split (cname, s) =
      ( cname,
        Json.Obj
          (Json.ints
             (("cycles", Matrix.cycles s) :: Matrix.split ~base:r.base_cycles s))
      )
    in
    Json.Obj
      [ ("name", Json.Str r.workload.Workloads.name);
        ("base_cycles", Json.int r.base_cycles);
        ("configs", Json.Obj (List.map split r.splits)) ]
  in
  Artifact.document artifact
    [ ("unit", Json.Str "simulated cycles");
      ("workloads", Json.List (List.map workload rows)) ]
