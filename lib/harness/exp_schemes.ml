(* N-scheme cost/coverage matrix: every workload under every protection
   scheme — the two SoftBound reference configurations, the MSCC-style
   transform, the three related-work schemes (CGuard, FRAMER, L4
   Pointer), and the three plugin baselines — with the overhead of each
   run split into check/metadata/wrapper/residual buckets
   ({!Matrix.split}), plus the fixed completeness-gap attack suite's
   detection matrix.

   This is the experiment the ROADMAP's "multi-backend scheme matrix"
   item asks for: Figure 2's cost story and Table 4's coverage story
   over *approaches*, not just SoftBound's two metadata organizations.

   Emitted as [BENCH_schemes.json]; deterministic (simulated cycles
   only, no host timing), so `--jobs N` runs emit identical artifacts. *)

module S = Interp.State

(** The matrix's scheme axis, in fixed report order: the two SoftBound
    reference configurations, then the registry. *)
let schemes : (string * Runner.scheme) list =
  ("softbound-full-shadow", Runner.Softbound Runner.sb_full_shadow)
  :: ("softbound-store-shadow", Runner.Softbound Runner.sb_store_shadow)
  :: List.map (fun e -> (e.Schemes.sname, Runner.Registered e)) Schemes.all

type row = {
  workload : Workloads.workload;
  base_cycles : int;
  srows : (string * Matrix.summary) list;  (** per scheme *)
}

(** One attack of the gap suite: which schemes detect it. *)
type coverage = { attack : string; cells : (string * bool) list }

let cells ~quick =
  Matrix.kernels ~quick (Runner.Unprotected :: List.map snd schemes)

let row ~quick (m : Matrix.t) (w : Workloads.workload) : row =
  {
    workload = w;
    base_cycles = Matrix.cycles (Matrix.kernel m ~quick w Runner.Unprotected);
    srows =
      List.map
        (fun (sname, scheme) -> (sname, Matrix.kernel m ~quick w scheme))
        schemes;
  }

let rows ~quick m : row list = List.map (row ~quick m) Workloads.all

(* a scheme incompatibility is recorded, not fatal *)
let clean (s : Matrix.summary) =
  match s.outcome with S.Exit 0 -> true | _ -> false

(** Detection matrix over the fixed gap attacks; independent of
    [quick]/[jobs] (four tiny programs, run inline). *)
let run_coverage () : coverage list =
  List.map
    (fun (attack, src) ->
      let m = Softbound.compile src in
      let cells =
        List.map
          (fun (sname, scheme) ->
            (sname, Schemes.detected (Runner.run scheme m)))
          schemes
      in
      { attack; cells })
    Schemes.gap_attacks

let render ((rows, cov) : row list * coverage list) : string =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf
    "Scheme matrix: overhead and attribution per workload x scheme:\n";
  Buffer.add_string buf
    (Texttable.render
       ~headers:
         [ "benchmark"; "scheme"; "overhead"; "check"; "metadata"; "wrapper";
           "residual"; "clean" ]
       (List.concat_map
          (fun r ->
            List.map
              (fun (sname, s) ->
                (r.workload.Workloads.name :: sname
                :: Matrix.split_cells ~base:r.base_cycles s)
                @ [ Runner.yes_no (clean s) ])
              r.srows)
          rows));
  Buffer.add_string buf "\nCompleteness-gap matrix (detected?):\n";
  Buffer.add_string buf
    (Texttable.render
       ~headers:("attack" :: List.map fst schemes)
       (List.map
          (fun c ->
            c.attack
            :: List.map (fun (_, det) -> Runner.yes_no det) c.cells)
          cov));
  (* geomean overhead per scheme over the workloads it runs cleanly on *)
  Buffer.add_string buf "\ngeomean overhead on clean workloads:\n";
  List.iter
    (fun (sname, _) ->
      let ovs =
        List.filter_map
          (fun r ->
            match List.assoc_opt sname r.srows with
            | Some s when clean s ->
                Some (1.0 +. Matrix.overhead ~base:r.base_cycles s)
            | _ -> None)
          rows
      in
      match ovs with
      | [] -> Buffer.add_string buf (Printf.sprintf "  %-24s (none)\n" sname)
      | _ ->
          let g =
            exp
              (List.fold_left (fun a x -> a +. log x) 0.0 ovs
              /. float_of_int (List.length ovs))
            -. 1.0
          in
          Buffer.add_string buf
            (Printf.sprintf "  %-24s %5.1f%%  (%d/%d workloads clean)\n" sname
               (100.0 *. g) (List.length ovs) (List.length rows)))
    schemes;
  Buffer.contents buf

(* The coverage pins are the completeness-gap story: SoftBound full
   checking detects every attack class, including the intra-object one,
   which every whole-object-bounds scheme must miss; store-only checking
   is blind to the read attack by design. *)
let artifact : Artifact.t =
  let open Artifact in
  let detected cells = Fields [ ("detected", Fields cells) ] in
  let pin v k = (k, Is (Json.Bool v)) in
  let full = pin true "softbound-full-shadow" in
  let whole_object =
    List.filter_map
      (fun (e : Schemes.entry) ->
        if e.misses_sub_object then Some e.sname else None)
      Schemes.all
  in
  let per_scheme s = Fields (List.map (fun (name, _) -> (name, s)) schemes) in
  let srow =
    ("clean", Bool) :: ("outcome", Str)
    :: nums [ "cycles"; "overhead"; "check"; "metadata"; "wrapper"; "residual" ]
  in
  let pinned =
    [ ("sub-object-overflow",
       detected (full :: List.map (pin false) whole_object));
      ("adjacent-heap-overflow", detected [ full ]);
      ("heap-underflow", detected [ full ]);
      ("off-by-one-read",
       detected [ full; pin false "softbound-store-shadow" ]) ]
  in
  { name = "schemes"; tag = "schemes"; host_timing = [];
    fields =
      [ ( "coverage",
          Table
            ( "attack", pinned,
              Fields [ ("attack", Str); ("detected", per_scheme Bool) ] ) );
        ( "workloads",
          Rows
            (Fields
               [ ("name", Str); ("base_cycles", Num);
                 ("schemes", per_scheme (Fields srow)) ]) ) ] }

(** Machine-readable export ([BENCH_schemes.json]). *)
let to_json ((rows, cov) : row list * coverage list) : Json.t =
  let coverage c =
    Json.Obj
      [ ("attack", Json.Str c.attack);
        ( "detected",
          Json.Obj (List.map (fun (s, det) -> (s, Json.Bool det)) c.cells) ) ]
  in
  let srow ~base (sname, s) =
    ( sname,
      Json.Obj
        ([ ("cycles", Json.int (Matrix.cycles s));
           ("overhead", Json.decimals 4 (Matrix.overhead ~base s));
           ("clean", Json.Bool (clean s));
           ("outcome", Json.Str (S.string_of_outcome s.outcome)) ]
        @ Json.ints (Matrix.split ~base s)) )
  in
  let workload r =
    Json.Obj
      [ ("name", Json.Str r.workload.Workloads.name);
        ("base_cycles", Json.int r.base_cycles);
        ("schemes", Json.Obj (List.map (srow ~base:r.base_cycles) r.srows)) ]
  in
  Artifact.document artifact
    [ ("unit", Json.Str "simulated cycles");
      ("coverage", Json.List (List.map coverage cov));
      ("workloads", Json.List (List.map workload rows)) ]
