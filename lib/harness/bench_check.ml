(* Validator for the committed machine-readable benchmark artifacts.

   Every BENCH_*.json is built as a {!Json.t} by its experiment and
   declared once next to that emitter ({!Artifact.t}: tag, required
   keys, row arrays, pinned cells, host-timing fields).  [run] parses
   each committed file, checks it against its declaration, and then
   checks the cells that two artifacts share — so a change that moves
   one artifact's simulated numbers cannot leave a sibling stale.
   `make bench-check` (part of `make verify`) fails on any violation.

   [experiments] is the one list of artifact experiments: each
   declaration with the simulation-matrix cells it reads and the run
   that produces it, read by the validator and by the `experiments` CLI
   alike.

   [determinism] reads the same declarations: it validates two runs of
   one experiment, drops the declared host-timing fields, and reports
   the first path where the trees differ. *)

(* Every experiment that writes a committed artifact: its declaration,
   the matrix cells it reads (none for the host-timed ones), and how to
   run it over a matrix holding those cells — the artifact's tree and
   the rendered table. *)
type experiment = {
  artifact : Artifact.t;
  cells : quick:bool -> Matrix.cell list;
  run : quick:bool -> jobs:int -> iters:int -> Matrix.t -> Json.t * string;
}

(* an experiment whose rows are a view of the matrix *)
let view artifact cells rows to_json render =
  let run ~quick ~jobs:_ ~iters:_ m =
    let r = rows ~quick m in
    (to_json r, render r)
  in
  { artifact; cells; run }

let host_timed artifact run = { artifact; cells = (fun ~quick:_ -> []); run }

let experiments : experiment list =
  [
    Exp_elim.(view artifact cells rows to_json render);
    Exp_breakdown.(view artifact cells rows to_json render);
    host_timed Exp_vmspeed.artifact (fun ~quick ~jobs ~iters _ ->
        let rows = Exp_vmspeed.run ~quick ~iters ~jobs () in
        (Exp_vmspeed.to_json ~quick ~iters rows, Exp_vmspeed.render rows));
    host_timed Exp_serve.artifact (fun ~quick ~jobs:_ ~iters:_ _ ->
        (* --quick shrinks the stream from 10k to 600 jobs *)
        let total = if quick then Some 600 else None in
        let rows = Exp_serve.run ~quick ?total () in
        (Exp_serve.to_json ?total rows, Exp_serve.render ?total rows));
    Exp_schemes.(
      view artifact cells
        (fun ~quick m -> (rows ~quick m, run_coverage ()))
        to_json render);
    Exp_memory.(view artifact cells rows to_json render);
  ]

let artifacts : Artifact.t list = List.map (fun e -> e.artifact) experiments

(** The artifact experiment [name]. *)
let find (name : string) =
  List.find_opt (fun e -> e.artifact.Artifact.name = name) experiments

(* ------------------------------------------------------------------ *)
(* Cells shared between artifacts                                       *)
(* ------------------------------------------------------------------ *)

(* One side of a shared cell: an artifact, the path of its row array,
   the row's identifying fields besides its "name", and the cell's path
   within the row. *)
type side = {
  art : string;
  rows : string list;
  key : (string * string) list;
  path : string list;
}

(* a cell of the row named after the workload in [art]'s declared row
   array ({!Artifact.row_array}) *)
let cell art path =
  let rows = Option.bind (find art) (fun e -> Artifact.row_array e.artifact) in
  { art; rows = Option.to_list rows; key = []; path }

(* Per workload, each pair of cells that must hold the same value:
   elim's "on" / "off" cycles are breakdown's "-elim" / "-noelim"
   configurations, the schemes matrix's SoftBound rows are breakdown
   configurations, and every vmspeed row's cycles are elim's (the
   unprotected baseline, or hash-facility full checking with Elim on). *)
let shared : (side * side) list =
  [
    (cell "elim" [ "base_cycles" ], cell "breakdown" [ "base_cycles" ]);
    (cell "elim" [ "base_cycles" ], cell "schemes" [ "base_cycles" ]);
  ]
  @ List.concat_map
      (fun (group, config) ->
        [
          ( cell "elim" [ group; "on" ],
            cell "breakdown" [ "configs"; config ^ "-elim"; "cycles" ] );
          ( cell "elim" [ group; "off" ],
            cell "breakdown" [ "configs"; config ^ "-noelim"; "cycles" ] );
        ])
      [
        ("shadow_full", "shadow-full");
        ("hash_full", "hash-full");
        ("shadow_store", "shadow-store");
        ("hash_store", "hash-store");
      ]
  @ List.concat_map
      (fun (scheme, config) ->
        List.map
          (fun k ->
            ( cell "schemes" [ "schemes"; scheme; k ],
              cell "breakdown" [ "configs"; config; k ] ))
          [ "cycles"; "check"; "metadata"; "wrapper"; "residual" ])
      [
        ("softbound-full-shadow", "shadow-full-elim");
        ("softbound-store-shadow", "shadow-store-elim");
      ]
  @ List.concat_map
      (fun (scheme, elim) ->
        List.map
          (fun engine ->
            ( cell "elim" elim,
              {
                art = "vmspeed";
                rows = [ "current"; "rows" ];
                key = [ ("scheme", scheme); ("engine", engine) ];
                path = [ "sim_cycles" ];
              } ))
          Exp_vmspeed.engine_names)
      [ ("unprotected", [ "base_cycles" ]);
        ("softbound-full-hash", [ "hash_full"; "on" ]) ]

(** The value at [path] under [v], if there is one. *)
let walk (path : string list) (v : Json.t) : Json.t option =
  List.fold_left (fun v k -> Option.bind v (fun v -> Json.field v k)) (Some v) path

(** The rows [side] selects from in the trees [docs]. *)
let rows_of docs (side : side) : Json.t list =
  match Option.bind (List.assoc_opt side.art docs) (walk side.rows) with
  | Some (Json.List rows) -> rows
  | _ -> []

(** Whether [row] is [side]'s row for [workload]. *)
let selects (side : side) workload (row : Json.t) =
  List.for_all
    (fun (k, v) -> Json.str_field row k = Some v)
    (("name", workload) :: side.key)

(** Disagreements between the cells that the artifacts share; [docs]
    maps artifact names to parsed trees, and a pair is compared only
    when both artifacts are present. *)
let cross (docs : (string * Json.t) list) : string list =
  let value side workload =
    Option.bind (List.find_opt (selects side workload) (rows_of docs side))
      (walk side.path)
  in
  let workloads =
    List.concat_map
      (fun art -> rows_of docs (cell art []))
      [ "elim"; "breakdown"; "schemes" ]
    |> List.filter_map (fun r -> Json.str_field r "name")
    |> List.sort_uniq compare
  in
  let show side w v =
    Printf.sprintf "BENCH_%s.json %s%s.%s = %s" side.art w
      (String.concat "" (List.map (fun (_, v) -> "/" ^ v) side.key))
      (String.concat "." side.path)
      (match v with Some v -> Json.to_string v | None -> "missing")
  in
  List.concat_map
    (fun w ->
      List.filter_map
        (fun (x, y) ->
          if not (List.mem_assoc x.art docs && List.mem_assoc y.art docs) then None
          else
            let vx = value x w and vy = value y w in
            if vx <> None && vx = vy then None
            else Some (show x w vx ^ " but " ^ show y w vy))
        shared)
    workloads

(* ------------------------------------------------------------------ *)
(* Whole-set validation                                                 *)
(* ------------------------------------------------------------------ *)

(** Every problem with a set of artifacts: each tree against its
    declaration, then the shared cells. *)
let check (docs : (string * Json.t) list) : string list =
  List.concat_map
    (fun (name, v) ->
      match find name with
      | Some { artifact = a; _ } ->
          List.map (fun e -> Artifact.file a ^ ": " ^ e) (Artifact.validate a v)
      | None -> [ "no artifact named " ^ name ])
    docs
  @ cross docs

(** Validate every committed benchmark artifact in the working
    directory; returns the report and whether all checks passed. *)
let run () : string * bool =
  let loaded =
    List.map
      (fun (a : Artifact.t) ->
        match Json.parse (Artifact.read_file (Artifact.file a)) with
        | v -> Ok (a.name, v)
        | exception Sys_error m -> Error (Artifact.file a ^ ": " ^ m)
        | exception Json.Bad m -> Error (Artifact.file a ^ ": malformed: " ^ m))
      artifacts
  in
  let docs = List.filter_map Result.to_option loaded in
  let unreadable =
    List.filter_map (function Error e -> Some e | Ok _ -> None) loaded
  in
  match unreadable @ check docs with
  | [] ->
      ( Printf.sprintf "bench-check: %d artifacts OK (%s)"
          (List.length artifacts)
          (String.concat ", " (List.map Artifact.file artifacts)),
        true )
  | es -> (String.concat "\n" es, false)

(** Run one experiment at [--jobs 1] and [--jobs 2] through [run],
    validate both trees, and compare them without the declared
    host-timing fields. *)
let determinism (a : Artifact.t) ~(run : jobs:int -> Json.t) :
    (string, string) result =
  let side jobs =
    let v = run ~jobs in
    match Artifact.validate a v with
    | [] -> Ok (Artifact.drop a.host_timing v)
    | es ->
        Error
          (String.concat "\n"
             (List.map
                (Printf.sprintf "%s (--jobs %d): %s" (Artifact.file a) jobs)
                es))
  in
  Result.bind (side 1) (fun one ->
      Result.bind (side 2) (fun two ->
          match Artifact.first_diff "" one two with
          | None ->
              Ok
                (Printf.sprintf
                   "determinism %s: --jobs 1 and --jobs 2 agree%s" a.name
                   (if a.host_timing = [] then ""
                    else " modulo host timing"))
          | Some path ->
              Error
                (Printf.sprintf
                   "determinism %s: --jobs 1 and --jobs 2 differ at %s" a.name
                   path)))
