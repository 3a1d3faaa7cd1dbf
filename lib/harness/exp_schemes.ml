(* N-scheme cost/coverage matrix: every workload under every protection
   scheme — the two SoftBound reference configurations, the MSCC-style
   transform, the three related-work schemes (CGuard, FRAMER, L4
   Pointer), and the three plugin baselines — with the overhead of each
   run split into check/metadata/wrapper/residual buckets, plus the
   fixed completeness-gap attack suite's detection matrix.

   This is the experiment the ROADMAP's "multi-backend scheme matrix"
   item asks for: Figure 2's cost story and Table 4's coverage story
   over *approaches*, not just SoftBound's two metadata organizations.

   Emitted as [BENCH_schemes.json]; deterministic (simulated cycles
   only, no host timing), so `--jobs N` runs emit identical artifacts. *)

module S = Interp.State

(** The matrix's scheme axis, in fixed report order. *)
let schemes : (string * Runner.scheme) list =
  [
    ("softbound-full-shadow", Runner.Softbound Runner.sb_full_shadow);
    ("softbound-store-shadow", Runner.Softbound Runner.sb_store_shadow);
    ("mscc", Runner.Mscc);
    ("cguard", Runner.Cguard);
    ("framer", Runner.Framer);
    ("l4-pointer", Runner.L4_pointer);
    ("jones-kelly", Runner.Jones_kelly);
    ("memcheck-like", Runner.Memcheck);
    ("mudflap-like", Runner.Mudflap);
  ]

type srow = {
  sname : string;
  cycles : int;
  clean : bool;  (** exited 0; a scheme incompatibility is recorded, not fatal *)
  outcome : string;
  check : int;
      (** site-attributed check cycles (transform schemes) plus the
          plugin checker's bookkeeping cycles (plugin schemes) *)
  meta : int;  (** site-attributed metadata load/store cycles *)
  wrapper : int;  (** wrapper-inclusive cycle deltas *)
  residual : int;  (** overhead minus the attributed buckets *)
}

type row = {
  workload : Workloads.workload;
  base_cycles : int;
  srows : srow list;
}

(** One attack of the gap suite: which schemes detect it. *)
type coverage = { attack : string; cells : (string * bool) list }

let srow_of ~sname ~base (r : Interp.Vm.result) : srow =
  let o = r.Interp.Vm.obs in
  let k = Profile.site_kind_cycles o in
  let stats = r.Interp.Vm.stats in
  let check = k Obs.KCheck + k Obs.KCheckFptr + stats.S.ck_cycles in
  let meta = k Obs.KMetaLoad + k Obs.KMetaStore in
  let wrapper = Obs.wrapper_cycles o in
  let cycles = stats.S.cycles in
  let clean =
    match r.Interp.Vm.outcome with S.Exit 0 -> true | _ -> false
  in
  {
    sname;
    cycles;
    clean;
    outcome = S.string_of_outcome r.Interp.Vm.outcome;
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
  let srows =
    List.map
      (fun (sname, scheme) ->
        srow_of ~sname ~base:base_cycles (Runner.run ~argv scheme m))
      schemes
  in
  { workload = w; base_cycles; srows }

(** Detection matrix over the fixed gap attacks; independent of
    [quick]/[jobs] (four tiny programs, run inline). *)
let run_coverage () : coverage list =
  List.map
    (fun (attack, src) ->
      let m = Softbound.compile src in
      let cells =
        List.map
          (fun (sname, scheme) ->
            (sname, Runner.detected (Runner.verdict_of (Runner.run scheme m))))
          schemes
      in
      { attack; cells })
    Schemes.gap_attacks

let run ?(quick = false) ?(jobs = 1) () : row list * coverage list =
  (* deterministic fan-out: see the note on {!Exp_elim.run} *)
  let rows = Parutil.parmap ~jobs (run_one ~quick) Workloads.all in
  (rows, run_coverage ())

let frac part whole =
  if whole <= 0 then 0.0 else float_of_int part /. float_of_int whole

let overhead_of ~base cycles =
  if base <= 0 then 0.0 else (float_of_int cycles /. float_of_int base) -. 1.0

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
              (fun s ->
                let ov = s.cycles - r.base_cycles in
                [
                  r.workload.Workloads.name;
                  s.sname;
                  Texttable.pct (frac ov r.base_cycles);
                  Texttable.pct (frac s.check ov);
                  Texttable.pct (frac s.meta ov);
                  Texttable.pct (frac s.wrapper ov);
                  Texttable.pct (frac s.residual ov);
                  Runner.yes_no s.clean;
                ])
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
            match List.find_opt (fun s -> s.sname = sname) r.srows with
            | Some s when s.clean ->
                Some (1.0 +. overhead_of ~base:r.base_cycles s.cycles)
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
    [ "mscc"; "cguard"; "framer"; "l4-pointer"; "jones-kelly";
      "memcheck-like"; "mudflap-like" ]
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
  let srow ~base s =
    ( s.sname,
      Json.Obj
        ([ ("cycles", Json.int s.cycles);
           ("overhead", Json.decimals 4 (overhead_of ~base s.cycles));
           ("clean", Json.Bool s.clean); ("outcome", Json.Str s.outcome) ]
        @ Json.ints
            [ ("check", s.check); ("metadata", s.meta);
              ("wrapper", s.wrapper); ("residual", s.residual) ]) )
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
