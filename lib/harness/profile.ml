(* Single-run check-level profiling: instrument a module, run it with
   the observability collector on, and assemble a report attributing
   executed checks / metadata operations (and their cycle deltas) to
   transform-time site ids, wrapper calls, per-segment cache traffic,
   and the static site census (assigned / surviving / elided).

   The [softbound_cli profile] subcommand is a thin shell around this
   module. *)

module Ir = Sbir.Ir
module S = Interp.State

type t = {
  label : string;
  opts : Softbound.Config.options;
  sites_assigned : int;  (** ids handed out by the transformation *)
  sites : Obs.site_info list;  (** surviving sites, ascending id *)
  widened : int;
      (** static count of loop-widened span checks Elim emitted *)
  coalesced : int;
      (** static count of per-iteration checks folded into in-block
          coalesced spans (members beyond the first) *)
  base : Interp.Vm.result option;  (** unprotected baseline run *)
  result : Interp.Vm.result;  (** the instrumented run *)
}

let profile ?(label = "program") ?(opts = Softbound.Config.default)
    ?(cfg = S.default_config) ?(argv = []) ?(inputs = [])
    ?(with_baseline = true) (m : Ir.modul) : t =
  let m', sites_assigned = Runner.instrument_cached ~opts m in
  let cfg = { cfg with S.argv; inputs } in
  let base = if with_baseline then Some (Interp.Engine.run ~cfg m) else None in
  let run_cfg =
    {
      cfg with
      S.meta = Some opts.Softbound.Config.facility;
      store_only = opts.Softbound.Config.mode = Softbound.Config.Store_only;
    }
  in
  let result = Interp.Engine.run ~cfg:run_cfg m' in
  let widened = ref 0 and coalesced = ref 0 in
  Ir.iter_funcs m' (fun f ->
      widened := !widened + Softbound.Elim.count_widened f;
      coalesced := !coalesced + Softbound.Elim.count_coalesced f);
  {
    label;
    opts;
    sites_assigned;
    sites = Obs.sites_of_modul m';
    widened = !widened;
    coalesced = !coalesced;
    base;
    result;
  }

(* ------------------------------------------------------------------ *)
(* Derived figures                                                      *)
(* ------------------------------------------------------------------ *)

(** Cycles recorded at transform-time sites of kind [k] — excludes the
    runtime-originated site-0 bucket, which the wrapper accounting
    already covers (so the breakdown partition does not double-count). *)
let site_kind_cycles (o : Obs.t) k =
  Obs.kind_cycles o k - Obs.site_cycles o k 0

let site_kind_count (o : Obs.t) k =
  Obs.kind_count o k - Obs.site_count o k 0

let check_cycles (p : t) =
  let o = p.result.Interp.Vm.obs in
  site_kind_cycles o Obs.KCheck + site_kind_cycles o Obs.KCheckFptr

let meta_cycles (p : t) =
  let o = p.result.Interp.Vm.obs in
  site_kind_cycles o Obs.KMetaLoad + site_kind_cycles o Obs.KMetaStore

let wrapper_cycles (p : t) = Obs.wrapper_cycles p.result.Interp.Vm.obs

let total_cycles (p : t) = p.result.Interp.Vm.stats.S.cycles

let base_cycles (p : t) =
  match p.base with
  | Some b -> Some b.Interp.Vm.stats.S.cycles
  | None -> None

(** Overhead cycles not attributed to checks, metadata operations, or
    wrappers: memory-system effects (cache pressure from metadata
    traffic on program accesses), metadata-propagation moves, and the
    extended calling convention.  Meaningless without a baseline. *)
let residual_cycles (p : t) =
  match base_cycles p with
  | None -> None
  | Some b ->
      Some
        (total_cycles p - b - check_cycles p - meta_cycles p
        - wrapper_cycles p)

let attributed_fraction (p : t) =
  Obs.attributed_fraction p.result.Interp.Vm.obs

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let render ?(top = 10) (p : t) : string =
  let buf = Buffer.create 4096 in
  let o = p.result.Interp.Vm.obs in
  let st = p.result.Interp.Vm.stats in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "profile: %s  [%s/%s%s]\n" p.label
    (Softbound.Config.mode_name p.opts.Softbound.Config.mode)
    (Softbound.Config.facility_name p.opts.Softbound.Config.facility)
    (if p.opts.Softbound.Config.eliminate_checks then "" else ", no-elim");
  add "outcome: %s\n" (S.string_of_outcome p.result.Interp.Vm.outcome);
  (match base_cycles p with
  | Some b when b > 0 ->
      add "cycles: %d (baseline %d, overhead %s)\n" (total_cycles p) b
        (pct (float_of_int (total_cycles p - b) /. float_of_int b))
  | _ -> add "cycles: %d\n" (total_cycles p));
  let surviving = List.length p.sites in
  add "sites: %d assigned, %d surviving, %d elided by Elim\n"
    p.sites_assigned surviving
    (p.sites_assigned - surviving);
  if p.opts.Softbound.Config.eliminate_checks then
    add "widening: %d checks_widened, %d checks_coalesced\n" p.widened
      p.coalesced;
  add "\nper-kind dynamic counts (site-attributed + runtime):\n";
  List.iter
    (fun k ->
      add "  %-11s %10d ops  %12d cycles   (+ runtime: %d ops, %d cycles)\n"
        (Obs.kind_name k)
        (site_kind_count o k) (site_kind_cycles o k)
        (Obs.site_count o k 0) (Obs.site_cycles o k 0))
    Obs.all_kinds;
  let site_a, wrap_a, rt_a = Obs.attribution o in
  add
    "attribution: %d site / %d wrapper-context / %d runtime  (%s attributed)\n"
    site_a wrap_a rt_a
    (pct (attributed_fraction p));
  (* hottest sites *)
  let info =
    let h = Hashtbl.create 64 in
    List.iter (fun (si : Obs.site_info) -> Hashtbl.replace h si.Obs.si_id si)
      p.sites;
    h
  in
  let hot =
    Obs.per_site o
    |> List.filter (fun (s, _, _) -> s > 0)
    |> List.sort (fun (_, _, a) (_, _, b) -> compare b a)
    |> List.filteri (fun i _ -> i < top)
  in
  if hot <> [] then begin
    add "\nhottest sites (by attributed cycles):\n";
    List.iter
      (fun (s, c, cy) ->
        let where =
          match Hashtbl.find_opt info s with
          | Some si ->
              Printf.sprintf "%s B%d %s" si.Obs.si_func si.Obs.si_block
                (Obs.kind_name si.Obs.si_kind)
          | None -> "(elided?)"
        in
        add "  site %-5d %10d ops  %12d cycles   %s\n" s c cy where)
      hot
  end;
  let wr = Obs.wrapper_stats o in
  if wr <> [] then begin
    add "\nwrapper calls (inclusive cycle deltas):\n";
    List.iter
      (fun (n, c, cy) -> add "  %-24s %8d calls  %12d cycles\n" n c cy)
      wr
  end;
  add "\nmetadata table: %d probes, %d resizes\n" st.S.ht_probes
    st.S.ht_resizes;
  add "\ncache accesses by segment (hit/miss):\n";
  List.iter
    (fun (name, h, m) ->
      if h + m > 0 then
        add "  %-10s %12d / %-12d (%s hit)\n" name h m
          (pct (float_of_int h /. float_of_int (h + m))))
    (Obs.seg_stats o);
  (match residual_cycles p with
  | Some r ->
      add "\noverhead breakdown: check %d, metadata %d, wrapper %d, \
           residual %d cycles\n"
        (check_cycles p) (meta_cycles p) (wrapper_cycles p) r
  | None -> ());
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON export                                                          *)
(* ------------------------------------------------------------------ *)

let to_json (p : t) : Json.t =
  let o = p.result.Interp.Vm.obs in
  let st = p.result.Interp.Vm.stats in
  let opts = p.opts in
  let ints kvs = Json.Obj (Json.ints kvs) in
  let opt k = function Some n -> [ (k, n) ] | None -> [] in
  let surviving = List.length p.sites in
  let site_a, wrap_a, rt_a = Obs.attribution o in
  let kind k =
    ( Obs.kind_name k,
      ints
        [ ("ops", site_kind_count o k); ("cycles", site_kind_cycles o k);
          ("runtime_ops", Obs.site_count o k 0);
          ("runtime_cycles", Obs.site_cycles o k 0) ] )
  in
  let wrapper (n, c, cy) =
    Json.Obj (("name", Json.Str n) :: Json.ints [ ("calls", c); ("cycles", cy) ])
  in
  let segment (name, h, m) = (name, ints [ ("hits", h); ("misses", m) ]) in
  Json.Obj
    ([ ("profile", Json.Str p.label);
       ("mode", Json.Str (Softbound.Config.mode_name opts.Softbound.Config.mode));
       ( "facility",
         Json.Str (Softbound.Config.facility_name opts.Softbound.Config.facility)
       );
       ("elim", Json.Bool opts.Softbound.Config.eliminate_checks);
       ("outcome", Json.Str (S.string_of_outcome p.result.Interp.Vm.outcome)) ]
    @ Json.ints (("cycles", total_cycles p) :: opt "base_cycles" (base_cycles p))
    @ [ ( "sites",
          ints
            [ ("assigned", p.sites_assigned); ("surviving", surviving);
              ("elided", p.sites_assigned - surviving) ] );
        ( "widening",
          ints
            [ ("checks_widened", p.widened);
              ("checks_coalesced", p.coalesced) ] );
        ("kinds", Json.Obj (List.map kind Obs.all_kinds));
        ( "attribution",
          Json.Obj
            (Json.ints [ ("site", site_a); ("wrapper", wrap_a); ("runtime", rt_a) ]
            @ [ ("fraction", Json.decimals 4 (attributed_fraction p)) ]) );
        ("wrappers", Json.List (List.map wrapper (Obs.wrapper_stats o)));
        ( "hashtable",
          ints [ ("probes", st.S.ht_probes); ("resizes", st.S.ht_resizes) ] );
        ("cache_segments", Json.Obj (List.map segment (Obs.seg_stats o)));
        ( "breakdown_cycles",
          ints
            ([ ("check", check_cycles p); ("metadata", meta_cycles p);
               ("wrapper", wrapper_cycles p) ]
            @ opt "residual" (residual_cycles p)) ) ])
