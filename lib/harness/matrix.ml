(* The simulation matrix behind every simulated table and artifact.

   Figure 2, the MSCC comparison, the memory trade-off, the Elim
   ablation, the overhead breakdown and the scheme matrix all read one
   grid: the kernels, each under a baseline and a set of protection
   schemes.  Each experiment declares the cells it reads; [build]
   simulates the union of those cells, each distinct (workload,
   arguments, scheme) exactly once, and every experiment's rows are a
   view of the result.

   A matrix is an explicit value, not process-wide state: comparing two
   builds (say, at different [jobs]) means building twice.  It keeps a
   summary per cell, not the whole [Vm.result]: the outcome, the stats,
   the footprint and cache counters, and the attribution buckets. *)

module S = Interp.State

(** A workload run with these arguments under this scheme. *)
type cell = Workloads.workload * string list * Runner.scheme

type summary = {
  outcome : S.outcome;
  stats : S.stats;
  resident_bytes : int;
  heap_allocs : int;
  cache_hits : int;
  cache_misses : int;
  check : int;
      (** site-attributed check cycles (transform schemes) plus the
          plugin checker's bookkeeping cycles (plugin schemes) *)
  meta : int;  (** site-attributed metadata load/store cycles *)
  wrapper : int;  (** wrapper-inclusive cycle deltas *)
}

(* What a cell runs: a registered transform scheme is the SoftBound
   transform with its options, so it shares the key of those options;
   a plugin is keyed by its name, never by its checker closure. *)
type runs =
  | Plain
  | Instrumented of Softbound.Config.options
  | Checked of string

type t = (string * string list * runs, summary) Hashtbl.t

let key ((w, argv, scheme) : cell) =
  ( w.Workloads.name,
    argv,
    match scheme with
    | Runner.Unprotected -> Plain
    | Runner.Softbound o | Runner.Registered { impl = Schemes.Transform o; _ }
      ->
        Instrumented o
    | Runner.Registered { impl = Schemes.Plugin _; sname; _ } -> Checked sname
  )

let simulations = Atomic.make 0

let simulations_performed () = Atomic.get simulations

let simulate ((w, argv, scheme) : cell) : summary =
  Atomic.incr simulations;
  let r = Runner.run ~argv scheme (Runner.compile_workload w) in
  let o = r.Interp.Vm.obs in
  let k = Profile.site_kind_cycles o in
  {
    outcome = r.outcome;
    stats = r.stats;
    resident_bytes = r.resident_bytes;
    heap_allocs = r.heap_allocs;
    cache_hits = r.cache_hits;
    cache_misses = r.cache_misses;
    check = k Obs.KCheck + k Obs.KCheckFptr + r.stats.S.ck_cycles;
    meta = k Obs.KMetaLoad + k Obs.KMetaStore;
    wrapper = Obs.wrapper_cycles o;
  }

(** Simulate every distinct cell once, fanning out by workload over
    [jobs] domains.  Each summary comes from its own VM, so the matrix
    is the same at any [jobs]. *)
let build ?(jobs = 1) (cells : cell list) : t =
  (* distinct cells, grouped by workload in order of first appearance *)
  let groups = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun ((w, _, _) as c) ->
      let name = w.Workloads.name in
      match Hashtbl.find_opt groups name with
      | None ->
          order := name :: !order;
          Hashtbl.add groups name [ c ]
      | Some cs ->
          if not (List.exists (fun c' -> key c' = key c) cs) then
            Hashtbl.replace groups name (c :: cs))
    cells;
  let m = Hashtbl.create 256 in
  List.rev_map (fun name -> List.rev (Hashtbl.find groups name)) !order
  |> Parutil.parmap ~jobs (List.map (fun c -> (key c, simulate c)))
  |> List.iter (List.iter (fun (k, s) -> Hashtbl.replace m k s));
  m

let get (m : t) ((w, argv, scheme) as c : cell) : summary =
  match Hashtbl.find_opt m (key c) with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Matrix.get: %s [%s] under %s was not built"
           w.Workloads.name (String.concat " " argv)
           (Runner.scheme_name scheme))

(** A kernel's arguments: its quick size, or its full (default) size. *)
let args ~quick (w : Workloads.workload) =
  if quick then w.Workloads.quick_args else []

(** Every kernel, at [quick] size, under each of [schemes]. *)
let kernels ~quick (schemes : Runner.scheme list) : cell list =
  List.concat_map
    (fun w -> List.map (fun s -> (w, args ~quick w, s)) schemes)
    Workloads.all

(** Kernel [w] at [quick] size under [scheme]. *)
let kernel (m : t) ~quick w scheme = get m (w, args ~quick w, scheme)

let cycles (s : summary) = s.stats.S.cycles

(** Simulated-cycle overhead of [s] over [base] cycles (0.79 = 79%). *)
let overhead ~base (s : summary) =
  (float_of_int (cycles s) /. float_of_int base) -. 1.0

(** The attribution of [s]'s overhead over [base] cycles, in report
    order: check, metadata and wrapper cycles, and the residual
    (memory-system pressure, metadata propagation, calling-convention
    growth) that no bucket claims. *)
let split ~base (s : summary) : (string * int) list =
  [
    ("check", s.check);
    ("metadata", s.meta);
    ("wrapper", s.wrapper);
    ("residual", cycles s - base - s.check - s.meta - s.wrapper);
  ]

let frac part whole =
  if whole <= 0 then 0.0 else float_of_int part /. float_of_int whole

(** The text-table cells of [s] over [base]: the overhead, then each
    bucket of {!split} as a fraction of the overhead cycles. *)
let split_cells ~base (s : summary) : string list =
  let ov = cycles s - base in
  Texttable.pct (frac ov base)
  :: List.map (fun (_, c) -> Texttable.pct (frac c ov)) (split ~base s)
