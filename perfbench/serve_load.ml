(* The two serve workloads: a closed loop of `run` jobs into the
   checking service.

   One client (the calling domain) keeps [window] jobs in flight
   against one worker domain: it hands the next request line to the
   service as soon as a result row frees a slot.  Latency runs from
   handing a line over to receiving its row.

   - serve-cold: job [i] runs program [i] of generator seed [seed]
     ([Fuzz.case_of]) under default full/shadow SoftBound.  Every
     program is new, so every request misses the source, transform and
     closure caches.
   - serve-hot: jobs cycle over the six [Exp_serve.run_sources]
     programs under full/shadow, full/hash and store/shadow, in a
     seed-shuffled order.  After the warm-up every cache hits.

   The untraced service is [Harness.Serve.serve ~jobs:1].  The traced
   one ([traced_serve]) is the same loop over the same [Parutil.Pool],
   running each job through {!Pipeline}'s staged calls inside spans. *)

module Json = Harness.Json
module Proto = Harness.Proto
module Runner = Harness.Runner
module Gen = Fuzz.Gen

type kind = Cold | Hot

let window = 2

(* The client waits for a free slot by spinning on its own CPU when it
   has one.  Sleeping instead puts a futex wake-up of an idle vCPU on
   the critical path of every 50 us hot job, and the time a hypervisor
   takes to wake a vCPU varies with the load of the whole machine: on
   a 2-vCPU virtual machine, serve-hot throughput varied 1.7x between
   runs minutes apart with a sleeping client and 1.2x with a spinning
   one. *)
let spin = Domain.recommended_domain_count () > 1

type expect = Exit_code of int | Verdict of Gen.expect

(* ------------------------------------------------------------------ *)
(* Job streams                                                          *)
(* ------------------------------------------------------------------ *)

(* hand-checked exit codes of Exp_serve.run_sources *)
let hot_exits = [| 5; 7; 30; 100; 144; 9 |]

(* mode and facility fields of the request: Runner.sb_full_shadow,
   sb_full_hash and sb_store_shadow *)
let hot_configs =
  [| ("full", "shadow"); ("full", "hash"); ("store-only", "shadow") |]

let run_line ?(fields = []) i src =
  Json.to_string
    (Json.Obj
       ([ ("id", Json.int i); ("type", Json.Str "run"); ("source", Json.Str src) ]
       @ fields))

let cold_source ~seed i =
  let case = Fuzz.case_of ~seed ~index:i in
  (Cminus.Pretty.program_string case.Gen.prog, case.Gen.expect)

(** Request line and expected verdict of job [i]. *)
let generator kind ~seed : int -> string * expect =
  match kind with
  | Cold ->
      fun i ->
        let src, e = cold_source ~seed i in
        (run_line i src, Verdict e)
  | Hot ->
      let combos =
        Array.init
          (Array.length hot_exits * Array.length hot_configs)
          (fun k -> (k mod Array.length hot_exits, k / Array.length hot_exits))
      in
      let rng = Random.State.make [| seed |] in
      for k = Array.length combos - 1 downto 1 do
        let j = Random.State.int rng (k + 1) in
        let t = combos.(k) in
        combos.(k) <- combos.(j);
        combos.(j) <- t
      done;
      fun i ->
        let p, c = combos.(i mod Array.length combos) in
        let mode, facility = hot_configs.(c) in
        ( run_line i Harness.Exp_serve.run_sources.(p)
            ~fields:[ ("mode", Json.Str mode); ("facility", Json.Str facility) ],
          Exit_code hot_exits.(p) )

(** Does a result row carry the expected verdict? *)
let row_ok (row : Json.t) (e : expect) : bool =
  Json.bool_field row "ok" = Some true
  &&
  match e with
  | Exit_code n -> Json.int_field row "exit_code" = Some n
  | Verdict Gen.Safe -> Json.int_field row "exit_code" <> None
  | Verdict (Gen.Trap_read | Gen.Trap_write) -> (
      match Json.str_field row "outcome" with
      | Some o -> String.starts_with ~prefix:"SoftBound: bounds violation" o
      | None -> false)

(* ------------------------------------------------------------------ *)
(* The traced service                                                   *)
(* ------------------------------------------------------------------ *)

let traced_vm = Layers.vm ()

(* [Serve.run_job] for a run job, with each layer call in a span.  Hot
   jobs go through the Runner caches (which hit); cold jobs run what a
   cache miss runs: the key computations, the front end and the
   transform. *)
let traced_job kind ~req (job : Proto.job) : Json.t =
  Span.with_ ~req Layers.op @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let finish fields =
    Json.Obj
      ([ ("id", job.Proto.id); ("type", Json.Str job.Proto.jtype) ]
      @ fields
      @ [ ("ms", Json.ms (Unix.gettimeofday () -. t0)) ])
  in
  match
    match job.Proto.spec with
    | Proto.Run ({ Proto.r_scheme = Runner.Softbound opts; _ } as r) ->
        let m =
          match kind with
          | Hot ->
              Span.with_ "harness.cache_lookup" (fun () ->
                  fst
                    (Runner.instrument_cached ~opts
                       (Runner.compile_source_cached r.Proto.r_source)))
          | Cold ->
              (* the cache keys a miss computes: the source digest, then
                 the digest of the printed IR *)
              Span.with_ "harness.cache_lookup" (fun () ->
                  ignore (Digest.string r.Proto.r_source));
              let m = Pipeline.front_end ~traced:true r.Proto.r_source in
              Span.with_ "harness.cache_lookup" (fun () ->
                  ignore (Digest.string (Sbir.Pretty_ir.dump_module m)));
              Pipeline.instrument ~traced:true opts m
        in
        let res = Pipeline.execute ~traced:true ~cfg:(Pipeline.cfg_of (Some opts)) m in
        let out, _ = Harness.Serve.truncate_output res.Interp.Vm.stdout_text in
        ( res,
          [
            ("scheme", Json.Str (Runner.scheme_name r.Proto.r_scheme));
            ("outcome", Json.Str (Interp.State.string_of_outcome res.Interp.Vm.outcome));
            ( "exit_code",
              match res.Interp.Vm.outcome with
              | Interp.State.Exit n -> Json.int n
              | Interp.State.Trapped _ -> Json.Null );
            ("stdout", out);
            ("cycles", Json.int res.Interp.Vm.stats.Interp.State.cycles);
            ("insts", Json.int res.Interp.Vm.stats.Interp.State.insts);
            ("checks", Json.int res.Interp.Vm.stats.Interp.State.checks);
          ] )
    | _ -> failwith "the benchmark sends only SoftBound run jobs"
  with
  | res, fields ->
      Layers.add_result traced_vm res;
      finish (("ok", Json.Bool true) :: fields)
  | exception e ->
      finish [ ("ok", Json.Bool false); ("error", Json.Str (Printexc.to_string e)) ]

let traced_serve kind ~read ~write : unit =
  let emit (req, row) =
    write (Span.with_ ~req "harness.json" (fun () -> Json.to_string row) ^ "\n")
  in
  let pool =
    Parutil.Pool.create ~cap:128 ~jobs:1
      ~on_error:(fun e ->
        (-1, Harness.Serve.error_row ~id:Json.Null (Printexc.to_string e)))
      ~emit ()
  in
  let rec loop req =
    match read () with
    | None -> ()
    | Some line ->
        (match Span.with_ ~req "harness.proto_parse" (fun () -> Proto.parse_job line) with
        | Error (id, msg) -> Parutil.Pool.emit_now pool (req, Harness.Serve.error_row ~id msg)
        | Ok job -> ignore (Parutil.Pool.submit pool (fun () -> (req, traced_job kind ~req job))));
        loop (req + 1)
  in
  loop 0;
  ignore (Parutil.Pool.shutdown pool)

(* ------------------------------------------------------------------ *)
(* The closed-loop client                                               *)
(* ------------------------------------------------------------------ *)

(* The client keeps constant live memory — the current block of
   latencies, two figures per finished block and a fixed array of
   per-window counts — so that it does not grow the process's major
   heap, whose size decides how often the service's collector runs. *)

let block = 1000

type outcome = {
  attempted : int;
  failed : int;  (** wrong verdicts, error rows, lost and duplicated ids *)
  p50_ms : float;
  p99_ms : float;
      (** latency percentiles of a typical stretch of the run: the median
          over consecutive blocks of [block] jobs of each block's
          percentile (one block of all jobs in a shorter run), so that a
          slow stretch of the host moves a few blocks, not the figure;
          each block has ten samples beyond its p99 *)
  service_ms : float;  (** mean of the rows' own [ms] *)
  queue_ms : float;  (** mean of latency minus service *)
  rates : float list;  (** completed jobs per second, per window *)
  t_start : float;  (** first request handed over *)
  elapsed : float;  (** from [t_start] to the last row *)
}

(** Drive [server] for [seconds] (and at least [min_jobs] jobs, at most
    [max_jobs]) with [window] jobs in flight; job ids start at [first].
    The client checks each row as it arrives, between sends.  [wrong]
    plants a wrong expected verdict for the first job. *)
let closed_loop ?(first = 0) ?(wrong = false) ~gen ~seconds ~min_jobs
    ~max_jobs
    ~(server : read:(unit -> string option) -> write:(string -> unit) -> unit)
    () : outcome =
  let lock = Mutex.create () in
  let inflight = Atomic.make 0 and next = ref first in
  let arrived = Queue.create () in
  (* client side only *)
  let pending = Hashtbl.create 16 in
  let failed = ref 0 in
  let cur = Array.make block 0.0 and filled = ref 0 in
  let p50s = ref [] and p99s = ref [] in
  let close_block () =
    let a = Array.sub cur 0 !filled in
    Array.sort compare a;
    p50s := Report.percentile a 50.0 :: !p50s;
    p99s := Report.percentile a 99.0 :: !p99s;
    filled := 0
  in
  let windows = max 5 (int_of_float seconds) in
  let width = seconds /. float_of_int windows in
  let counts = Array.make windows 0 in
  let t_start = ref nan and t_end = ref nan and t_last = ref nan in
  let service = ref 0.0 and queue = ref 0.0 and timed = ref 0 in
  let handle (t, line) =
    t_last := t;
    let w = int_of_float ((t -. !t_start) /. width) in
    if w >= 0 && w < windows then counts.(w) <- counts.(w) + 1;
    match Json.parse line with
    | exception Json.Bad _ -> incr failed
    | row -> (
        match Json.int_field row "id" with
        | Some i when Hashtbl.mem pending i ->
            let t0, e = Hashtbl.find pending i in
            Hashtbl.remove pending i;
            let e =
              match (wrong && i = first, e) with
              | false, e -> e
              | true, Exit_code n -> Exit_code (n + 1)
              | true, Verdict Gen.Safe -> Verdict Gen.Trap_write
              | true, Verdict _ -> Verdict Gen.Safe
            in
            if not (row_ok row e) then incr failed;
            let lat = (t -. t0) *. 1000.0 in
            cur.(!filled) <- lat;
            incr filled;
            if !filled = block then close_block ();
            Option.iter
              (fun ms ->
                service := !service +. ms;
                queue := !queue +. (lat -. ms);
                incr timed)
              (Json.num_field row "ms")
        | _ -> (* unknown or already answered *) incr failed)
  in
  let take_arrived () =
    let rows = List.of_seq (Queue.to_seq arrived) in
    Queue.clear arrived;
    rows
  in
  let read () =
    while Atomic.get inflight >= window do
      if spin then Domain.cpu_relax () else Unix.sleepf 1e-4
    done;
    Mutex.lock lock;
    let rows = take_arrived () in
    Mutex.unlock lock;
    List.iter handle rows;
    if Float.is_nan !t_start then begin
      t_start := Span.now ();
      t_end := !t_start +. seconds
    end;
    let n = !next - first in
    if (Span.now () >= !t_end && n >= min_jobs) || n >= max_jobs then None
    else begin
      let i = !next in
      incr next;
      let line, e = gen i in
      Atomic.incr inflight;
      Hashtbl.replace pending i (Span.now (), e);
      Some line
    end
  in
  (* called by the worker, one row at a time *)
  let write line =
    let t = Span.now () in
    Mutex.protect lock (fun () -> Queue.push (t, line) arrived);
    Atomic.decr inflight
  in
  server ~read ~write;
  List.iter handle (take_arrived ());
  failed := !failed + Hashtbl.length pending;
  if !p50s = [] && !filled > 0 then close_block ();
  let per x = if !timed > 0 then x /. float_of_int !timed else 0.0 in
  {
    attempted = !next - first;
    failed = !failed;
    p50_ms = Report.median !p50s;
    p99_ms = Report.median !p99s;
    service_ms = per !service;
    queue_ms = per !queue;
    rates = Array.to_list (Array.map (fun c -> float_of_int c /. width) counts);
    t_start = !t_start;
    elapsed = !t_last -. !t_start;
  }

let untraced_server ~read ~write =
  ignore (Harness.Serve.serve ~jobs:1 ~read ~write ())

(* ------------------------------------------------------------------ *)
(* Set-up and the simulated overheads of the served programs            *)
(* ------------------------------------------------------------------ *)

(* warm-up programs come from a generator stream the timed phase never
   uses *)
let warm_seed seed = seed + 1_000_003

(* Warm-up sizes.  One pass over serve-hot's 18 jobs fills every cache,
   but takes about 8 ms, which a few milliseconds of host delay move by
   half: set-up medians of two sets of ten runs differed by a third.
   The warm-ups are sized so that set-up repeats within its bound. *)
let cold_warmup = 40
let hot_warmup_passes = 50

(** Programs the traced run checks the staged transform on: the six hot
    programs, or serve-cold's warm-up programs. *)
let split_sample kind ~seed =
  match kind with
  | Hot -> Array.to_list Harness.Exp_serve.run_sources
  | Cold -> List.init cold_warmup (fun i -> fst (cold_source ~seed:(warm_seed seed) i))

(** Set-up: start the service and warm it.  serve-hot sends its 18
    (program, configuration) jobs [hot_warmup_passes] times; the first
    pass fills the source, transform and closure caches.  serve-cold
    sends [cold_warmup] programs of its own, so that first-touch costs
    land here.  Returns the failed warm-up jobs. *)
let warm_up kind ~seed : int =
  let gen = generator kind ~seed:(match kind with Hot -> seed | Cold -> warm_seed seed) in
  let n =
    match kind with
    | Hot -> hot_warmup_passes * Array.length hot_exits * Array.length hot_configs
    | Cold -> cold_warmup
  in
  (closed_loop ~gen ~seconds:0.0 ~min_jobs:n ~max_jobs:n ~server:untraced_server ()).failed

(** Geomean simulated-cycle overheads under the four Figure 2
    configurations, over serve-hot's six programs, or, for serve-cold,
    over a fixed reference sample of the generator: the first
    [cold_sample] safe programs of generator seed 1, whatever the run's
    seed (over a seed's own 32 programs the geomean moves by a fifth
    from seed to seed).  Also returns the runs that misbehaved. *)
let cold_sample = 32

let overheads kind ~quick =
  let sources =
    match kind with
    | Hot -> Array.to_list Harness.Exp_serve.run_sources
    | Cold ->
        let want = if quick then 4 else cold_sample in
        let rec take i acc =
          if List.length acc >= want then List.rev acc
          else
            match cold_source ~seed:1 i with
            | src, Gen.Safe -> take (i + 1) (src :: acc)
            | _ -> take (i + 1) acc
        in
        take 0 []
  in
  Fig2.overheads
    (List.mapi
       (fun i src -> Fig2.prepare ~traced:false ~name:(string_of_int i) ~argv:[] src)
       sources)
