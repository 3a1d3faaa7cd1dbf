(* `softbound_cli serve` — the checking service.

   A long-running daemon: line-delimited JSON jobs in, one JSON result
   row per job out, in COMPLETION order, each echoing the client's job
   id.  Jobs fan out over a persistent {!Pool} of worker domains; the
   reader thread applies backpressure by blocking on the pool's bounded
   queue, so a client streaming faster than the workers drain never
   balloons the daemon.

   Robustness contract (pinned by test/test_serve.ml): a malformed
   line, unknown job type, oversized payload, frontend-rejected
   program, or crashing job yields an [ok:false] error row — never a
   dead daemon, never a lost id.  Per-job wall-clock timeouts ride the
   VM's cooperative poll hook; a job past its deadline is abandoned at
   the next poll and answered with a timeout error row.

   All jobs share the Runner caches: the digest-keyed source compile
   cache and the transform cache keyed on the module it returns mean a
   thousand submissions of the same program cost one compile and one
   instrumentation, which is what makes tiny-job throughput a
   scheduling benchmark rather than a compiler benchmark. *)

module S = Interp.State
module Pool = Parutil.Pool

(** Raised by the poll hook when a job overruns its [timeout_ms]. *)
exception Deadline_exceeded

type stats = {
  accepted : int;  (** well-formed jobs handed to the pool *)
  rejected : int;  (** protocol errors answered inline *)
  completed : int;  (** ok rows emitted *)
  errored : int;  (** error rows emitted for accepted jobs *)
}

(* ------------------------------------------------------------------ *)
(* Row helpers                                                          *)
(* ------------------------------------------------------------------ *)

let truncate_output ?(limit = 65536) (s : string) : Json.t * bool =
  if String.length s <= limit then (Json.Str s, false)
  else (Json.Str (String.sub s 0 limit), true)

let error_row ~id ?jtype (msg : string) : Json.t =
  Json.Obj
    ([ ("id", id) ]
    @ (match jtype with Some t -> [ ("type", Json.Str t) ] | None -> [])
    @ [ ("ok", Json.Bool false); ("error", Json.Str msg) ])

(* ------------------------------------------------------------------ *)
(* Job execution                                                        *)
(* ------------------------------------------------------------------ *)

let poll_of ~(timeout_ms : int option) : (unit -> unit) option =
  match timeout_ms with
  | None -> None
  | Some ms ->
      let deadline = Unix.gettimeofday () +. (float_of_int ms /. 1000.0) in
      Some
        (fun () ->
          if Unix.gettimeofday () > deadline then raise Deadline_exceeded)

let exec_run (j : Proto.run_spec) ~poll : (string * Json.t) list =
  let m = Runner.compile_source_cached j.Proto.r_source in
  let cfg = { S.default_config with S.poll } in
  let r =
    Runner.run ~argv:j.Proto.r_argv ?max_steps:j.Proto.r_max_steps ~cfg
      j.Proto.r_scheme m
  in
  let out, truncated = truncate_output r.Interp.Vm.stdout_text in
  [
    ("scheme", Json.Str (Runner.scheme_name j.Proto.r_scheme));
    ("outcome", Json.Str (S.string_of_outcome r.Interp.Vm.outcome));
    ( "exit_code",
      match r.Interp.Vm.outcome with
      | S.Exit n -> Json.int n
      | S.Trapped _ -> Json.Null );
    ("stdout", out);
  ]
  @ (if truncated then [ ("stdout_truncated", Json.Bool true) ] else [])
  @ [
      ("cycles", Json.int r.Interp.Vm.stats.S.cycles);
      ("insts", Json.int r.Interp.Vm.stats.S.insts);
      ("checks", Json.int r.Interp.Vm.stats.S.checks);
    ]

let exec_fuzz (j : Proto.fuzz_spec) ~poll : (string * Json.t) list =
  let r =
    Fuzz.run_campaign ~shrink:j.Proto.f_shrink ?poll:(Option.map Fun.id poll)
      ~jobs:1 ~seed:j.Proto.f_seed ~count:j.Proto.f_count ()
  in
  let classes =
    List.sort_uniq compare
      (List.map (fun f -> f.Fuzz.cls) r.Fuzz.findings)
  in
  [
    ("seed", Json.int r.Fuzz.seed);
    ("count", Json.int r.Fuzz.count);
    ("tested", Json.int r.Fuzz.tested);
    ("skipped", Json.int r.Fuzz.skipped);
    ("injected", Json.int r.Fuzz.trap_cases);
    ("findings", Json.int (List.length r.Fuzz.findings));
    ("finding_classes", Json.List (List.map (fun c -> Json.Str c) classes));
  ]

let exec_profile (j : Proto.profile_spec) ~poll : (string * Json.t) list =
  let label, m, argv =
    match (j.Proto.p_workload, j.Proto.p_source) with
    | Some name, _ -> (
        match Workloads.find name with
        | Some w ->
            ( name,
              Runner.compile_workload w,
              if j.Proto.p_quick then w.Workloads.quick_args else [] )
        | None -> raise (Proto.Reject ("unknown workload " ^ name)))
    | None, Some src -> ("source", Runner.compile_source_cached src, [])
    | None, None -> raise (Proto.Reject "profile job needs source or workload")
  in
  let cfg = { S.default_config with S.poll } in
  let p = Profile.profile ~label ~cfg ~argv m in
  let base =
    match Profile.base_cycles p with Some b -> Json.int b | None -> Json.Null
  in
  [
    ("label", Json.Str label);
    ("cycles", Json.int (Profile.total_cycles p));
    ("base_cycles", base);
    ("check_cycles", Json.int (Profile.check_cycles p));
    ("meta_cycles", Json.int (Profile.meta_cycles p));
    ("wrapper_cycles", Json.int (Profile.wrapper_cycles p));
    ("outcome", Json.Str (S.string_of_outcome p.Profile.result.Interp.Vm.outcome));
  ]

let exec_adversarial (j : Proto.adv_spec) : (string * Json.t) list =
  let r =
    Fuzz.Adversary.run_campaign ~jobs:1 ~seed:j.Proto.a_seed
      ~count:j.Proto.a_count ()
  in
  [
    ("seed", Json.int r.Fuzz.Adversary.seed);
    ("count", Json.int r.Fuzz.Adversary.count);
    ("cases", Json.int r.Fuzz.Adversary.cases);
    ("skipped", Json.int r.Fuzz.Adversary.skipped);
    ("caught", Json.int r.Fuzz.Adversary.caught);
    ("confined", Json.int r.Fuzz.Adversary.confined);
    ("escaped", Json.int r.Fuzz.Adversary.escaped);
    ("regression_ok", Json.Bool r.Fuzz.Adversary.regression_ok);
  ]

(** Execute one validated job to a complete result row.  Never raises:
    every failure mode folds into an [ok:false] row. *)
let run_job ?(now = Unix.gettimeofday) (job : Proto.job) : Json.t =
  let t0 = now () in
  let finish fields =
    Json.Obj
      ([ ("id", job.Proto.id); ("type", Json.Str job.Proto.jtype) ]
      @ fields
      @ [ ("ms", Json.ms (now () -. t0)) ])
  in
  let poll = poll_of ~timeout_ms:job.Proto.timeout_ms in
  match
    match job.Proto.spec with
    | Proto.Run r -> exec_run r ~poll
    | Proto.Fuzz f -> exec_fuzz f ~poll
    | Proto.Profile p -> exec_profile p ~poll
    | Proto.Adversarial a -> exec_adversarial a
  with
  | fields -> finish (("ok", Json.Bool true) :: fields)
  | exception Deadline_exceeded ->
      finish
        [
          ("ok", Json.Bool false);
          ( "error",
            Json.Str
              (Printf.sprintf "timeout: exceeded %d ms"
                 (Option.value job.Proto.timeout_ms ~default:0)) );
        ]
  | exception e ->
      finish
        [ ("ok", Json.Bool false); ("error", Json.Str (Printexc.to_string e)) ]

(* ------------------------------------------------------------------ *)
(* The service loop                                                     *)
(* ------------------------------------------------------------------ *)

(** Run the daemon over abstract line I/O.  [read] returns [None] at
    end of input (EOF, or the caller's shutdown signal); [write]
    receives one complete result line (newline included) at a time,
    already serialized with every other write.  Returns the session's
    accounting once the queue has drained and the workers have
    joined. *)
let serve ?(jobs = 1) ?(cap = 128) ?default_timeout_ms
    ~(read : unit -> string option) ~(write : string -> unit) () : stats =
  let completed = Atomic.make 0 and errored = Atomic.make 0 in
  let accepted = ref 0 and rejected = ref 0 in
  let emit (row : Json.t) =
    (match Json.bool_field row "ok" with
    | Some true -> Atomic.incr completed
    | _ -> Atomic.incr errored);
    write (Json.to_string row ^ "\n")
  in
  let on_error e =
    (* a job closure that escapes run_job's net is a harness bug, but
       the daemon still answers *)
    error_row ~id:Json.Null ("internal error: " ^ Printexc.to_string e)
  in
  let pool = Pool.create ~cap ~jobs ~on_error ~emit () in
  let rec loop () =
    match read () with
    | None -> ()
    | Some line ->
        (match Proto.parse_job line with
        | Error (id, msg) ->
            incr rejected;
            Pool.emit_now pool (error_row ~id msg)
        | Ok job ->
            let job =
              match (job.Proto.timeout_ms, default_timeout_ms) with
              | None, Some _ -> { job with Proto.timeout_ms = default_timeout_ms }
              | _ -> job
            in
            incr accepted;
            ignore (Pool.submit pool (fun () -> run_job job)));
        loop ()
  in
  loop ();
  ignore (Pool.shutdown pool);
  {
    accepted = !accepted;
    rejected = !rejected;
    completed = Atomic.get completed;
    (* protocol-error rows also flow through [emit]; keep [errored] to
       accepted-but-failed jobs *)
    errored = Atomic.get errored - !rejected;
  }

(* ------------------------------------------------------------------ *)
(* File-descriptor plumbing for the CLI                                 *)
(* ------------------------------------------------------------------ *)

(** Incremental line reader over a raw fd.  Polls so [stop] (the SIGTERM
    flag) is honored even while no input arrives; a line longer than
    {!Proto.max_line_bytes} is truncated in memory (the excess is
    discarded as it streams in, never buffered) but still delivered
    over-limit so the protocol layer answers it with an oversized-request
    error row. *)
let read_lines ?(stop = fun () -> false) (fd : Unix.file_descr) :
    unit -> string option =
  let keep = Proto.max_line_bytes + 1 in
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let pending : string Queue.t = Queue.create () in
  let eof = ref false in
  let flush_line () =
    Queue.push (Buffer.contents buf) pending;
    Buffer.clear buf
  in
  let rec refill () =
    if Queue.is_empty pending && not !eof then
      if stop () then eof := true
      else
        match Unix.select [ fd ] [] [] 0.25 with
        | [], _, _ -> refill ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ()
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | 0 ->
                eof := true;
                if Buffer.length buf > 0 then flush_line ()
            | n ->
                for i = 0 to n - 1 do
                  match Bytes.get chunk i with
                  | '\n' -> flush_line ()
                  | c -> if Buffer.length buf < keep then Buffer.add_char buf c
                done;
                refill ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill ())
  in
  fun () ->
    refill ();
    if Queue.is_empty pending then None else Some (Queue.pop pending)

let write_all (fd : Unix.file_descr) (s : string) : unit =
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

(** Listen on a Unix-domain socket and serve one client connection at a
    time until [stop ()] flips.  Connections share the process-global
    Runner caches; each gets its own pool (joined when it disconnects).
    A client that vanishes mid-stream only loses its own rows. *)
let serve_socket ?(jobs = 1) ?(cap = 128) ?default_timeout_ms
    ?(stop = fun () -> false) (path : string) : unit =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 8;
      let rec accept_loop () =
        if not (stop ()) then (
          (match Unix.select [ sock ] [] [] 0.25 with
          | [], _, _ -> ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
          | _ ->
              let conn, _ = Unix.accept sock in
              Fun.protect
                ~finally:(fun () ->
                  try Unix.close conn with Unix.Unix_error _ -> ())
                (fun () ->
                  let read = read_lines ~stop conn in
                  let write s =
                    (* the client may already be gone; its rows just drop *)
                    try write_all conn s with Unix.Unix_error _ -> ()
                  in
                  ignore
                    (serve ~jobs ~cap ?default_timeout_ms ~read ~write ())));
          accept_loop ())
      in
      accept_loop ())
