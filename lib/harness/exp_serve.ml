(* Sustained-load benchmark for the serve daemon ([BENCH_serve.json]).

   Drives {!Serve.serve} directly through its [read]/[write] interface —
   no process or socket in the way — with a deterministic mixed stream
   of jobs (mostly tiny run jobs against a handful of distinct programs,
   plus a steady trickle of fuzz, profile and adversarial campaigns),
   and measures, per worker width:

   - throughput: jobs completed per host second;
   - loaded latency: per-job enqueue-to-result-row wall time, reported
     as p50/p99.  The queue is bounded (backpressure), so this is
     queue-wait-plus-service under a saturated daemon, not bare service
     time;
   - integrity: error rows, lost ids, duplicated ids — all must be 0
     for the run to mean anything.

   Widths 1, 2 and all-cores are measured so the artifact records how
   the pool scales on the machine at hand.  On a single-core host the
   multi-domain rows measure scheduling overhead, not speedup — the
   [speedup_max_vs_1] field simply reports what happened. *)

type width_row = {
  jobs : int;  (** worker domains *)
  wall_seconds : float;
  jobs_per_sec : float;
  p50_ms : float;
  p99_ms : float;
  errors : int;  (** ok:false rows *)
  lost : int;  (** ids submitted but never answered *)
  duplicated : int;  (** ids answered more than once *)
}

(* ------------------------------------------------------------------ *)
(* The job stream                                                       *)
(* ------------------------------------------------------------------ *)

(* Distinct tiny programs so the run stream exercises the content-keyed
   compile/transform caches across several entries, not one hot slot. *)
let run_sources =
  [|
    "int main() { int a[8]; int i; for (i = 0; i < 8; i = i + 1) a[i] = i; \
     return a[5]; }";
    "int main() { int x; int *p; x = 3; p = &x; *p = *p + 4; return x; }";
    "int sum(int *v, int n) { int s; int i; s = 0; for (i = 0; i < n; i = i \
     + 1) s = s + v[i]; return s; } int main() { int a[6]; int i; for (i = \
     0; i < 6; i = i + 1) a[i] = i * 2; return sum(a, 6); }";
    "int main() { char s[16]; int i; for (i = 0; i < 15; i = i + 1) s[i] = \
     'a' + i; s[15] = 0; return s[3]; }";
    "int fib(int n) { if (n < 2) return n; return fib(n - 1) + fib(n - 2); \
     } int main() { return fib(12); }";
    "int main() { int m[4][4]; int i; int j; for (i = 0; i < 4; i = i + 1) \
     for (j = 0; j < 4; j = j + 1) m[i][j] = i * j; return m[3][3]; }";
  |]

let profile_source =
  "int main() { int a[32]; int i; int s; s = 0; for (i = 0; i < 32; i = i \
   + 1) a[i] = i; for (i = 0; i < 32; i = i + 1) s = s + a[i]; return s & \
   127; }"

type kind = K_run | K_fuzz | K_profile | K_adversarial

let kind_name = function
  | K_run -> "run"
  | K_fuzz -> "fuzz"
  | K_profile -> "profile"
  | K_adversarial -> "adversarial"

(* Deterministic mix, position-keyed: ~96.75% run, 2% fuzz, 1% profile,
   0.25% adversarial — small campaigns so one job costs milliseconds,
   not the seconds a CLI-sized campaign would. *)
let kind_of i =
  if i mod 400 = 399 then K_adversarial
  else if i mod 50 = 49 then K_fuzz
  else if i mod 100 = 73 then K_profile
  else K_run

let job_line i : string =
  let base = [ ("id", Json.int i) ] in
  let fields =
    match kind_of i with
    | K_run ->
        base
        @ [
            ("type", Json.Str "run");
            ("source", Json.Str run_sources.(i mod Array.length run_sources));
          ]
    | K_fuzz ->
        base
        @ [
            ("type", Json.Str "fuzz");
            ("seed", Json.int (1 + (i mod 7)));
            ("count", Json.int 1);
          ]
    | K_profile ->
        base
        @ [ ("type", Json.Str "profile"); ("source", Json.Str profile_source) ]
    | K_adversarial ->
        base
        @ [
            ("type", Json.Str "adversarial");
            ("seed", Json.int (1 + (i mod 3)));
            ("count", Json.int 1);
          ]
  in
  Json.to_string (Json.Obj fields)

let mix_counts total =
  let c = [ (K_run, ref 0); (K_fuzz, ref 0); (K_profile, ref 0);
            (K_adversarial, ref 0) ] in
  for i = 0 to total - 1 do
    incr (List.assoc (kind_of i) c)
  done;
  List.map (fun (k, r) -> (kind_name k, !r)) c

(* ------------------------------------------------------------------ *)
(* Measurement                                                          *)
(* ------------------------------------------------------------------ *)

let now () = Unix.gettimeofday ()

let percentile (sorted : float array) (p : float) : float =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let idx = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) idx))

let measure ~total ~jobs : width_row =
  let submit_t = Array.make total 0.0 in
  let done_t = Array.make total 0.0 in
  let seen = Array.make total 0 in
  let errors = ref 0 in
  let next = ref 0 in
  let read () =
    if !next >= total then None
    else begin
      let i = !next in
      incr next;
      submit_t.(i) <- now ();
      Some (job_line i)
    end
  in
  (* [write] runs under the pool's emit lock, so plain mutation is safe *)
  let write line =
    let t = now () in
    match Json.parse line with
    | exception Json.Bad _ -> incr errors
    | row ->
        (match Json.int_field row "id" with
        | Some i when i >= 0 && i < total ->
            seen.(i) <- seen.(i) + 1;
            done_t.(i) <- t
        | _ -> ());
        if Json.bool_field row "ok" <> Some true then incr errors
  in
  let t0 = now () in
  let _st = Serve.serve ~jobs ~cap:256 ~read ~write () in
  let wall = now () -. t0 in
  let lats = ref [] and lost = ref 0 and duplicated = ref 0 in
  for i = 0 to total - 1 do
    match seen.(i) with
    | 0 -> incr lost
    | k ->
        if k > 1 then incr duplicated;
        lats := ((done_t.(i) -. submit_t.(i)) *. 1000.0) :: !lats
  done;
  let sorted = Array.of_list !lats in
  Array.sort compare sorted;
  {
    jobs;
    wall_seconds = wall;
    jobs_per_sec = (if wall > 0.0 then float_of_int total /. wall else 0.0);
    p50_ms = percentile sorted 50.0;
    p99_ms = percentile sorted 99.0;
    errors = !errors;
    lost = !lost;
    duplicated = !duplicated;
  }

let widths () =
  List.sort_uniq compare [ 1; 2; Parutil.available_jobs () ]

let default_total = 10_000

let run ?(quick = false) ?total () : width_row list =
  let total =
    match total with Some t -> t | None -> if quick then 600 else default_total
  in
  (* warm the compile/transform/closure caches so the width rows compare
     scheduling, not first-touch compilation *)
  Array.iter
    (fun src ->
      ignore (Runner.run Runner.Unprotected (Runner.compile_source_cached src));
      ignore
        (Runner.run
           (Runner.Softbound Softbound.Config.default)
           (Runner.compile_source_cached src)))
    run_sources;
  ignore (Runner.compile_source_cached profile_source);
  List.map (fun jobs -> measure ~total ~jobs) (widths ())

(* ------------------------------------------------------------------ *)
(* Rendering                                                            *)
(* ------------------------------------------------------------------ *)

let speedup_max_vs_1 (rows : width_row list) : float =
  match rows with
  | [] -> 0.0
  | base :: _ ->
      let best =
        List.fold_left (fun a r -> max a r.jobs_per_sec) 0.0 rows
      in
      if base.jobs_per_sec > 0.0 then best /. base.jobs_per_sec else 0.0

let render ?total (rows : width_row list) : string =
  let total = Option.value total ~default:default_total in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "serve sustained load: %d mixed jobs (%s) per width\n" total
       (String.concat ", "
          (List.map
             (fun (k, n) -> Printf.sprintf "%s %d" k n)
             (mix_counts total))));
  Buffer.add_string buf
    (Texttable.render
       ~headers:
         [ "jobs"; "wall s"; "jobs/s"; "p50 ms"; "p99 ms"; "err"; "lost";
           "dup" ]
       (List.map
          (fun r ->
            [
              string_of_int r.jobs;
              Printf.sprintf "%.2f" r.wall_seconds;
              Printf.sprintf "%.0f" r.jobs_per_sec;
              Printf.sprintf "%.2f" r.p50_ms;
              Printf.sprintf "%.2f" r.p99_ms;
              string_of_int r.errors;
              string_of_int r.lost;
              string_of_int r.duplicated;
            ])
          rows));
  Buffer.add_string buf
    (Printf.sprintf "best width vs 1 worker: %.2fx (%d core%s available)\n"
       (speedup_max_vs_1 rows)
       (Parutil.available_jobs ())
       (if Parutil.available_jobs () = 1 then "" else "s"));
  Buffer.contents buf

let artifact : Artifact.t =
  let open Artifact in
  let timing = [ "wall_seconds"; "jobs_per_sec"; "p50_ms"; "p99_ms" ] in
  let integrity = [ "errors"; "lost"; "duplicated" ] in
  { name = "serve"; tag = "serve";
    host_timing = timing @ [ "speedup_max_vs_1" ];
    fields =
      [ ("jobs_total", Num); ("mix", Each Num);
        ("widths", Rows (Fields (nums (("jobs" :: timing) @ integrity))));
        ("speedup_max_vs_1", Num) ] }

(** Machine-readable artifact ([BENCH_serve.json]). *)
let to_json ?total (rows : width_row list) : Json.t =
  let total = Option.value total ~default:default_total in
  let ms = Json.decimals 3 in
  let width r =
    Json.Obj
      ([ ("jobs", Json.int r.jobs);
         ("wall_seconds", Json.decimals 6 r.wall_seconds);
         ("jobs_per_sec", ms r.jobs_per_sec); ("p50_ms", ms r.p50_ms);
         ("p99_ms", ms r.p99_ms) ]
      @ Json.ints
          [ ("errors", r.errors); ("lost", r.lost);
            ("duplicated", r.duplicated) ])
  in
  Artifact.document artifact
    [ ("jobs_total", Json.int total);
      ("cores", Json.int (Parutil.available_jobs ()));
      ("mix", Json.Obj (Json.ints (mix_counts total)));
      ("widths", Json.List (List.map width rows));
      ("speedup_max_vs_1", Json.decimals 3 (speedup_max_vs_1 rows)) ]
