(* The serve daemon: protocol robustness, worker-pool behavior, and
   cache sharing across requests.

   Everything drives {!Harness.Serve.serve} through its [read]/[write]
   interface — the same code path the binary uses, minus the fd
   plumbing — so a hung daemon fails the suite instead of hanging a
   shell. *)

module Serve = Harness.Serve
module Proto = Harness.Proto
module Json = Harness.Json
module Pool = Parutil.Pool

let check = Alcotest.check
let checkb = check Alcotest.bool
let checki = check Alcotest.int

(* ---- driving the daemon over in-memory lines ---- *)

let serve_lines ?(jobs = 1) ?default_timeout_ms (lines : string list) :
    Serve.stats * Json.t list =
  let rem = ref lines in
  let out = ref [] in
  let read () =
    match !rem with
    | [] -> None
    | l :: t ->
        rem := t;
        Some l
  in
  let write s = out := Json.parse s :: !out in
  let st = Serve.serve ~jobs ?default_timeout_ms ~read ~write () in
  (st, List.rev !out)

let job fields = Json.to_string (Json.Obj fields)

let run_job ?(id = Json.Str "j") src =
  job [ ("id", id); ("type", Json.Str "run"); ("source", Json.Str src) ]

let ok_of row =
  match Json.bool_field row "ok" with Some b -> b | None -> false

let str_of row k =
  match Json.str_field row k with Some s -> s | None -> ""

let find_row rows id =
  List.find_opt (fun r -> Json.field r "id" = Some id) rows

(* every response row must carry the protocol's envelope *)
let check_envelope rows =
  List.iter
    (fun r ->
      checkb "row has id" true (Json.field r "id" <> None);
      checkb "row has ok" true (Json.field r "ok" <> None);
      if ok_of r then
        checkb "ok row has ms" true (Json.field r "ms" <> None)
      else checkb "error row has error" true (Json.field r "error" <> None))
    rows

(* ---- protocol robustness ---- *)

let test_ok_run () =
  let st, rows = serve_lines [ run_job "int main() { return 41; }" ] in
  checki "accepted" 1 st.Serve.accepted;
  checki "completed" 1 st.Serve.completed;
  match rows with
  | [ row ] ->
      checkb "ok" true (ok_of row);
      check Alcotest.string "outcome" "exit 41" (str_of row "outcome");
      checkb "id echoed" true (Json.field row "id" = Some (Json.Str "j"))
  | _ -> Alcotest.fail "expected exactly one row"

let test_malformed_json () =
  let st, rows =
    serve_lines [ "this is not json"; run_job "int main() { return 0; }" ]
  in
  checki "rejected" 1 st.Serve.rejected;
  checki "completed" 1 st.Serve.completed;
  checki "two rows out" 2 (List.length rows);
  check_envelope rows;
  let bad = List.find (fun r -> not (ok_of r)) rows in
  checkb "null id on unparseable line" true
    (Json.field bad "id" = Some Json.Null)

let test_unknown_type () =
  let st, rows =
    serve_lines [ job [ ("id", Json.int 7); ("type", Json.Str "bogus") ] ]
  in
  checki "rejected" 1 st.Serve.rejected;
  match rows with
  | [ row ] ->
      checkb "error row" true (not (ok_of row));
      checkb "id echoed on reject" true (Json.field row "id" = Some (Json.Num 7.))
  | _ -> Alcotest.fail "expected exactly one row"

let test_missing_id () =
  let _, rows = serve_lines [ job [ ("type", Json.Str "run") ] ] in
  match rows with
  | [ row ] ->
      checkb "error row" true (not (ok_of row));
      checkb "null id" true (Json.field row "id" = Some Json.Null)
  | _ -> Alcotest.fail "expected exactly one row"

let test_oversized_payload () =
  let big = String.make (Proto.max_line_bytes + 100) 'x' in
  let st, rows =
    serve_lines [ big; run_job "int main() { return 0; }" ]
  in
  checki "rejected" 1 st.Serve.rejected;
  checki "daemon survived to run the next job" 1 st.Serve.completed;
  let bad = List.find (fun r -> not (ok_of r)) rows in
  checkb "oversized message" true
    (String.length (str_of bad "error") > 0
    && String.sub (str_of bad "error") 0 9 = "oversized")

let test_frontend_reject () =
  (* a program the compiler rejects must come back as an error row, not
     kill the worker *)
  let st, rows =
    serve_lines
      [
        run_job ~id:(Json.Str "bad") "int main( { syntax error";
        run_job ~id:(Json.Str "good") "int main() { return 3; }";
      ]
  in
  checki "both accepted" 2 st.Serve.accepted;
  checki "one completed" 1 st.Serve.completed;
  checki "one errored" 1 st.Serve.errored;
  let bad = Option.get (find_row rows (Json.Str "bad")) in
  checkb "frontend error row" true (not (ok_of bad));
  let good = Option.get (find_row rows (Json.Str "good")) in
  check Alcotest.string "good job unharmed" "exit 3" (str_of good "outcome")

let test_trapping_job () =
  (* an out-of-bounds program is a *successful* check: ok row, trap
     outcome *)
  let _, rows =
    serve_lines [ run_job "int main() { int a[3]; return a[9]; }" ]
  in
  match rows with
  | [ row ] ->
      checkb "ok row" true (ok_of row);
      checkb "bounds trap reported" true
        (String.length (str_of row "outcome") > 0
        && str_of row "outcome" <> "exit 0");
      checkb "no exit code on trap" true
        (Json.field row "exit_code" = Some Json.Null)
  | _ -> Alcotest.fail "expected exactly one row"

let test_timeout_job () =
  let t0 = Unix.gettimeofday () in
  let st, rows =
    serve_lines
      [
        job
          [
            ("id", Json.Str "spin");
            ("type", Json.Str "run");
            ("source", Json.Str "int main() { while (1) {} return 0; }");
            ("timeout_ms", Json.int 150);
          ];
      ]
  in
  let elapsed = Unix.gettimeofday () -. t0 in
  checki "errored" 1 st.Serve.errored;
  checkb "daemon returned promptly" true (elapsed < 30.0);
  match rows with
  | [ row ] ->
      checkb "timeout error row" true (not (ok_of row));
      checkb "timeout message" true
        (String.length (str_of row "error") >= 7
        && String.sub (str_of row "error") 0 7 = "timeout")
  | _ -> Alcotest.fail "expected exactly one row"

let test_default_timeout () =
  (* the daemon-wide default applies when the job carries none *)
  let st, _ =
    serve_lines ~default_timeout_ms:150
      [ run_job "int main() { while (1) {} return 0; }" ]
  in
  checki "errored via default timeout" 1 st.Serve.errored

let test_campaign_cap () =
  let _, rows =
    serve_lines
      [
        job
          [
            ("id", Json.int 1);
            ("type", Json.Str "fuzz");
            ("count", Json.int 1_000_000);
          ];
      ]
  in
  match rows with
  | [ row ] -> checkb "capped" true (not (ok_of row))
  | _ -> Alcotest.fail "expected exactly one row"

(* ---- parallel dispatch ---- *)

let mixed_batch n =
  List.init n (fun i ->
      match i mod 5 with
      | 0 -> run_job ~id:(Json.int i) "int main() { return 7; }"
      | 1 -> run_job ~id:(Json.int i) "int main() { int a[2]; return a[5]; }"
      | 2 ->
          job
            [
              ("id", Json.int i);
              ("type", Json.Str "fuzz");
              ("seed", Json.int i);
              ("count", Json.int 1);
            ]
      | 3 -> job [ ("id", Json.int i); ("type", Json.Str "nope") ]
      | _ -> run_job ~id:(Json.int i) "int main() { return 1 + 1; }")

(* response rows modulo delivery order and timing: key fields only,
   sorted *)
let normalize rows =
  List.sort compare
    (List.map
       (fun r ->
         match r with
         | Json.Obj fields ->
             Json.Obj (List.filter (fun (k, _) -> k <> "ms") fields)
         | r -> r)
       rows)

let test_interleaved_jobs () =
  let n = 25 in
  let st, rows = serve_lines ~jobs:4 (mixed_batch n) in
  checki "every job answered" n (List.length rows);
  check_envelope rows;
  checki "accepted + rejected = n" n (st.Serve.accepted + st.Serve.rejected);
  (* every id 0..n-1 appears exactly once *)
  let ids =
    List.filter_map (fun r -> Json.int_field r "id") rows |> List.sort compare
  in
  check (Alcotest.list Alcotest.int) "ids" (List.init n Fun.id) ids

let test_jobs_width_equivalence () =
  let n = 20 in
  let _, seq = serve_lines ~jobs:1 (mixed_batch n) in
  let _, par = serve_lines ~jobs:4 (mixed_batch n) in
  checkb "jobs=1 and jobs=4 produce the same row set" true
    (normalize seq = normalize par)

(* ---- the worker pool itself ---- *)

let test_pool_backpressure () =
  (* cap 2: the producer cannot get more than cap jobs ahead of the
     consumer *)
  let in_queue_high = ref 0 in
  let emitted = ref 0 in
  let pool =
    Pool.create ~cap:2 ~jobs:1
      ~on_error:(fun _ -> -1)
      ~emit:(fun _ -> incr emitted)
      ()
  in
  for i = 1 to 20 do
    ignore (Pool.submit pool (fun () -> i));
    in_queue_high := max !in_queue_high (Pool.queued pool)
  done;
  checki "drained" 0 (Pool.shutdown pool);
  checki "all emitted" 20 !emitted;
  checkb "queue depth stayed within cap" true (!in_queue_high <= 2)

let test_pool_error_keeps_workers () =
  let emitted = ref [] in
  let pool =
    Pool.create ~cap:8 ~jobs:2
      ~on_error:(fun _ -> -1)
      ~emit:(fun r -> emitted := r :: !emitted)
      ()
  in
  for i = 1 to 10 do
    ignore
      (Pool.submit pool (fun () -> if i mod 3 = 0 then failwith "boom" else i))
  done;
  ignore (Pool.shutdown pool);
  checki "every job answered" 10 (List.length !emitted);
  checki "failures routed through on_error" 3
    (List.length (List.filter (fun r -> r = -1) !emitted))

let test_pool_shutdown_no_drain () =
  (* a slow first job holds the worker; the rest sit queued and are
     dropped by a non-draining shutdown *)
  let gate = Atomic.make false in
  let pool =
    Pool.create ~cap:16 ~jobs:1
      ~on_error:(fun _ -> ())
      ~emit:(fun () -> ())
      ()
  in
  ignore
    (Pool.submit pool (fun () ->
         while not (Atomic.get gate) do
           Domain.cpu_relax ()
         done));
  while Pool.queued pool > 0 do
    Domain.cpu_relax ()
  done;
  for _ = 1 to 5 do
    ignore (Pool.submit pool (fun () -> ()))
  done;
  Atomic.set gate true;
  let dropped = Pool.shutdown ~drain:false pool in
  checkb "some queued jobs dropped" true (dropped >= 0 && dropped <= 5);
  checkb "closed pool refuses work" false (Pool.submit pool (fun () -> ()))

(* ---- cache sharing across requests ---- *)

let test_source_cache_hits () =
  let src = "int main() { int q[4]; q[2] = 9; return q[2]; }" in
  let m1 = Harness.Runner.compile_source_cached src in
  let before = Harness.Runner.source_compiles_performed () in
  let m2 = Harness.Runner.compile_source_cached src in
  checki "second compile is a cache hit" before
    (Harness.Runner.source_compiles_performed ());
  checkb "same physical module" true (m1 == m2)

let test_serve_shares_transform_cache () =
  let src = "int main() { int z[6]; z[1] = 2; return z[1]; }" in
  (* first request warms every cache *)
  let _, _ = serve_lines [ run_job src ] in
  let compiles = Harness.Runner.source_compiles_performed () in
  let transforms = Harness.Runner.transforms_performed () in
  let images = Interp.Vm.images_built () in
  let st, rows = serve_lines [ run_job src; run_job src; run_job src ] in
  checki "all completed" 3 st.Serve.completed;
  List.iter
    (fun r -> check Alcotest.string "outcome" "exit 2" (str_of r "outcome"))
    rows;
  checki "no new source compiles across requests" compiles
    (Harness.Runner.source_compiles_performed ());
  checki "no new transforms across requests" transforms
    (Harness.Runner.transforms_performed ());
  checki "no new module images across requests" images
    (Interp.Vm.images_built ())

(* ---- source fuzzer ---- *)
(* Random byte strings, random token soups (bare and inside [main]) and
   real generated programs with tokens dropped, doubled or replaced.
   The front end may reject them only with its own errors; anything
   else escaping [Softbound.compile] is a bug. *)

let soup_tokens : Cminus.Token.t array =
  let open Cminus.Token in
  Array.of_list
    (List.map snd keyword_table
    @ [ PLUS; MINUS; STAR; SLASH; PERCENT; AMP; PIPE; CARET; TILDE; BANG; LT;
        GT; LE; GE; EQEQ; NE; ANDAND; OROR; SHL; SHR; ASSIGN; PLUSEQ; MINUSEQ;
        STAREQ; SLASHEQ; PERCENTEQ; AMPEQ; PIPEEQ; CARETEQ; SHLEQ; SHREQ;
        PLUSPLUS; MINUSMINUS; ARROW; DOT; QUESTION; COLON; COMMA; SEMI; LPAREN;
        RPAREN; LBRACE; RBRACE; LBRACKET; RBRACKET; ELLIPSIS; IDENT "x";
        IDENT "main"; IDENT "p"; IDENT "malloc"; IDENT "printf";
        INT_LIT (0L, Cminus.Ctypes.IInt); INT_LIT (7L, Cminus.Ctypes.IInt);
        INT_LIT (4294967295L, Cminus.Ctypes.IULong);
        FLOAT_LIT (1.5, Cminus.Ctypes.FDouble); CHAR_LIT 'a';
        STRING_LIT "hi\n" ])

let fuzz_source rng i =
  let pick () =
    Cminus.Token.to_string
      soup_tokens.(Random.State.int rng (Array.length soup_tokens))
  in
  let soup n = String.concat " " (List.init n (fun _ -> pick ())) in
  match i mod 4 with
  | 0 -> String.init (Random.State.int rng 80) (fun _ -> Char.chr (Random.State.int rng 256))
  | 1 -> soup (Random.State.int rng 40)
  | 2 -> "int main() { " ^ soup (Random.State.int rng 30) ^ " }"
  | _ ->
      (* one token of a real program dropped, doubled or replaced *)
      let prog = (Fuzz.case_of ~seed:7 ~index:i).Fuzz.Gen.prog in
      let toks = Cminus.Lexer.tokenize (Cminus.Pretty.program_string prog) in
      let at = Random.State.int rng (Array.length toks - 1) in
      let how = Random.State.int rng 3 in
      Array.to_list toks
      |> List.filter (fun (l : Cminus.Lexer.lexed) -> l.tok <> Cminus.Token.EOF)
      |> List.mapi (fun k (l : Cminus.Lexer.lexed) ->
             let t = Cminus.Token.to_string l.tok in
             if k <> at then [ t ]
             else match how with 0 -> [] | 1 -> [ t; t ] | _ -> [ pick () ])
      |> List.concat |> String.concat " "

let front_end_error = function
  | Cminus.Lexer.Lex_error _ -> Some "lex"
  | Cminus.Parser.Parse_error _ -> Some "parse"
  | Cminus.Typecheck.Error _ -> Some "typecheck"
  | Cminus.Ctypes.Type_error _ -> Some "type"
  | Sbir.Lower.Error _ -> Some "lower"
  | _ -> None

(* the rejected sources of a fixed campaign, with the error class each *)
let fuzz_rejected =
  lazy
    (let rng = Random.State.make [| 2026 |] in
     List.filter_map
       (fun i ->
         let src = fuzz_source rng i in
         match Softbound.compile src with
         | _ -> None
         | exception e -> (
             match front_end_error e with
             | Some cls -> Some (cls, src)
             | None ->
                 Alcotest.failf "compile raised %s on %S" (Printexc.to_string e)
                   src))
       (List.init 2000 Fun.id))

let test_source_fuzz_compile () =
  let rejected = Lazy.force fuzz_rejected in
  List.iter
    (fun cls ->
      checkb (cls ^ " errors reached") true (List.mem_assoc cls rejected))
    [ "lex"; "parse"; "typecheck" ]

let test_source_fuzz_serve () =
  let sample = List.filteri (fun i _ -> i mod 25 = 0) (Lazy.force fuzz_rejected) in
  let lines = List.mapi (fun i (_, src) -> run_job ~id:(Json.int i) src) sample in
  let st, rows = serve_lines lines in
  checki "every job answered" (List.length sample) (List.length rows);
  checki "none completed" 0 st.Serve.completed;
  check_envelope rows;
  List.iter (fun r -> checkb "error row" false (ok_of r)) rows

let suite =
  [
    Alcotest.test_case "run job round-trips" `Quick test_ok_run;
    Alcotest.test_case "malformed JSON -> error row, daemon lives" `Quick
      test_malformed_json;
    Alcotest.test_case "unknown type -> error row with id" `Quick
      test_unknown_type;
    Alcotest.test_case "missing id -> error row" `Quick test_missing_id;
    Alcotest.test_case "oversized payload rejected" `Quick
      test_oversized_payload;
    Alcotest.test_case "frontend-rejected source -> error row" `Quick
      test_frontend_reject;
    Alcotest.test_case "trapping program is an ok row" `Quick
      test_trapping_job;
    Alcotest.test_case "spinning job times out" `Quick test_timeout_job;
    Alcotest.test_case "daemon-wide default timeout applies" `Quick
      test_default_timeout;
    Alcotest.test_case "absurd campaign count rejected" `Quick
      test_campaign_cap;
    Alcotest.test_case "interleaved results under jobs=4" `Quick
      test_interleaved_jobs;
    Alcotest.test_case "jobs=1 and jobs=4 agree modulo order" `Quick
      test_jobs_width_equivalence;
    Alcotest.test_case "pool: bounded queue backpressure" `Quick
      test_pool_backpressure;
    Alcotest.test_case "pool: errors do not kill workers" `Quick
      test_pool_error_keeps_workers;
    Alcotest.test_case "pool: non-draining shutdown drops queue" `Quick
      test_pool_shutdown_no_drain;
    Alcotest.test_case "source compile cache hits on identical text" `Quick
      test_source_cache_hits;
    Alcotest.test_case "serve requests share compile+transform caches"
      `Quick test_serve_shares_transform_cache;
    Alcotest.test_case "source fuzzer: only front-end errors escape compile"
      `Quick test_source_fuzz_compile;
    Alcotest.test_case "source fuzzer: rejected sources are error rows"
      `Quick test_source_fuzz_serve;
  ]
