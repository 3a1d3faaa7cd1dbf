(* The JSON printer and the artifact declarations.

   Printer: every finite float reads back as itself, the layout rule is
   pinned on a small tree, and [profile --json] output is valid JSON
   whatever the label.

   Validator: the committed BENCH_*.json files pass [bench-check], and
   every mutation derived from the declarations — each required key
   removed, each row array emptied, each pinned row dropped or pinned
   cell flipped, each shared cross-artifact cell moved by 1 — is
   rejected, so every check a declaration states is exercised. *)

open Harness
module A = Artifact

let tc name f = Alcotest.test_case name `Quick f
let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

(* ---- printer ---- *)

let finite_float =
  QCheck.(
    oneof
      [
        float;
        map Int64.float_of_bits int64;
        map (fun n -> float_of_int n /. 1000.0) int;
      ])

let prop_number_roundtrip =
  QCheck.Test.make ~count:2000 ~name:"parse (to_string (Num f)) = Num f"
    finite_float (fun f ->
      QCheck.assume (Float.is_finite f);
      Json.parse (Json.to_string (Json.Num f)) = Json.Num f
      && Json.parse (Json.pretty (Json.Num f)) = Json.Num f)

let number_spelling () =
  checks "ms keeps every digit" "2034.568" (Json.to_string (Json.ms 2.0345678));
  checks "ms below 1000 as before" "34.845" (Json.to_string (Json.ms 0.034845));
  checks "large non-integer" "123456789.5" (Json.number_string 123456789.5);
  checks "integer" "107733323" (Json.number_string 107733323.0);
  checks "fixed-width rounding" "0.53" (Json.to_string (Json.decimals 4 0.53004));
  checks "significant digits" "83761370" (Json.to_string (Json.sig_digits 7 8.3761372e7))

let layout () =
  let v =
    Json.Obj
      [
        ("a", Json.int 1);
        ("row", Json.Obj [ ("x", Json.Num 0.5); ("s", Json.Str "q\"b") ]);
        ("names", Json.List [ Json.Str "p"; Json.Str "q" ]);
        ("rows", Json.List [ Json.Obj [ ("k", Json.Null) ]; Json.Obj [] ]);
        ("none", Json.List []);
      ]
  in
  checks "pretty"
    "{\n\
    \  \"a\": 1,\n\
    \  \"row\": { \"x\": 0.5, \"s\": \"q\\\"b\" },\n\
    \  \"names\": [\"p\", \"q\"],\n\
    \  \"rows\": [\n\
    \    { \"k\": null },\n\
    \    {}\n\
    \  ],\n\
    \  \"none\": []\n\
     }\n"
    (Json.pretty v);
  checks "compact" "{\"a\":1,\"names\":[\"p\"]}"
    (Json.to_string (Json.Obj [ ("a", Json.int 1); ("names", Json.List [ Json.Str "p" ]) ]));
  checkb "control characters round-trip" true
    (Json.parse (Json.to_string (Json.Str "a\001b\tc")) = Json.Str "a\001b\tc")

let profile_label () =
  let label = "q\"b\\c.c" in
  let p =
    Profile.profile ~label (Softbound.compile "int main() { return 0; }")
  in
  let v = Json.parse (Json.pretty (Profile.to_json p)) in
  checkb "label round-trips" true (Json.str_field v "profile" = Some label);
  checkb "outcome round-trips" true
    (Json.str_field v "outcome"
    = Some (Interp.State.string_of_outcome p.Profile.result.Interp.Vm.outcome))

(* ---- validator ---- *)

let committed () =
  List.map
    (fun (a : A.t) ->
      (a.A.name, Json.parse (A.read_file (Committed.root (A.file a)))))
    Bench_check.artifacts

let committed_pass () =
  checks "bench-check problems" "" (String.concat "\n" (Bench_check.check (committed ())))

let replace k x kvs = List.map (fun (k', y) -> if k' = k then (k, x) else (k', y)) kvs

let set_nth i x xs = List.mapi (fun j y -> if j = i then x else y) xs

type mutation = { kind : string; what : string; tree : Json.t }

(* every mutation the shape declares a check for, applied to [v]: the
   first row of an array stands for all of them *)
let rec mutations (s : A.shape) (v : Json.t) : mutation list =
  let under what f = List.map (fun m -> { m with what = what ^ m.what; tree = f m.tree }) in
  let emptied empty = { kind = "empty"; what = ""; tree = empty } in
  match (s, v) with
  | A.Fields fs, Json.Obj kvs ->
      List.concat_map
        (fun (k, sk) ->
          match List.assoc_opt k kvs with
          | None -> []
          | Some x ->
              { kind = "key"; what = "." ^ k; tree = Json.Obj (List.remove_assoc k kvs) }
              :: under ("." ^ k) (fun x' -> Json.Obj (replace k x' kvs)) (mutations sk x))
        fs
  | A.Each sk, Json.Obj ((k, x) :: _ as kvs) ->
      emptied (Json.Obj [])
      :: under ("." ^ k) (fun x' -> Json.Obj (replace k x' kvs)) (mutations sk x)
  | A.Rows row, Json.List (x :: _ as xs) ->
      emptied (Json.List [])
      :: under "[0]" (fun x' -> Json.List (set_nth 0 x' xs)) (mutations row x)
  | A.Table (key, pinned, row), Json.List (x :: _ as xs) ->
      let is_pinned want r = Json.str_field r key = Some want in
      (emptied (Json.List [])
      :: under "[0]" (fun x' -> Json.List (set_nth 0 x' xs)) (mutations row x))
      @ List.concat_map
          (fun (want, ps) ->
            let sel = Printf.sprintf "[%s=%s]" key want in
            { kind = "pinned row"; what = sel;
              tree = Json.List (List.filter (fun r -> not (is_pinned want r)) xs) }
            ::
            (match List.find_index (is_pinned want) xs with
            | Some i ->
                under sel (fun x' -> Json.List (set_nth i x' xs))
                  (mutations ps (List.nth xs i))
            | None -> []))
          pinned
  | A.Is (Json.Bool b), _ -> [ { kind = "pin"; what = ""; tree = Json.Bool (not b) } ]
  | _ -> []

let all_mutations () =
  let docs = committed () in
  List.concat_map
    (fun (a : A.t) ->
      let v = List.assoc a.A.name docs in
      List.map
        (fun m ->
          ( { m with what = A.file a ^ " " ^ m.what },
            (a.A.name, m.tree) :: List.remove_assoc a.A.name docs ))
        (mutations (A.shape a) v))
    Bench_check.artifacts

let rejects kind () =
  let ms = List.filter (fun (m, _) -> m.kind = kind) (all_mutations ()) in
  checkb ("some " ^ kind ^ " mutations") true (ms <> []);
  let missed =
    List.filter_map
      (fun (m, docs) -> if Bench_check.check docs = [] then Some m.what else None)
      ms
  in
  checks (kind ^ " mutations accepted") "" (String.concat "\n" missed)

let named_mutations () =
  let ms = List.map (fun (m, _) -> (m.kind, m.what)) (all_mutations ()) in
  List.iter
    (fun m -> checkb (snd m) true (List.mem m ms))
    [
      ("pinned row", "BENCH_vmspeed.json .current.rows[engine=decode]");
      ( "pin",
        "BENCH_schemes.json \
         .coverage[attack=sub-object-overflow].detected.cguard" );
    ]

(* [v] with the member at [path] replaced by [f] of it *)
let rec update path f v =
  match (path, v) with
  | [], v -> f v
  | k :: rest, Json.Obj kvs ->
      Json.Obj (replace k (update rest f (List.assoc k kvs)) kvs)
  | _ -> Alcotest.failf "no member %s" (String.concat "." path)

(* [side]'s cell of workload [w]'s row, moved by 1 *)
let bump docs (side : Bench_check.side) w =
  let incr = function
    | Json.Num f -> Json.Num (f +. 1.0)
    | _ -> Alcotest.failf "%s: not a number" (String.concat "." side.path)
  in
  let in_row r =
    if Bench_check.selects side w r then update side.path incr r else r
  in
  let rows = function
    | Json.List rs -> Json.List (List.map in_row rs)
    | _ -> Alcotest.failf "%s: not an array" (String.concat "." side.rows)
  in
  (side.art, update side.rows rows (List.assoc side.art docs))
  :: List.remove_assoc side.art docs

let cross_rejects () =
  let docs = committed () in
  checkb "vmspeed cells shared" true
    (List.exists (fun (_, y) -> y.Bench_check.art = "vmspeed") Bench_check.shared);
  List.iter
    (fun (x, y) ->
      List.iter
        (fun (side : Bench_check.side) ->
          let docs' = bump docs side "go" in
          checkb
            (Printf.sprintf "%s.%s moved" side.art (String.concat "." side.path))
            true
            (Bench_check.check docs' <> []))
        [ x; y ])
    Bench_check.shared

let determinism () =
  let v = List.assoc "vmspeed" (committed ()) in
  let set_row f =
    match v with
    | Json.Obj kvs ->
        let cur = List.assoc "current" kvs in
        let rows = Option.get (Json.list_field cur "rows") in
        let row0 = match List.hd rows with Json.Obj r -> r | _ -> assert false in
        let cur =
          match cur with
          | Json.Obj c ->
              Json.Obj (replace "rows" (Json.List (set_nth 0 (Json.Obj (f row0)) rows)) c)
          | c -> c
        in
        Json.Obj (replace "current" cur kvs)
    | v -> v
  in
  let a = Exp_vmspeed.artifact in
  let run other ~jobs = if jobs = 1 then v else other in
  checkb "host timing ignored" true
    (Result.is_ok
       (Bench_check.determinism a
          ~run:(run (set_row (replace "host_seconds" (Json.Num 9.0))))));
  match
    Bench_check.determinism a
      ~run:(run (set_row (replace "sim_cycles" (Json.Num 1.0))))
  with
  | Ok _ -> Alcotest.fail "simulated difference accepted"
  | Error e ->
      checkb e true
        (String.ends_with ~suffix:"differ at .current.rows[0].sim_cycles" e)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_number_roundtrip;
    tc "number spelling" number_spelling;
    tc "pretty and compact layout" layout;
    tc "profile --json escapes its label" profile_label;
    tc "committed artifacts pass bench-check" committed_pass;
    tc "rejects each declared key removed" (rejects "key");
    tc "rejects each row array emptied" (rejects "empty");
    tc "rejects each pinned row dropped" (rejects "pinned row");
    tc "rejects each pinned cell flipped" (rejects "pin");
    tc "mutations include decode rows and the cguard cell" named_mutations;
    tc "rejects each cross-artifact cell moved by 1" cross_rejects;
    tc "determinism drops only host timing" determinism;
  ]
