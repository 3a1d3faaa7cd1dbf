(* Declarations of the committed machine-readable artifacts.

   Each experiment that writes a BENCH_<name>.json declares the
   artifact's shape once, next to its emitter: the experiment tag, the
   required keys and row arrays (as a [shape]), and the fields whose
   values depend on host timing.  That one declaration is read by
   [bench-check] ({!Bench_check.run}), by the validator tests, and by
   [experiments determinism <name>], which drops the host-timing fields
   and compares two runs' trees. *)

type shape =
  | Any
  | Num
  | Bool
  | Str
  | Is of Json.t  (** exactly this value *)
  | Fields of (string * shape) list  (** an object carrying these keys *)
  | Each of shape  (** a non-empty object; every member matches *)
  | Rows of shape  (** a non-empty array; every element matches *)
  | Table of string * (string * shape) list * shape
      (** [Table (key, pinned, row)]: [Rows row], and for every [(v, s)]
          in [pinned] some row whose [key] is [v] also matches [s] *)

type t = {
  name : string;  (** experiment id; the file is BENCH_<name>.json *)
  tag : string;  (** value of the artifact's "experiment" field *)
  fields : (string * shape) list;
      (** besides "experiment" and "host_cpus", which every artifact has *)
  host_timing : string list;
      (** keys, at any depth, whose values vary with host time *)
}

let file (a : t) = "BENCH_" ^ a.name ^ ".json"

(** Every artifact records the host parallelism it was produced with —
    the context for any wall-clock or jobs-scaling figure in it. *)
let shape (a : t) : shape =
  Fields (("experiment", Is (Json.Str a.tag)) :: ("host_cpus", Num) :: a.fields)

(** The artifact's top-level array of named rows — its first [Rows]
    field ("kernels" for elim, "workloads" for breakdown and schemes) —
    if it has one. *)
let row_array (a : t) : string option =
  List.find_map (function k, Rows _ -> Some k | _ -> None) a.fields

(** Members that all hold numbers: the common row record. *)
let nums keys = List.map (fun k -> (k, Num)) keys

(** The artifact's document: its tag and the host width, then [fields]. *)
let document (a : t) (fields : (string * Json.t) list) : Json.t =
  Json.Obj
    (("experiment", Json.Str a.tag)
    :: ("host_cpus", Json.int (Parutil.available_jobs ()))
    :: fields)

let rec check (path : string) (s : shape) (v : Json.t) (errs : string list) :
    string list =
  let bad msg = Printf.sprintf "%s: %s" (if path = "" then "." else path) msg in
  let at k = path ^ "." ^ k in
  let rows row vs errs =
    let row_at (i, errs) v =
      (i + 1, check (Printf.sprintf "%s[%d]" path i) row v errs)
    in
    snd (List.fold_left row_at (0, errs) vs)
  in
  match (s, v) with
  | Any, _ | Num, Json.Num _ | Bool, Json.Bool _ | Str, Json.Str _ -> errs
  | Is want, v when v = want -> errs
  | Is want, _ -> bad ("should be " ^ Json.to_string want) :: errs
  | Fields fs, Json.Obj _ ->
      List.fold_left
        (fun errs (k, s) ->
          match Json.field v k with
          | Some x -> check (at k) s x errs
          | None -> bad (Printf.sprintf "missing key %S" k) :: errs)
        errs fs
  | Each s, Json.Obj (_ :: _ as kvs) ->
      List.fold_left (fun errs (k, x) -> check (at k) s x errs) errs kvs
  | (Rows _ | Table _), Json.List [] | Each _, Json.Obj [] ->
      bad "is empty" :: errs
  | Rows row, Json.List vs -> rows row vs errs
  | Table (key, pinned, row), Json.List vs ->
      List.fold_left
        (fun errs (want, s) ->
          let keyed r = Json.str_field r key = Some want in
          match List.find_opt keyed vs with
          | Some r -> check (Printf.sprintf "%s[%s=%s]" path key want) s r errs
          | None -> bad (Printf.sprintf "no row with %s %S" key want) :: errs)
        (rows row vs errs) pinned
  | _, _ ->
      let kind =
        match s with
        | Num -> "a number"
        | Bool -> "a bool"
        | Str -> "a string"
        | Fields _ | Each _ -> "an object"
        | _ -> "an array"
      in
      bad ("is not " ^ kind) :: errs

(** Every violation of [a]'s declaration in [v], as "path: problem". *)
let validate (a : t) (v : Json.t) : string list =
  List.rev (check "" (shape a) v [])

(** [v] without the members named in [keys], at any depth. *)
let rec drop (keys : string list) (v : Json.t) : Json.t =
  match v with
  | Json.Obj kvs ->
      let keep (k, x) = if List.mem k keys then None else Some (k, drop keys x) in
      Json.Obj (List.filter_map keep kvs)
  | Json.List vs -> Json.List (List.map (drop keys) vs)
  | v -> v

(** The path of the first place two trees differ, if any. *)
let rec first_diff (path : string) (a : Json.t) (b : Json.t) : string option =
  let here = if path = "" then "." else path in
  match (a, b) with
  | Json.Obj xs, Json.Obj ys when List.map fst xs = List.map fst ys ->
      List.find_map (fun ((k, x), (_, y)) -> first_diff (path ^ "." ^ k) x y)
        (List.combine xs ys)
  | Json.List xs, Json.List ys when List.length xs = List.length ys ->
      List.combine xs ys
      |> List.mapi (fun i (x, y) ->
             first_diff (Printf.sprintf "%s[%d]" path i) x y)
      |> List.find_map Fun.id
  | a, b -> if a = b then None else Some here

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file (path : string) (v : Json.t) : unit =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (Json.pretty v))
