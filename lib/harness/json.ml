(* Minimal JSON: a recursive-descent parser and one deterministic
   printer.

   Shared by every harness component that speaks JSON: the committed
   BENCH_*.json artifacts and [profile --json] (built as [t], printed by
   [pretty], validated against their {!Artifact} declarations) and the
   [serve] protocol (one request and one response object per line,
   printed by [to_string]).  No external dependency: the toolchain image
   carries no JSON library, and the subset needed here — objects,
   arrays, strings, numbers, booleans, null — is small enough to keep in
   one file.

   Both printing forms share escaping and number spelling and differ
   only in layout.  Keys print in the order the caller lists them,
   integral numbers print without a fractional part, other numbers in
   the shortest form that reads back as the same float, and strings
   escape exactly the characters the parser understands — so a
   parse/print round trip of printer output is the identity. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

(* ------------------------------------------------------------------ *)
(* Parsing                                                              *)
(* ------------------------------------------------------------------ *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\255' in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws ()
    | _ -> ()
  in
  let expect c =
    if peek () = c then advance ()
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance (); Buffer.contents b
      | '\\' -> (
          advance ();
          let c = peek () in
          advance ();
          match c with
          | 'n' -> Buffer.add_char b '\n'; go ()
          | 't' -> Buffer.add_char b '\t'; go ()
          | 'r' -> Buffer.add_char b '\r'; go ()
          | 'b' -> Buffer.add_char b '\b'; go ()
          | 'f' -> Buffer.add_char b '\012'; go ()
          | 'u' -> (
              (* decode ASCII code points; keep other escapes verbatim *)
              let hex = String.sub s !pos (min 4 (n - !pos)) in
              match int_of_string_opt ("0x" ^ hex) with
              | Some c when c < 0x80 && String.length hex = 4 ->
                  pos := !pos + 4; Buffer.add_char b (Char.chr c); go ()
              | _ -> Buffer.add_string b "\\u"; go ())
          | c -> Buffer.add_char b c; go ())
      | '\255' -> fail "unterminated string"
      | c -> advance (); Buffer.add_char b c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num c =
      (c >= '0' && c <= '9')
      || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
    in
    while is_num (peek ()) do advance () done;
    let lit = String.sub s start (!pos - start) in
    match float_of_string_opt lit with
    | Some f -> Num f
    | None -> fail ("bad number " ^ lit)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then (advance (); Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((k, v) :: acc)
            | '}' -> advance (); Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } in object"
          in
          members []
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then (advance (); List [])
        else
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); elements (v :: acc)
            | ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ] in array"
          in
          elements []
    | '"' -> Str (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | c when c = '-' || (c >= '0' && c <= '9') -> parse_number ()
    | _ -> fail "unexpected character"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

(* ------------------------------------------------------------------ *)
(* Emission                                                             *)
(* ------------------------------------------------------------------ *)

let escape (s : string) : string =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(** Integral values print without a fractional part; anything else in
    the shortest of [%.15g], [%.16g], [%.17g] that reads back as the same
    float, so [parse (to_string (Num f)) = Num f] for every finite [f]. *)
let number_string (f : float) : string =
  if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
  else
    let rec shortest p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else shortest (p + 1)
    in
    shortest 15

let is_scalar = function List _ | Obj _ -> false | _ -> true

(* The one printer.  [compact]: a single line without spaces, the
   [serve] protocol's row form.  Otherwise the document form: an object
   or array whose members are all scalars prints on one line as
   [{ "k": v, ... }] / [[v, ...]], anything else one member per line,
   indented two spaces per level, and the text ends with a newline. *)
let print ~compact (v : t) : string =
  let b = Buffer.create 256 in
  let add = Buffer.add_string b in
  let str s = Buffer.add_char b '"'; add (escape s); Buffer.add_char b '"' in
  let colon = if compact then ":" else ": " in
  let rec emit ind = function
    | Null -> add "null"
    | Bool x -> add (if x then "true" else "false")
    | Num f -> add (number_string f)
    | Str s -> str s
    | List vs ->
        seq ind (compact || List.for_all is_scalar vs) "[" "]" ""
          (emit (ind + 2)) vs
    | Obj kvs ->
        seq ind
          (compact || List.for_all (fun (_, v) -> is_scalar v) kvs)
          "{" "}" (if compact then "" else " ")
          (fun (k, v) -> str k; add colon; emit (ind + 2) v)
          kvs
  and seq : 'a. int -> bool -> string -> string -> string -> ('a -> unit) ->
      'a list -> unit =
   fun ind flat opening closing inner each xs ->
    add opening;
    if xs <> [] then begin
      let nl = if flat then inner else "\n" ^ String.make (ind + 2) ' ' in
      let sep = if compact then "," else if flat then ", " else "," ^ nl in
      add nl;
      List.iteri (fun i x -> if i > 0 then add sep; each x) xs;
      add (if flat then inner else "\n" ^ String.make ind ' ')
    end;
    add closing
  in
  emit 0 v;
  if not compact then add "\n";
  Buffer.contents b

(** Compact single-line form: the [serve] protocol's one row per line. *)
let to_string (v : t) : string = print ~compact:true v

(** Document form: every committed artifact and [profile --json]. *)
let pretty (v : t) : string = print ~compact:false v

(* ------------------------------------------------------------------ *)
(* Accessors                                                            *)
(* ------------------------------------------------------------------ *)

let field (v : t) (k : string) : t option =
  match v with Obj kvs -> List.assoc_opt k kvs | _ -> None

let str_field v k =
  match field v k with Some (Str s) -> Some s | _ -> None

let num_field v k =
  match field v k with Some (Num f) -> Some f | _ -> None

let int_field v k = Option.map int_of_float (num_field v k)

let bool_field v k =
  match field v k with Some (Bool b) -> Some b | _ -> None

let list_field v k =
  match field v k with Some (List vs) -> Some vs | _ -> None

(** Convenience constructors for row emission. *)
let int (n : int) : t = Num (float_of_int n)

let str (s : string) : t = Str s

(** Integer members, for records of counts. *)
let ints (kvs : (string * int) list) : (string * t) list =
  List.map (fun (k, n) -> (k, int n)) kvs

(** [x] rounded to [n] decimals, exactly as [%.nf] prints it. *)
let decimals (n : int) (x : float) : t =
  Num (float_of_string (Printf.sprintf "%.*f" n x))

(** [x] rounded to [n] significant digits, exactly as [%.(n-1)e]
    prints it. *)
let sig_digits (n : int) (x : float) : t =
  Num (float_of_string (Printf.sprintf "%.*e" (n - 1) x))

let ms (seconds : float) : t = Num (Float.round (seconds *. 1e6) /. 1e3)
