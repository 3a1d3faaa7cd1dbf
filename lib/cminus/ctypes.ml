(* C type representation and memory layout for MiniC.

   The layout rules mirror a conventional LP64 little-endian target (the
   paper evaluates on 64-bit x86): char/short/int/long are 1/2/4/8 bytes,
   pointers are 8 bytes, structs are padded to field alignment. *)

type ikind =
  | IChar
  | IUChar
  | IShort
  | IUShort
  | IInt
  | IUInt
  | ILong
  | IULong
[@@deriving show { with_path = false }, eq]

type fkind = FFloat | FDouble [@@deriving show { with_path = false }, eq]

type ty =
  | Tvoid
  | Tint of ikind
  | Tfloat of fkind
  | Tptr of ty
  | Tarray of ty * int
  | Tstruct of string
  | Tunion of string
  | Tfunc of fsig
  | Tnamed of string  (** typedef reference; resolved via an {!env} *)

and fsig = { ret : ty; params : ty list; variadic : bool }
[@@deriving show { with_path = false }, eq]

type field = { fname : string; fty : ty; foffset : int }
[@@deriving show { with_path = false }]

type comp = {
  cname : string;
  cstruct : bool;  (** [true] for struct, [false] for union *)
  cfields : field list;
  csize : int;
  calign : int;
}
[@@deriving show { with_path = false }]

(** Type environment: composite (struct/union) definitions, typedefs, and
    enum constants. *)
type env = {
  comps : (string, comp) Hashtbl.t;
  typedefs : (string, ty) Hashtbl.t;
  enums : (string, int64) Hashtbl.t;
}

let create_env () =
  {
    comps = Hashtbl.create 16;
    typedefs = Hashtbl.create 16;
    enums = Hashtbl.create 16;
  }

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

(** Unfold typedef indirections (but not nested ones inside constructors). *)
let rec resolve env ty =
  match ty with
  | Tnamed n -> (
      match Hashtbl.find_opt env.typedefs n with
      | Some t -> resolve env t
      | None -> type_error "unknown typedef %s" n)
  | t -> t

let find_comp env ~is_struct name =
  match Hashtbl.find_opt env.comps name with
  | Some c when c.cstruct = is_struct -> c
  | Some _ ->
      type_error "%s %s used with mismatching struct/union keyword"
        (if is_struct then "struct" else "union")
        name
  | None ->
      type_error "incomplete %s %s"
        (if is_struct then "struct" else "union")
        name

let ikind_size = function
  | IChar | IUChar -> 1
  | IShort | IUShort -> 2
  | IInt | IUInt -> 4
  | ILong | IULong -> 8

let ikind_signed = function
  | IChar | IShort | IInt | ILong -> true
  | IUChar | IUShort | IUInt | IULong -> false

let fkind_size = function FFloat -> 4 | FDouble -> 8
let ptr_size = 8

let rec size_of env ty =
  match resolve env ty with
  | Tvoid -> 1 (* GNU extension: sizeof(void) = 1, eases void* arithmetic *)
  | Tint k -> ikind_size k
  | Tfloat k -> fkind_size k
  | Tptr _ -> ptr_size
  | Tarray (t, n) -> size_of env t * n
  | Tstruct n -> (find_comp env ~is_struct:true n).csize
  | Tunion n -> (find_comp env ~is_struct:false n).csize
  | Tfunc _ -> type_error "sizeof applied to function type"
  | Tnamed _ -> assert false

let rec align_of env ty =
  match resolve env ty with
  | Tvoid -> 1
  | Tint k -> ikind_size k
  | Tfloat k -> fkind_size k
  | Tptr _ -> ptr_size
  | Tarray (t, _) -> align_of env t
  | Tstruct n -> (find_comp env ~is_struct:true n).calign
  | Tunion n -> (find_comp env ~is_struct:false n).calign
  | Tfunc _ -> type_error "alignof applied to function type"
  | Tnamed _ -> assert false

let align_up x a = (x + a - 1) / a * a

(** Compute field offsets / total size and register the composite. *)
let define_comp env ~is_struct name (raw_fields : (string * ty) list) =
  if raw_fields = [] then
    type_error "%s %s has no fields"
      (if is_struct then "struct" else "union")
      name;
  let offset = ref 0 and align = ref 1 in
  let cfields =
    List.map
      (fun (fname, fty) ->
        let fa = align_of env fty and fs = size_of env fty in
        align := max !align fa;
        if is_struct then begin
          offset := align_up !offset fa;
          let f = { fname; fty; foffset = !offset } in
          offset := !offset + fs;
          f
        end
        else begin
          offset := max !offset fs;
          { fname; fty; foffset = 0 }
        end)
      raw_fields
  in
  let csize = align_up !offset !align in
  let comp = { cname = name; cstruct = is_struct; cfields; csize; calign = !align } in
  Hashtbl.replace env.comps name comp;
  comp

let field_of_comp comp fname =
  match List.find_opt (fun f -> f.fname = fname) comp.cfields with
  | Some f -> f
  | None -> type_error "%s %s has no field %s"
              (if comp.cstruct then "struct" else "union")
              comp.cname fname

(** Fields of a struct/union type, or [None] if not composite. *)
let fields_of env ty =
  match resolve env ty with
  | Tstruct n -> Some (find_comp env ~is_struct:true n)
  | Tunion n -> Some (find_comp env ~is_struct:false n)
  | _ -> None

let is_integer env ty =
  match resolve env ty with Tint _ -> true | _ -> false

let is_arith env ty =
  match resolve env ty with Tint _ | Tfloat _ -> true | _ -> false

let is_pointer env ty =
  match resolve env ty with Tptr _ -> true | _ -> false

let is_scalar env ty = is_arith env ty || is_pointer env ty

let is_composite env ty =
  match resolve env ty with Tstruct _ | Tunion _ -> true | _ -> false

(** Does a value of this type contain pointers anywhere inside?  Used by the
    SoftBound transformation for the memcpy heuristic and free-time metadata
    clearing (paper section 5.2). *)
let rec contains_pointer env ty =
  match resolve env ty with
  | Tptr _ -> true
  | Tarray (t, _) -> contains_pointer env t
  | Tstruct _ | Tunion _ ->
      let c = Option.get (fields_of env ty) in
      List.exists (fun f -> contains_pointer env f.fty) c.cfields
  | _ -> false

(** Array-to-pointer and function-to-pointer decay. *)
let decay env ty =
  match resolve env ty with
  | Tarray (t, _) -> Tptr t
  | Tfunc _ as f -> Tptr f
  | t -> t

(** The usual arithmetic conversions (simplified: no int promotion below
    [int]; that matches how MiniC evaluates, all sub-int arithmetic is done
    at [int] width after loads widen). *)
let common_arith env t1 t2 =
  match (resolve env t1, resolve env t2) with
  | Tfloat FDouble, _ | _, Tfloat FDouble -> Tfloat FDouble
  | Tfloat FFloat, _ | _, Tfloat FFloat -> Tfloat FFloat
  | Tint k1, Tint k2 ->
      let rank k = (ikind_size k * 2) + if ikind_signed k then 0 else 1 in
      let k =
        if ikind_size k1 < 4 && ikind_size k2 < 4 then IInt
        else if rank k1 >= rank k2 then k1
        else k2
      in
      let k = if ikind_size k < 4 then IInt else k in
      Tint k
  | _ -> type_error "arithmetic on non-arithmetic types"

let rec string_of_ty ty =
  match ty with
  | Tvoid -> "void"
  | Tint IChar -> "char"
  | Tint IUChar -> "unsigned char"
  | Tint IShort -> "short"
  | Tint IUShort -> "unsigned short"
  | Tint IInt -> "int"
  | Tint IUInt -> "unsigned int"
  | Tint ILong -> "long"
  | Tint IULong -> "unsigned long"
  | Tfloat FFloat -> "float"
  | Tfloat FDouble -> "double"
  | Tptr t -> string_of_ty t ^ "*"
  | Tarray (t, n) -> Printf.sprintf "%s[%d]" (string_of_ty t) n
  | Tstruct n -> "struct " ^ n
  | Tunion n -> "union " ^ n
  | Tfunc { ret; params; variadic } ->
      Printf.sprintf "%s(*)(%s%s)" (string_of_ty ret)
        (String.concat ", " (List.map string_of_ty params))
        (if variadic then ", ..." else "")
  | Tnamed n -> n

(** Structural compatibility after resolving typedefs. *)
let rec compatible env t1 t2 =
  match (resolve env t1, resolve env t2) with
  | Tvoid, Tvoid -> true
  | Tint k1, Tint k2 -> k1 = k2
  | Tfloat k1, Tfloat k2 -> k1 = k2
  | Tptr a, Tptr b ->
      compatible env a b
      || resolve env a = Tvoid
      || resolve env b = Tvoid
  | Tarray (a, n), Tarray (b, m) -> n = m && compatible env a b
  | Tstruct a, Tstruct b | Tunion a, Tunion b -> a = b
  | Tfunc f1, Tfunc f2 ->
      compatible env f1.ret f2.ret
      && f1.variadic = f2.variadic
      && List.length f1.params = List.length f2.params
      && List.for_all2 (compatible env) f1.params f2.params
  | _ -> false
