(* Libc builtins and their SoftBound wrappers.

   The paper (section 5.2, "Separate compilation and library code")
   assumes library functions either get recompiled with SoftBound or are
   reached through checked wrapper functions.  Here every libc entry point
   has two faces:

   - the plain builtin ([strcpy], [malloc], ...): performs the operation
     over simulated memory with *no* checking — overflows silently corrupt
     neighbouring data, exactly like unprotected native code;
   - the wrapper ([_sb_strcpy], ...): receives base/bound metadata for
     every pointer argument (appended, in order, after the regular
     arguments), performs the bounds checks appropriate to the checking
     mode, maintains metadata (e.g. memcpy copies it, free clears it), and
     returns metadata alongside pointer results.

   The wrapper calling convention is derived mechanically from the
   builtin's C prototype, mirroring how the SoftBound transformation
   rewrites call sites. *)

module Ir = Sbir.Ir
open State
module Mem = Machine.Memory
module Cost = Machine.Cost
module C = Cminus.Ctypes

exception Exit_program of int

let dummy_env = C.create_env ()

(* ------------------------------------------------------------------ *)
(* Bulk-access helpers                                                  *)
(* ------------------------------------------------------------------ *)

(** Validity + checker + cache accounting for a byte range. *)
let range_access st addr len ~is_store =
  if len > 0 then begin
    checker_event st (Ev_access { addr; size = len; is_store });
    Mem.check_program_access st.mem addr len;
    let lines = ((len + 63) / 64) + 1 in
    for i = 0 to lines - 1 do
      cache_access st (addr + (i * 64))
    done;
    if is_store then st.stats.mem_writes <- st.stats.mem_writes + 1
    else st.stats.mem_reads <- st.stats.mem_reads + 1
  end

(* ------------------------------------------------------------------ *)
(* Wrapper context                                                      *)
(* ------------------------------------------------------------------ *)

type wctx = { st : t; checked : bool; fname : string }

(** Check a read of [size] bytes — skipped in store-only mode. *)
let check_read w ~ptr ~meta:(b, e) ~size =
  if w.checked && not w.st.cfg.store_only then
    sb_check w.st ~where:w.fname ~ptr ~base:b ~bound:e ~size

(** Check a write of [size] bytes — performed in both modes. *)
let check_write w ~ptr ~meta:(b, e) ~size =
  if w.checked then sb_check w.st ~where:w.fname ~ptr ~base:b ~bound:e ~size

(** strlen that validates each byte against the string's bounds before
    reading it, so an unterminated string traps at its first
    out-of-bounds byte instead of silently scanning adjacent memory.
    Looks at most [limit] bytes and never reads past the terminator. *)
let checked_strnlen w ~ptr ~meta limit =
  let st = w.st in
  let rec go i =
    if i >= limit then i
    else begin
      check_read w ~ptr:(ptr + i) ~meta ~size:1;
      Mem.check_program_access st.mem (ptr + i) 1;
      if Mem.read_byte st.mem (ptr + i) = 0 then i else go (i + 1)
    end
  in
  go 0

let checked_strlen w ~ptr ~meta =
  let cap = 1 lsl 20 in
  let len = checked_strnlen w ~ptr ~meta cap in
  if len >= cap then raise (Trap (Runtime_error "unterminated string"));
  len

(* ------------------------------------------------------------------ *)
(* Varargs access                                                       *)
(* ------------------------------------------------------------------ *)

(** Read vararg slot [i]; checked against the save area's bounds, which
    realizes the paper's vararg decode checking (section 5.2). *)
let va_slot w ~va_ptr ~va_meta i =
  let addr = va_ptr + (8 * i) in
  check_read w ~ptr:addr ~meta:va_meta ~size:8;
  range_access w.st addr 8 ~is_store:false;
  Mem.read_int w.st.mem addr 8

let va_slot_f64 w ~va_ptr ~va_meta i =
  let addr = va_ptr + (8 * i) in
  check_read w ~ptr:addr ~meta:va_meta ~size:8;
  range_access w.st addr 8 ~is_store:false;
  Mem.read_f64 w.st.mem addr

(** Metadata of the pointer stored in vararg slot [i] (a metadata-space
    lookup, like any pointer load). *)
let va_slot_meta w ~va_ptr i =
  if w.checked then meta_load w.st (va_ptr + (8 * i)) else (0, 0)

(* ------------------------------------------------------------------ *)
(* printf-style formatting                                              *)
(* ------------------------------------------------------------------ *)

(** Format [fmt_addr] with varargs, appending output via [put].  Returns
    the number of characters produced. *)
let format_into w ~put ~fmt ~fmt_meta ~va_ptr ~va_meta ~va_count =
  let st = w.st in
  let count = ref 0 in
  let emit c =
    put c;
    incr count
  in
  let emit_str s = String.iter emit s in
  let arg = ref 0 in
  let next_slot () =
    if !arg >= va_count && w.checked then
      raise
        (Trap
           (Bounds_violation
              {
                addr = va_ptr + (8 * !arg);
                base = fst va_meta;
                bound = snd va_meta;
                size = 8;
                where = w.fname ^ " (too many conversions for arguments)";
              }));
    let v = va_slot w ~va_ptr ~va_meta !arg in
    incr arg;
    v
  in
  let next_slot_f64 () =
    let v = va_slot_f64 w ~va_ptr ~va_meta !arg in
    incr arg;
    v
  in
  let i = ref 0 in
  let read_fmt_byte () =
    let a = fmt + !i in
    check_read w ~ptr:a ~meta:fmt_meta ~size:1;
    Mem.check_program_access st.mem a 1;
    Mem.read_byte st.mem a
  in
  let rec loop () =
    let c = read_fmt_byte () in
    if c = 0 then ()
    else begin
      incr i;
      if c <> Char.code '%' then emit (Char.chr c)
      else begin
        (* parse %[flags][width][.prec][l]conv *)
        let spec = Buffer.create 8 in
        Buffer.add_char spec '%';
        let rec scan () =
          let c = read_fmt_byte () in
          if c = 0 then '%'
          else begin
            incr i;
            let ch = Char.chr c in
            match ch with
            | '-' | '0' | '+' | ' ' | '.' | '0' .. '9' ->
                Buffer.add_char spec ch;
                scan ()
            | 'l' -> scan () (* length modifier: all ints are 64-bit here *)
            | c -> c
          end
        in
        let conv = scan () in
        let spec = Buffer.contents spec in
        let safe_int c v =
          try Printf.sprintf (Scanf.format_from_string (spec ^ String.make 1 c) "%d") v
          with _ -> string_of_int v
        in
        let safe_float c v =
          try Printf.sprintf (Scanf.format_from_string (spec ^ String.make 1 c) "%f") v
          with _ -> Printf.sprintf "%g" v
        in
        (match conv with
        | 'd' | 'i' -> emit_str (safe_int 'd' (next_slot ()))
        | 'u' -> emit_str (safe_int 'u' (next_slot ()))
        | 'x' -> emit_str (safe_int 'x' (next_slot ()))
        | 'p' -> emit_str (Printf.sprintf "0x%x" (next_slot ()))
        | 'c' -> emit (Char.chr (next_slot () land 0xff))
        | 'f' | 'e' | 'g' -> emit_str (safe_float conv (next_slot_f64 ()))
        | 's' ->
            let slot = !arg in
            let p = next_slot () in
            let meta = va_slot_meta w ~va_ptr slot in
            (* checked scan: an unterminated %s argument must trap at
               its bound, not print whatever follows in memory *)
            let len = checked_strlen w ~ptr:p ~meta in
            range_access st p (len + 1) ~is_store:false;
            emit_str (Mem.read_cstring st.mem p)
        | '%' -> emit '%'
        | c ->
            emit '%';
            emit c);
        ()
      end;
      if c <> 0 then loop ()
    end
  in
  loop ();
  charge st (Cost.bulk_cost !count);
  !count

(* ------------------------------------------------------------------ *)
(* The builtin implementations                                          *)
(* ------------------------------------------------------------------ *)

let vi v = VI v
let ret0 = []

(* ------------------------------------------------------------------ *)
(* C-style longest-valid-prefix numeric scanning                        *)
(* ------------------------------------------------------------------ *)

(* The conversion family (strtol, atoi, atol, atof) must parse the
   longest valid numeric *prefix* and ignore trailing junk — C
   semantics, not OCaml's whole-string [int_of_string], which returns 0
   for "42abc" and wrongly accepts OCaml-only syntax like "0x2A" (under
   base 10) and "1_000". *)

let is_c_space c = c = ' ' || (c >= '\t' && c <= '\r')

(** [scan_long ~base s] skips leading C whitespace and an optional
    sign, then consumes the longest run of digits valid in [base].
    Returns [(value, consumed)] where [consumed] is the number of bytes
    of [s] eaten including whitespace and sign — or 0 when no digit was
    found, matching strtol's endptr = nptr contract.  [base = 0] keeps
    this interpreter's historical reading (decimal). *)
let scan_long ?(base = 10) (s : string) : int * int =
  let n = String.length s in
  let i = ref 0 in
  while !i < n && is_c_space s.[!i] do incr i done;
  let sign =
    if !i < n && s.[!i] = '-' then (incr i; -1)
    else if !i < n && s.[!i] = '+' then (incr i; 1)
    else 1
  in
  let base = if base = 0 then 10 else base in
  let digit c =
    if c >= '0' && c <= '9' then Char.code c - 48
    else if c >= 'a' && c <= 'z' then Char.code c - 87
    else if c >= 'A' && c <= 'Z' then Char.code c - 55
    else 99
  in
  let acc = ref 0 in
  let start = !i in
  while !i < n && digit s.[!i] < base do
    acc := (!acc * base) + digit s.[!i];
    incr i
  done;
  if !i = start then (0, 0) else (sign * !acc, !i)

(** [scan_double s]: C's strtod shape — whitespace, sign, digits, an
    optional fraction, an optional exponent (consumed only when it has
    at least one digit of its own).  Returns [(value, consumed)], with
    [consumed = 0] when no mantissa digit was found. *)
let scan_double (s : string) : float * int =
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let i = ref 0 in
  while !i < n && is_c_space s.[!i] do incr i done;
  let mstart = !i in
  if !i < n && (s.[!i] = '-' || s.[!i] = '+') then incr i;
  let int_digits = ref 0 in
  while !i < n && is_digit s.[!i] do incr int_digits; incr i done;
  let frac_digits = ref 0 in
  if !i < n && s.[!i] = '.' then begin
    let dot = !i in
    incr i;
    while !i < n && is_digit s.[!i] do incr frac_digits; incr i done;
    (* a bare "." after the integer part is still valid C ("3." = 3.0),
       but "." with no digits on either side is not a number at all *)
    if !int_digits = 0 && !frac_digits = 0 then i := dot
  end;
  if !int_digits = 0 && !frac_digits = 0 then (0.0, 0)
  else begin
    (if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
       let e = !i in
       incr i;
       if !i < n && (s.[!i] = '-' || s.[!i] = '+') then incr i;
       let exp_digits = ref 0 in
       while !i < n && is_digit s.[!i] do incr exp_digits; incr i done;
       if !exp_digits = 0 then i := e
     end);
    (* the consumed slice is built from validated characters only, so
       OCaml's float_of_string cannot reject it or read it differently *)
    (float_of_string (String.sub s mstart (!i - mstart)), !i)
  end

(* ------------------------------------------------------------------ *)
(* Call targets                                                         *)
(* ------------------------------------------------------------------ *)

(* The transformation renames every instrumented function and every libc
   entry point to an [_sb_] form that takes base/bound arguments (paper
   section 5.2).  A callee name is decoded once, into a {!target}, when a
   module image is built; both engines, the wrappers, the
   function-pointer signature check and the adversarial harness read
   that record instead of the name. *)

(** The libc entry points the VM runs itself, because they transfer
    control or call back into the program. *)
type control = Setjmp | Longjmp | Qsort | Bsearch

(** [_sb_free_withmeta] also clears the freed block's metadata;
    [_sb_memcpy_nometa] and [_sb_memmove_nometa] copy no metadata. *)
type variant = Plain | Free_meta | No_meta

type libc = {
  lc_base : string;  (** prototype name: [free] for [_sb_free_withmeta] *)
  lc_variant : variant;
  lc_n_fixed : int;
      (** prototype parameters, plus [va_ptr] and [va_count] when
          variadic; metadata arguments follow these *)
  lc_meta_args : bool array;
      (** per fixed argument: a pointer, whose metadata pair a wrapper
          call appends *)
  lc_sig_hash : int;
      (** {!Ir.sig_hash} of the form called, for the function-pointer
          signature check *)
  lc_control : control option;
}

type kind =
  | Func of int  (** a module function: its index in definition order *)
  | Libc of libc
  | Undefined

type target = { tg_name : string; tg_checked : bool; tg_kind : kind }

(** Split the [_sb_] prefix off a callee name. *)
let split_checked name =
  if String.length name > 4 && String.sub name 0 4 = "_sb_" then
    (true, String.sub name 4 (String.length name - 4))
  else (false, name)

let func_target name index =
  { tg_name = name; tg_checked = fst (split_checked name); tg_kind = Func index }

let libc_of ~checked ~variant base (proto : C.fsig) : libc =
  let kind t =
    match C.resolve dummy_env t with
    | C.Tptr _ | C.Tarray _ | C.Tfunc _ -> Ir.P
    | C.Tfloat C.FFloat -> Ir.F32
    | C.Tfloat C.FDouble -> Ir.F64
    | _ -> Ir.I64
  in
  let fixed =
    List.map kind proto.C.params
    @ if proto.C.variadic then [ Ir.P; Ir.I64 ] else []
  in
  let cargs =
    if checked then
      fixed @ List.concat_map (fun t -> if t = Ir.P then [ Ir.P; Ir.P ] else []) fixed
    else fixed
  in
  let crets =
    match C.resolve dummy_env proto.C.ret with
    | C.Tvoid -> []
    | t -> (
        match kind t with Ir.P when checked -> [ Ir.P; Ir.P; Ir.P ] | t -> [ t ])
  in
  {
    lc_base = base;
    lc_variant = variant;
    lc_n_fixed = List.length fixed;
    lc_meta_args = Array.of_list (List.map (fun t -> t = Ir.P) fixed);
    lc_sig_hash = Ir.sig_hash { Ir.cargs; crets; cvariadic = proto.C.variadic };
    lc_control =
      (match base with
      | "setjmp" -> Some Setjmp
      | "longjmp" -> Some Longjmp
      | "qsort" -> Some Qsort
      | "bsearch" -> Some Bsearch
      | _ -> None);
  }

(** Decode a callee name that no module function answers to: a libc
    entry point, plain or [_sb_] form, or an undefined function. *)
let decode name : target =
  let checked, base = split_checked name in
  let variant, base =
    if not checked then (Plain, base)
    else
      match base with
      | "free_withmeta" -> (Free_meta, "free")
      | "memcpy_nometa" -> (No_meta, "memcpy")
      | "memmove_nometa" -> (No_meta, "memmove")
      | b -> (Plain, b)
  in
  let kind =
    match List.assoc_opt base Cminus.Builtins.functions with
    | Some proto -> Libc (libc_of ~checked ~variant base proto)
    | None -> Undefined
  in
  { tg_name = name; tg_checked = checked; tg_kind = kind }

(** Every libc entry point, plain and [_sb_] form, in prototype order:
    the code addresses that follow a module's own functions.  Decoded
    once per process and shared read-only by every image and domain. *)
let targets : target list =
  List.concat_map
    (fun (n, _) -> [ decode n; decode ("_sb_" ^ n) ])
    Cminus.Builtins.functions

(** malloc and friends *)
let do_malloc w size : int * (int * int) =
  charge w.st Cost.libc_call;
  match Machine.Heap.malloc w.st.heap size with
  | None -> (0, (0, 0))
  | Some a ->
      checker_event w.st (Ev_alloc { base = a; size; kind = AHeap });
      (a, (a, a + size))

let clear_block_meta w addr size =
  (* paper section 5.2, "Memory reuse and stale metadata": clear the
     metadata of pointer-bearing heap blocks before free *)
  if w.checked then begin
    let slots = (size + 7) / 8 in
    for i = 0 to slots - 1 do
      meta_store w.st (addr + (8 * i)) 0 0
    done
  end

let do_free w ?(with_meta = false) ptr =
  charge w.st Cost.libc_call;
  if ptr <> 0 then begin
    (match Machine.Heap.block_size w.st.heap ptr with
    | Some size ->
        if with_meta then clear_block_meta w ptr size;
        checker_event w.st (Ev_free { base = ptr; size; kind = AHeap })
    | None -> ());
    try Machine.Heap.free w.st.heap ptr
    with Machine.Heap.Bad_free a -> raise (Trap (Bad_free a))
  end

let copy_meta_range w ~dst ~src ~len =
  (* copy metadata for every pointer-aligned slot covered by the copy;
     all source slots are snapshotted before the first store — memmove
     ranges may overlap, and an in-place forward copy would reread source
     slots the destination pass already overwrote (Mem.blit gets this
     right for the data; the metadata copy must match) *)
  if w.checked then begin
    let slots = len / 8 in
    let snap = Array.init slots (fun i -> meta_load w.st (src + (8 * i))) in
    Array.iteri (fun i (b, e) -> meta_store w.st (dst + (8 * i)) b e) snap
  end

(** Dispatch a call to the libc target [t].

    For an [_sb_] wrapper, [args] ends with the metadata pairs for each
    pointer argument (including the hidden [va_ptr] of variadic calls).
    Returns the result values — including result metadata when a checked
    builtin returns a pointer. *)
let dispatch st (t : target) (args : value list) : value list =
  let name = t.tg_name and checked = t.tg_checked in
  let l =
    match t.tg_kind with
    | Libc l -> l
    | Func _ | Undefined ->
        raise (Trap (Runtime_error ("unknown builtin " ^ name)))
  in
  let base_name = l.lc_base and variant = l.lc_variant in
  (* split plain args from metadata args *)
  let all = Array.of_list args in
  let n_plain = Int.min l.lc_n_fixed (Array.length all) in
  let n_meta = Array.length all - n_plain in
  let meta_int i =
    match all.(n_plain + i) with
    | VI v -> v
    | VF _ -> raise (Trap (Runtime_error (name ^ ": malformed metadata args")))
  in
  if n_meta land 1 = 1 then
    raise (Trap (Runtime_error (name ^ ": malformed metadata args")));
  for i = 0 to n_meta - 1 do
    ignore (meta_int i)
  done;
  let w = { st; checked; fname = name } in
  let plain_arr = Array.sub all 0 n_plain in
  let int_args = Array.map as_int plain_arr in
  (* bind pointer-arg metadata in order *)
  let metas = Array.make l.lc_n_fixed (0, 0) in
  if checked then begin
    let next = ref 0 in
    Array.iteri
      (fun i is_ptr ->
        if is_ptr then begin
          if !next >= n_meta then
            raise (Trap (Runtime_error (name ^ ": missing metadata args")));
          metas.(i) <- (meta_int !next, meta_int (!next + 1));
          next := !next + 2
        end)
      l.lc_meta_args
  end;
  let meta_of i = metas.(i) in
  let argi i = int_args.(i) in
  let argf i = as_float plain_arr.(i) in
  let ret_ptr v (b, e) = if checked then [ VI v; VI b; VI e ] else [ VI v ] in
  charge st Cost.libc_call;
  match base_name with
  (* ---- allocation ---- *)
  | "malloc" ->
      let p, m = do_malloc w (argi 0) in
      ret_ptr p m
  | "calloc" ->
      let n = argi 0 * argi 1 in
      let p, m = do_malloc w n in
      if p <> 0 then begin
        Mem.fill st.mem p n 0;
        charge st (Cost.bulk_cost n)
      end;
      ret_ptr p m
  | "realloc" ->
      charge st Cost.libc_call;
      let old = argi 0 and size = argi 1 in
      (* same containment discipline as free for the retiring pointer *)
      if old <> 0 then check_write w ~ptr:old ~meta:(meta_of 0) ~size:0;
      (try
         (* the old size must be read before [Heap.realloc] retires the
            block, or the checkers' free event is silently skipped *)
         let old_size =
           if old = 0 then None else Machine.Heap.block_size st.heap old
         in
         match Machine.Heap.realloc st.heap old size with
         | None -> ret_ptr 0 (0, 0)
         | Some a ->
             (match old_size with
             | Some osz ->
                 checker_event st (Ev_free { base = old; size = osz; kind = AHeap })
             | None -> ());
             checker_event st (Ev_alloc { base = a; size; kind = AHeap });
             (* metadata moves with the contents (already in place when
                the block was resized in place) *)
             (match old_size with
             | Some osz when w.checked && a <> old ->
                 copy_meta_range w ~dst:a ~src:old ~len:(Int.min osz size)
             | _ -> ());
             ret_ptr a (a, a + size)
       with Machine.Heap.Bad_free a -> raise (Trap (Bad_free a)))
  | "free" ->
      let p = argi 0 in
      (* the pointer handed to free must sit within its own metadata
         bounds (size-0 containment check): a forged pointer carrying
         unrelated metadata cannot retire somebody else's live block *)
      if p <> 0 then check_write w ~ptr:p ~meta:(meta_of 0) ~size:0;
      do_free w ~with_meta:(variant = Free_meta) p;
      ret0
  (* ---- memory ---- *)
  | "memcpy" | "memmove" ->
      let dst = argi 0 and src = argi 1 and len = argi 2 in
      (* "the source and targets of the memcpy are checked for bounds
         safety once at the start of the copy" (section 5.2) *)
      check_write w ~ptr:dst ~meta:(meta_of 0) ~size:len;
      check_read w ~ptr:src ~meta:(meta_of 1) ~size:len;
      range_access st src len ~is_store:false;
      range_access st dst len ~is_store:true;
      Mem.blit st.mem ~src ~dst ~len;
      charge st (Cost.bulk_cost len);
      if variant <> No_meta then copy_meta_range w ~dst ~src ~len;
      ret_ptr dst (meta_of 0)
  | "memset" ->
      let dst = argi 0 and v = argi 1 and len = argi 2 in
      check_write w ~ptr:dst ~meta:(meta_of 0) ~size:len;
      range_access st dst len ~is_store:true;
      Mem.fill st.mem dst len v;
      charge st (Cost.bulk_cost len);
      ret_ptr dst (meta_of 0)
  | "memcmp" ->
      let a = argi 0 and b = argi 1 and len = argi 2 in
      check_read w ~ptr:a ~meta:(meta_of 0) ~size:len;
      check_read w ~ptr:b ~meta:(meta_of 1) ~size:len;
      range_access st a len ~is_store:false;
      range_access st b len ~is_store:false;
      charge st (Cost.bulk_cost len);
      let rec go i =
        if i >= len then 0
        else
          let x = Mem.read_byte st.mem (a + i)
          and y = Mem.read_byte st.mem (b + i) in
          if x <> y then compare x y else go (i + 1)
      in
      [ vi (go 0) ]
  (* ---- strings ---- *)
  | "strlen" ->
      let p = argi 0 in
      (* checked scan: an unterminated string traps at its bound instead
         of measuring whatever lies beyond it *)
      let len = checked_strlen w ~ptr:p ~meta:(meta_of 0) in
      range_access st p (len + 1) ~is_store:false;
      charge st (Cost.bulk_cost len);
      [ vi len ]
  | "strcpy" ->
      let dst = argi 0 and src = argi 1 in
      let len = checked_strlen w ~ptr:src ~meta:(meta_of 1) in
      check_write w ~ptr:dst ~meta:(meta_of 0) ~size:(len + 1);
      range_access st src (len + 1) ~is_store:false;
      range_access st dst (len + 1) ~is_store:true;
      Mem.blit st.mem ~src ~dst ~len:(len + 1);
      charge st (Cost.bulk_cost (len + 1));
      ret_ptr dst (meta_of 0)
  | "strncpy" ->
      let dst = argi 0 and src = argi 1 and n = Int.max (argi 2) 0 in
      (* bounded scan: strncpy reads min(strlen+1, n) source bytes and
         must not look past either [n] or the source's bounds — the old
         unbounded scan read past both, and the read check also missed
         the terminator byte when the string is shorter than [n] *)
      let len = checked_strnlen w ~ptr:src ~meta:(meta_of 1) n in
      if n > 0 then check_write w ~ptr:dst ~meta:(meta_of 0) ~size:n;
      range_access st src (Int.min (len + 1) n) ~is_store:false;
      range_access st dst n ~is_store:true;
      Mem.blit st.mem ~src ~dst ~len;
      if len < n then Mem.fill st.mem (dst + len) (n - len) 0;
      charge st (Cost.bulk_cost n);
      ret_ptr dst (meta_of 0)
  | "strcat" ->
      let dst = argi 0 and src = argi 1 in
      (* the dst-prefix scan reads program memory, so it is checked:
         an unterminated dst traps at its bound instead of scanning
         whatever lies beyond it *)
      let dlen = checked_strlen w ~ptr:dst ~meta:(meta_of 0) in
      let slen = checked_strlen w ~ptr:src ~meta:(meta_of 1) in
      check_write w ~ptr:dst ~meta:(meta_of 0) ~size:(dlen + slen + 1);
      range_access st dst (dlen + 1) ~is_store:false;
      range_access st src (slen + 1) ~is_store:false;
      range_access st (dst + dlen) (slen + 1) ~is_store:true;
      Mem.blit st.mem ~src ~dst:(dst + dlen) ~len:(slen + 1);
      charge st (Cost.bulk_cost (dlen + slen + 1));
      ret_ptr dst (meta_of 0)
  | "strncat" ->
      let dst = argi 0 and src = argi 1 and n = Int.max (argi 2) 0 in
      let dlen = checked_strlen w ~ptr:dst ~meta:(meta_of 0) in
      let slen = checked_strnlen w ~ptr:src ~meta:(meta_of 1) n in
      check_write w ~ptr:dst ~meta:(meta_of 0) ~size:(dlen + slen + 1);
      range_access st dst (dlen + 1) ~is_store:false;
      range_access st src (Int.min (slen + 1) n) ~is_store:false;
      range_access st (dst + dlen) (slen + 1) ~is_store:true;
      Mem.blit st.mem ~src ~dst:(dst + dlen) ~len:slen;
      Mem.write_byte st.mem (dst + dlen + slen) 0;
      charge st (Cost.bulk_cost (dlen + slen + 1));
      ret_ptr dst (meta_of 0)
  | "strcmp" | "strncmp" ->
      let a = argi 0 and b = argi 1 in
      let limit = if base_name = "strncmp" then Int.max (argi 2) 0 else max_int in
      (* bounded checked scans: neither operand is read past its bounds,
         and strncmp never looks past [limit] — a short compare over an
         unterminated buffer is well-defined, not a scan of what follows *)
      let scan ptr meta =
        if base_name = "strncmp" then checked_strnlen w ~ptr ~meta limit
        else checked_strlen w ~ptr ~meta
      in
      let la = scan a (meta_of 0) in
      let lb = scan b (meta_of 1) in
      range_access st a (Int.min (la + 1) limit) ~is_store:false;
      range_access st b (Int.min (lb + 1) limit) ~is_store:false;
      charge st (Cost.bulk_cost (Int.min (la + 1) limit));
      let rec go i =
        if i >= limit then 0
        else
          let x = Mem.read_byte st.mem (a + i)
          and y = Mem.read_byte st.mem (b + i) in
          if x <> y then compare x y else if x = 0 then 0 else go (i + 1)
      in
      [ vi (go 0) ]
  | "strchr" ->
      let p = argi 0 and c = argi 1 land 0xff in
      let len = checked_strlen w ~ptr:p ~meta:(meta_of 0) in
      range_access st p (len + 1) ~is_store:false;
      charge st (Cost.bulk_cost len);
      let rec go i =
        if i > len then 0
        else if Mem.read_byte st.mem (p + i) = c then p + i
        else go (i + 1)
      in
      let r = go 0 in
      ret_ptr r (if r = 0 then (0, 0) else meta_of 0)
  | "strstr" ->
      let hay = argi 0 and needle = argi 1 in
      (* both operands get a checked scan before any byte is fetched *)
      let _ = checked_strlen w ~ptr:hay ~meta:(meta_of 0) in
      let _ = checked_strlen w ~ptr:needle ~meta:(meta_of 1) in
      let hs = Mem.read_cstring st.mem hay in
      let ns = Mem.read_cstring st.mem needle in
      range_access st hay (String.length hs + 1) ~is_store:false;
      charge st (Cost.bulk_cost (String.length hs));
      let r =
        if ns = "" then hay
        else begin
          let found = ref 0 in
          (try
             for i = 0 to String.length hs - String.length ns do
               if String.sub hs i (String.length ns) = ns then begin
                 found := hay + i;
                 raise Stdlib.Exit
               end
             done
           with Stdlib.Exit -> ());
          !found
        end
      in
      ret_ptr r (if r = 0 then (0, 0) else meta_of 0)
  | "strdup" ->
      let p = argi 0 in
      let len = checked_strlen w ~ptr:p ~meta:(meta_of 0) in
      range_access st p (len + 1) ~is_store:false;
      let a, m = do_malloc w (len + 1) in
      if a <> 0 then begin
        Mem.blit st.mem ~src:p ~dst:a ~len:(len + 1);
        charge st (Cost.bulk_cost (len + 1))
      end;
      ret_ptr a m
  (* ---- ctype ---- *)
  | "toupper" ->
      let c = argi 0 in
      [ vi (if c >= 97 && c <= 122 then c - 32 else c) ]
  | "tolower" ->
      let c = argi 0 in
      [ vi (if c >= 65 && c <= 90 then c + 32 else c) ]
  | "isdigit" -> [ vi (if argi 0 >= 48 && argi 0 <= 57 then 1 else 0) ]
  | "isalpha" ->
      let c = argi 0 in
      [ vi (if (c >= 65 && c <= 90) || (c >= 97 && c <= 122) then 1 else 0) ]
  | "isspace" ->
      let c = argi 0 in
      [ vi (if c = 32 || (c >= 9 && c <= 13) then 1 else 0) ]
  | "isupper" -> [ vi (if argi 0 >= 65 && argi 0 <= 90 then 1 else 0) ]
  | "islower" -> [ vi (if argi 0 >= 97 && argi 0 <= 122 then 1 else 0) ]
  | "strrchr" ->
      let p = argi 0 and c = argi 1 land 0xff in
      let len = checked_strlen w ~ptr:p ~meta:(meta_of 0) in
      range_access st p (len + 1) ~is_store:false;
      charge st (Cost.bulk_cost len);
      let r = ref 0 in
      for i = 0 to len do
        if Mem.read_byte st.mem (p + i) = c then r := p + i
      done;
      ret_ptr !r (if !r = 0 then (0, 0) else meta_of 0)
  | "memchr" ->
      let p = argi 0 and c = argi 1 land 0xff and n = argi 2 in
      check_read w ~ptr:p ~meta:(meta_of 0) ~size:n;
      range_access st p n ~is_store:false;
      charge st (Cost.bulk_cost n);
      let r = ref 0 in
      (try
         for i = 0 to n - 1 do
           if Mem.read_byte st.mem (p + i) = c then begin
             r := p + i;
             raise Stdlib.Exit
           end
         done
       with Stdlib.Exit -> ());
      ret_ptr !r (if !r = 0 then (0, 0) else meta_of 0)
  | "strtol" ->
      let p = argi 0 and endp = argi 1 and base = argi 2 in
      let len = checked_strlen w ~ptr:p ~meta:(meta_of 0) in
      range_access st p (len + 1) ~is_store:false;
      let s = Mem.read_cstring st.mem p in
      let v, consumed = scan_long ~base s in
      if endp <> 0 then begin
        let tail = p + consumed in
        check_write w ~ptr:endp ~meta:(meta_of 1) ~size:8;
        range_access st endp 8 ~is_store:true;
        Mem.write_int st.mem endp 8 tail;
        (* the stored end pointer derives from the input string: its
           metadata is the string's (a pointer store updates the table) *)
        if w.checked then
          meta_store st endp (fst (meta_of 0)) (snd (meta_of 0))
      end;
      [ vi v ]
  (* ---- conversion ---- *)
  | "atoi" | "atol" ->
      (* same longest-valid-prefix scan as strtol(s, NULL, 10):
         atoi("42abc") = 42, atoi("0x2A") = 0, atoi("1_000") = 1 *)
      let p = argi 0 in
      let len = checked_strlen w ~ptr:p ~meta:(meta_of 0) in
      range_access st p (len + 1) ~is_store:false;
      let s = Mem.read_cstring st.mem p in
      let v, _ = scan_long s in
      [ vi v ]
  | "atof" ->
      let p = argi 0 in
      let len = checked_strlen w ~ptr:p ~meta:(meta_of 0) in
      range_access st p (len + 1) ~is_store:false;
      let s = Mem.read_cstring st.mem p in
      let v, _ = scan_double s in
      [ VF v ]
  (* ---- io ---- *)
  | "printf" ->
      let fmt = argi 0 and va_ptr = argi 1 and va_count = argi 2 in
      let n =
        format_into w
          ~put:(fun c -> State.output_char st c)
          ~fmt ~fmt_meta:(meta_of 0) ~va_ptr ~va_meta:(meta_of 1) ~va_count
      in
      [ vi n ]
  | "sprintf" ->
      let dst = argi 0 and fmt = argi 1 in
      let va_ptr = argi 2 and va_count = argi 3 in
      let pos = ref 0 in
      let dmeta = meta_of 0 in
      let n =
        format_into w
          ~put:(fun c ->
            check_write w ~ptr:(dst + !pos) ~meta:dmeta ~size:1;
            Mem.check_program_access st.mem (dst + !pos) 1;
            Mem.write_byte st.mem (dst + !pos) (Char.code c);
            incr pos)
          ~fmt ~fmt_meta:(meta_of 1) ~va_ptr ~va_meta:(meta_of 2) ~va_count
      in
      check_write w ~ptr:(dst + !pos) ~meta:dmeta ~size:1;
      Mem.check_program_access st.mem (dst + !pos) 1;
      Mem.write_byte st.mem (dst + !pos) 0;
      range_access st dst (n + 1) ~is_store:true;
      [ vi n ]
  | "snprintf" ->
      let dst = argi 0 and cap = argi 1 and fmt = argi 2 in
      let va_ptr = argi 3 and va_count = argi 4 in
      let pos = ref 0 in
      let dmeta = meta_of 0 in
      let n =
        format_into w
          ~put:(fun c ->
            if !pos < cap - 1 then begin
              check_write w ~ptr:(dst + !pos) ~meta:dmeta ~size:1;
              Mem.check_program_access st.mem (dst + !pos) 1;
              Mem.write_byte st.mem (dst + !pos) (Char.code c);
              incr pos
            end)
          ~fmt ~fmt_meta:(meta_of 2) ~va_ptr ~va_meta:(meta_of 3) ~va_count
      in
      if cap > 0 then begin
        check_write w ~ptr:(dst + !pos) ~meta:dmeta ~size:1;
        Mem.check_program_access st.mem (dst + !pos) 1;
        Mem.write_byte st.mem (dst + !pos) 0
      end;
      [ vi n ]
  | "puts" ->
      let p = argi 0 in
      let len = checked_strlen w ~ptr:p ~meta:(meta_of 0) in
      range_access st p (len + 1) ~is_store:false;
      State.output_string st (Mem.read_cstring st.mem p);
      State.output_char st '\n';
      charge st (Cost.bulk_cost len);
      [ vi (len + 1) ]
  | "putchar" ->
      State.output_char st (Char.chr (argi 0 land 0xff));
      [ vi (argi 0) ]
  | "getchar" -> [ vi (-1) ]
  | "sim_recv" -> (
      let buf = argi 0 and cap = argi 1 in
      match State.next_input_line st with
      | None -> [ vi (-1) ]
      | Some line ->
          let n = Int.min (String.length line) (Int.max 0 (cap - 1)) in
          check_write w ~ptr:buf ~meta:(meta_of 0) ~size:(n + 1);
          range_access st buf (n + 1) ~is_store:true;
          Mem.write_string st.mem buf (String.sub line 0 n);
          Mem.write_byte st.mem (buf + n) 0;
          charge st (Cost.bulk_cost n);
          [ vi n ])
  | "sim_send" ->
      let buf = argi 0 and n = argi 1 in
      check_read w ~ptr:buf ~meta:(meta_of 0) ~size:n;
      range_access st buf n ~is_store:false;
      for i = 0 to n - 1 do
        State.output_char st (Char.chr (Mem.read_byte st.mem (buf + i)))
      done;
      charge st (Cost.bulk_cost n);
      [ vi n ]
  (* ---- misc ---- *)
  | "rand" -> [ vi (State.rand st) ]
  | "srand" ->
      State.srand st (argi 0);
      ret0
  | "exit" -> raise (Exit_program (argi 0))
  | "abort" -> raise (Trap (Runtime_error "abort() called"))
  | "assert" ->
      if argi 0 = 0 then raise (Trap (Runtime_error "assertion failed"));
      ret0
  | "abs" | "labs" -> [ vi (abs (argi 0)) ]
  (* ---- math (hardware latency, not a library-call cost) ---- *)
  | "sqrt" -> charge st Cost.math_fn; [ VF (sqrt (argf 0)) ]
  | "fabs" -> [ VF (Float.abs (argf 0)) ]
  | "pow" -> charge st (2 * Cost.math_fn); [ VF (Float.pow (argf 0) (argf 1)) ]
  | "sin" -> charge st (2 * Cost.math_fn); [ VF (sin (argf 0)) ]
  | "cos" -> charge st (2 * Cost.math_fn); [ VF (cos (argf 0)) ]
  | "exp" -> charge st (2 * Cost.math_fn); [ VF (exp (argf 0)) ]
  | "log" -> charge st (2 * Cost.math_fn); [ VF (log (argf 0)) ]
  | "floor" -> [ VF (Float.floor (argf 0)) ]
  | "ceil" -> [ VF (Float.ceil (argf 0)) ]
  | "attack_success" ->
      raise (Trap (Hijack "attack payload executed"))
  | "setbound" ->
      (* plain (untransformed) setbound is a no-op *)
      ret0
  | other ->
      raise (Trap (Runtime_error ("builtin not implemented: " ^ other)))
