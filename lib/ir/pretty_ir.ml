(* Human-readable IR dump, for debugging and golden tests. *)

open Ir

let str_ity = function
  | I8 -> "i8" | U8 -> "u8" | I16 -> "i16" | U16 -> "u16"
  | I32 -> "i32" | U32 -> "u32" | I64 -> "i64" | U64 -> "u64"
  | F32 -> "f32" | F64 -> "f64" | P -> "ptr"

let str_op = function
  | Reg r -> Printf.sprintf "%%r%d" r
  | ImmI i -> string_of_int i
  | ImmF f -> Printf.sprintf "%g" f
  | Glob g -> "@" ^ g
  | GlobEnd g -> "@end." ^ g
  | Func f -> "@fn." ^ f

let str_binop = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | And -> "and" | Or -> "or" | Xor -> "xor" | Shl -> "shl" | Shr -> "shr"

let str_cmpop = function
  | Ceq -> "eq" | Cne -> "ne" | Clt -> "lt" | Cle -> "le" | Cgt -> "gt"
  | Cge -> "ge"

let str_inst = function
  | Mov (r, t, o) ->
      Printf.sprintf "%%r%d = mov.%s %s" r (str_ity t) (str_op o)
  | Bin (r, op, t, a, b) ->
      Printf.sprintf "%%r%d = %s.%s %s, %s" r (str_binop op) (str_ity t)
        (str_op a) (str_op b)
  | Cmp (r, op, t, a, b) ->
      Printf.sprintf "%%r%d = cmp.%s.%s %s, %s" r (str_cmpop op) (str_ity t)
        (str_op a) (str_op b)
  | Cast (r, to_, from_, o) ->
      Printf.sprintf "%%r%d = cast.%s<-%s %s" r (str_ity to_) (str_ity from_)
        (str_op o)
  | Load (r, t, a) ->
      Printf.sprintf "%%r%d = load.%s [%s]" r (str_ity t) (str_op a)
  | Store (t, a, v) ->
      Printf.sprintf "store.%s [%s], %s" (str_ity t) (str_op a) (str_op v)
  | Gep (r, b, o, shrink) ->
      Printf.sprintf "%%r%d = gep %s + %s%s" r (str_op b) (str_op o)
        (match shrink with
        | None -> ""
        | Some s -> Printf.sprintf " !shrink(%d)" s)
  | Slotaddr (r, s) -> Printf.sprintf "%%r%d = slotaddr %d" r s
  | Call { rets; callee; args; _ } ->
      let rets_s =
        match rets with
        | [] -> ""
        | rs ->
            String.concat ", " (List.map (Printf.sprintf "%%r%d") rs) ^ " = "
      in
      Printf.sprintf "%scall %s(%s)" rets_s (str_op callee)
        (String.concat ", " (List.map str_op args))
  | SetBoundMark (a, n) ->
      Printf.sprintf "setbound.mark [%s], %s" (str_op a) (str_op n)
  | Check (p, b, e, sz, site) ->
      Printf.sprintf "check %s in [%s, %s) size %d !site(%d)" (str_op p)
        (str_op b) (str_op e) sz site
  | CheckFptr (p, b, e, h, site) ->
      Printf.sprintf "check.fptr %s meta [%s, %s)%s !site(%d)" (str_op p)
        (str_op b) (str_op e)
        (match h with None -> "" | Some h -> Printf.sprintf " !sig(%x)" h)
        site
  | MetaLoad (rb, re, a, site) ->
      Printf.sprintf "%%r%d, %%r%d = meta.load [%s] !site(%d)" rb re (str_op a)
        site
  | MetaStore (a, b, e, site) ->
      Printf.sprintf "meta.store [%s] <- (%s, %s) !site(%d)" (str_op a)
        (str_op b) (str_op e) site
  | CheckSpan sp ->
      Printf.sprintf
        "check.span %s count %s stride %d width %d in [%s, %s) !site(%d)%s"
        (str_op sp.sp_first) (str_op sp.sp_count) sp.sp_stride sp.sp_width
        (str_op sp.sp_base) (str_op sp.sp_bound) sp.sp_site
        (if Array.length sp.sp_sites = 0 then ""
         else
           Printf.sprintf " !sites(%s)"
             (String.concat ","
                (Array.to_list (Array.map string_of_int sp.sp_sites))))

let str_term = function
  | TRet ops -> "ret " ^ String.concat ", " (List.map str_op ops)
  | TJmp t -> Printf.sprintf "jmp B%d" t
  | TBr (c, a, b) -> Printf.sprintf "br %s ? B%d : B%d" (str_op c) a b
  | TSwitch (v, cases, d) ->
      Printf.sprintf "switch %s [%s] default B%d" (str_op v)
        (String.concat "; "
           (List.map (fun (c, t) -> Printf.sprintf "%d->B%d" c t) cases))
        d
  | TUnreachable -> "unreachable"

let pp_func buf (f : func) =
  Buffer.add_string buf
    (Printf.sprintf "func %s(%s) -> (%s)%s  frame=%d regs=%d\n" f.fname
       (String.concat ", "
          (List.map
             (fun (r, t) -> Printf.sprintf "%%r%d:%s" r (str_ity t))
             f.fparams))
       (String.concat ", " (List.map str_ity f.frets))
       (if f.fvariadic then " variadic" else "")
       f.fframe_size f.fnregs);
  Array.iteri
    (fun i sl ->
      Buffer.add_string buf
        (Printf.sprintf "  slot %d: %s off=%d size=%d ptrs=[%s]\n" i
           sl.sl_name sl.sl_offset sl.sl_size
           (String.concat "," (List.map string_of_int sl.sl_ptr_offsets))))
    f.fslots;
  Array.iteri
    (fun i b ->
      Buffer.add_string buf (Printf.sprintf "B%d:\n" i);
      List.iter
        (fun inst ->
          Buffer.add_string buf ("  " ^ str_inst inst ^ "\n"))
        b.insts;
      Buffer.add_string buf ("  " ^ str_term b.term ^ "\n"))
    f.fblocks

let dump_module (m : modul) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun g ->
      Buffer.add_string buf
        (Printf.sprintf "global %s size=%d align=%d ptrs=[%s]\n" g.gname
           g.gsize g.galign
           (String.concat "," (List.map string_of_int g.gptr_offsets))))
    m.mglobals;
  iter_funcs m (fun f -> pp_func buf f);
  Buffer.contents buf
