(* Built-in typedefs and libc prototypes.

   MiniC has no preprocessor or headers; the standard library surface that
   the benchmarks, attack suite and daemons need is declared here.  The
   interpreter ({!Interp}) provides the implementations over simulated
   memory, and the SoftBound runtime provides checked wrappers for them
   (paper section 5.2, "Separate compilation and library code"). *)

open Ctypes

(** Typedefs visible to every translation unit. *)
let typedefs : (string * ty) list =
  [
    ("size_t", Tint IULong);
    ("ssize_t", Tint ILong);
    ("intptr_t", Tint ILong);
    ("uintptr_t", Tint IULong);
    ("uint8_t", Tint IUChar);
    ("int8_t", Tint IChar);
    ("uint16_t", Tint IUShort);
    ("int16_t", Tint IShort);
    ("uint32_t", Tint IUInt);
    ("int32_t", Tint IInt);
    ("uint64_t", Tint IULong);
    ("int64_t", Tint ILong);
    (* jmp_buf: 8 longs, enough for {pc-token, frame, stack, check-word} *)
    ("jmp_buf", Tarray (Tint ILong, 8));
    (* va_list is an opaque cursor into the vararg save area *)
    ("va_list", Tptr (Tint ILong));
  ]

let sg ?(variadic = false) ret params = { ret; params; variadic }

let charp = Tptr (Tint IChar)
let voidp = Tptr Tvoid
let longt = Tint ILong
let intt = Tint IInt
let dbl = Tfloat FDouble

(** Function prototypes implicitly in scope. *)
let functions : (string * fsig) list =
  [
    (* allocation *)
    ("malloc", sg voidp [ longt ]);
    ("calloc", sg voidp [ longt; longt ]);
    ("realloc", sg voidp [ voidp; longt ]);
    ("free", sg Tvoid [ voidp ]);
    (* memory *)
    ("memcpy", sg voidp [ voidp; voidp; longt ]);
    ("memmove", sg voidp [ voidp; voidp; longt ]);
    ("memset", sg voidp [ voidp; intt; longt ]);
    ("memcmp", sg intt [ voidp; voidp; longt ]);
    (* strings *)
    ("strcpy", sg charp [ charp; charp ]);
    ("strncpy", sg charp [ charp; charp; longt ]);
    ("strcat", sg charp [ charp; charp ]);
    ("strncat", sg charp [ charp; charp; longt ]);
    ("strlen", sg longt [ charp ]);
    ("strcmp", sg intt [ charp; charp ]);
    ("strncmp", sg intt [ charp; charp; longt ]);
    ("strchr", sg charp [ charp; intt ]);
    ("strstr", sg charp [ charp; charp ]);
    ("strdup", sg charp [ charp ]);
    (* sorting/searching: the comparator is interpreted code invoked
       from inside the builtin (re-entrant VM call) *)
    ("qsort",
     sg Tvoid
       [ voidp; longt; longt;
         Tptr (Tfunc { ret = intt; params = [ voidp; voidp ];
                       variadic = false }) ]);
    ("bsearch",
     sg voidp
       [ voidp; voidp; longt; longt;
         Tptr (Tfunc { ret = intt; params = [ voidp; voidp ];
                       variadic = false }) ]);
    (* ctype *)
    ("toupper", sg intt [ intt ]);
    ("tolower", sg intt [ intt ]);
    ("isdigit", sg intt [ intt ]);
    ("isalpha", sg intt [ intt ]);
    ("isspace", sg intt [ intt ]);
    ("isupper", sg intt [ intt ]);
    ("islower", sg intt [ intt ]);
    (* more strings *)
    ("strrchr", sg charp [ charp; intt ]);
    ("memchr", sg voidp [ voidp; intt; longt ]);
    ("strtol", sg longt [ charp; Tptr charp; intt ]);
    (* conversion *)
    ("atoi", sg intt [ charp ]);
    ("atol", sg longt [ charp ]);
    ("atof", sg dbl [ charp ]);
    (* io *)
    ("printf", sg ~variadic:true intt [ charp ]);
    ("sprintf", sg ~variadic:true intt [ charp; charp ]);
    ("snprintf", sg ~variadic:true intt [ charp; longt; charp ]);
    ("puts", sg intt [ charp ]);
    ("putchar", sg intt [ intt ]);
    ("getchar", sg intt []);
    (* simulated network/file IO for the daemon case studies: reads the
       next line from the harness-provided input queue *)
    ("sim_recv", sg intt [ charp; intt ]);
    ("sim_send", sg intt [ charp; intt ]);
    (* misc *)
    ("rand", sg intt []);
    ("srand", sg Tvoid [ Tint IUInt ]);
    ("exit", sg Tvoid [ intt ]);
    ("abort", sg Tvoid []);
    ("assert", sg Tvoid [ intt ]);
    ("abs", sg intt [ intt ]);
    ("labs", sg longt [ longt ]);
    (* math *)
    ("sqrt", sg dbl [ dbl ]);
    ("fabs", sg dbl [ dbl ]);
    ("pow", sg dbl [ dbl; dbl ]);
    ("sin", sg dbl [ dbl ]);
    ("cos", sg dbl [ dbl ]);
    ("exp", sg dbl [ dbl ]);
    ("log", sg dbl [ dbl ]);
    ("floor", sg dbl [ dbl ]);
    ("ceil", sg dbl [ dbl ]);
    (* attack-suite marker: executing this is proof of control-flow
       hijack; the interpreter turns it into a Hijack trap *)
    ("attack_success", sg Tvoid []);
    (* control *)
    ("setjmp", sg intt [ Tptr longt ]);
    ("longjmp", sg Tvoid [ Tptr longt; intt ]);
    (* SoftBound programmer API (paper sections 3.1 and 5.2): explicitly
       set the bounds of a pointer, e.g. for custom allocators *)
    ("setbound", sg Tvoid [ voidp; longt ]);
    (* varargs access; see Typecheck for the special-casing *)
    ("va_start", sg Tvoid [ Tptr longt ]);
    ("va_end", sg Tvoid [ Tptr longt ]);
    ("va_arg_int", sg intt [ Tptr longt ]);
    ("va_arg_long", sg longt [ Tptr longt ]);
    ("va_arg_double", sg dbl [ Tptr longt ]);
    ("va_arg_ptr", sg voidp [ Tptr longt ]);
  ]

(** Seed an environment with the builtin typedefs (the parser needs them
    to recognize declaration syntax). *)
let seed_env (env : env) =
  List.iter (fun (n, t) -> Hashtbl.replace env.typedefs n t) typedefs
