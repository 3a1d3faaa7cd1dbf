(* The corpus behind the pinned digests in test/golden, shared by their
   generator ([make elim-golden]) and the tests that compare against
   them, so the two cannot drift apart.

   - [elim]: one entry per program and option set; elim_ir.digests holds
     the MD5 of [Pretty_ir.dump_module] of each instrumented module.
   - [lex_lines]: lex.digests, one line per source of the same programs
     (the MD5 of the printed [(token, line, col)] stream) and per
     malformed input (the [Lex_error] message and location). *)

let no_widen =
  { Softbound.Config.default with Softbound.Config.widen_checks = false }

let fuzz_source index =
  let case = Fuzz.case_of ~seed:1 ~index in
  Cminus.Pretty.program_string case.Fuzz.Gen.prog

(** Every distinct source of the corpus: kernels, Wilander attacks,
    BugBench programs and 200 generated programs. *)
let sources : (string * string) list =
  List.map (fun (w : Workloads.workload) -> ("kernel:" ^ w.name, w.source))
    Workloads.all
  @ List.map
      (fun (a : Attacks.Wilander.attack) ->
        (Printf.sprintf "wilander:%02d" a.id, a.source))
      Attacks.Wilander.all
  @ List.map
      (fun (p : Attacks.Bugbench.program) -> ("bugbench:" ^ p.name, p.source))
      Attacks.Bugbench.all
  @ List.init 200 (fun index ->
        (Printf.sprintf "fuzz:1:%d" index, fuzz_source index))

let elim : (string * Softbound.Config.options * string) list =
  List.concat_map
    (fun (label, src) ->
      if String.starts_with ~prefix:"kernel:" label then
        [
          (label ^ ":default", Softbound.Config.default, src);
          (label ^ ":store-only", Softbound.Config.store_only, src);
          (label ^ ":no-widen", no_widen, src);
        ]
      else [ (label, Softbound.Config.default, src) ])
    sources

(* Inputs at the lexer's edges: the ones that must fail, and a few that
   must lex, each pinned by its result. *)
let edge_inputs : (string * string) list =
  [
    ("unterminated-string", "int main() { char *s = \"abc");
    ("unterminated-string-escape", "\"abc\\");
    ("unterminated-concat", "\"ab\" \"cd");
    ("unterminated-char", "'a");
    ("unterminated-char-empty", "'");
    ("unterminated-char-long", "'ab'");
    ("unterminated-char-escape", "'\\n");
    ("unterminated-comment", "int x; /* never closed");
    ("unterminated-comment-star", "/* almost *");
    ("bad-escape-string", "\"a\\qb\"");
    ("bad-escape-char", "'\\q'");
    ("empty-hex-escape-string", "\"\\xg\"");
    ("empty-hex-escape-char", "'\\x'");
    ("stray-at", "int main() { return 0 @ 1; }");
    ("stray-dollar", "\n\n   $x");
    ("stray-backtick", "a `b");
    ("stray-hash-mid-line", "int x; #define Y 1");
    ("stray-non-ascii", "int caf\xc3\xa9;");
    ("bad-hex-literal", "x = 0x;");
    ("bad-int-literal", "99999999999999999999");
    ("bad-float-literal", "1e+");
    ("ok-preprocessor", "#include <stdio.h>\n  #define X\nint x;");
    ("ok-comments", "a // line\n/* block\n * more */ b // eof");
    ("ok-literals", "0 42 0x1f 0XAbL 0x10u 7l 7L 7u 7ul 7lu 7LU 1.5 1. 1.e3 2e-3 3.5f 4E+2F");
    ("ok-chars", "'a' '\\n' '\\t' '\\r' '\\0' '\\\\' '\\'' '\\\"' '\\a' '\\b' '\\f' '\\v' '\\x41' '\\x4142'");
    ("ok-strings", "\"a\\tb\" /* c */ \"d\"\n\"e\" x \"\\x7e\\\"\"");
    ("ok-operators", "a+++b-->c<<=d>>=e...f.g->h!=i&&j||k^=l%=m|=n&=o*=p/=q?r:s;~t[u](v){w},..");
    ("ok-keywords", "void char short int long unsigned signed float double struct union enum typedef if else while do for return break continue switch case default sizeof extern static const _x x1 int_ for2");
    ("ok-whitespace", "\tint\r\n  x\r\n;\n\n\n  y");
    ("ok-empty", "");
  ]

let token_repr (t : Cminus.Token.t) : string =
  match t with
  | INT_LIT (v, k) -> Printf.sprintf "INT %Ld %s" v (Cminus.Ctypes.show_ikind k)
  | FLOAT_LIT (f, k) ->
      Printf.sprintf "FLOAT %h %s" f (Cminus.Ctypes.show_fkind k)
  | CHAR_LIT c -> Printf.sprintf "CHAR %C" c
  | STRING_LIT s -> Printf.sprintf "STRING %S" s
  | IDENT s -> "IDENT " ^ s
  | t -> Cminus.Token.to_string t

(** The printed token stream of [src], or the lexer's error. *)
let lex_result (src : string) : string =
  match Cminus.Lexer.tokenize src with
  | toks ->
      let buf = Buffer.create 4096 in
      Array.iter
        (fun (l : Cminus.Lexer.lexed) ->
          Printf.bprintf buf "%s %d:%d\n" (token_repr l.tok) l.loc.line
            l.loc.col)
        toks;
      Digest.to_hex (Digest.string (Buffer.contents buf))
  | exception Cminus.Lexer.Lex_error (msg, loc) ->
      Printf.sprintf "Lex_error %d:%d %s" loc.line loc.col msg

(** The lines of lex.digests: "<result> <label>". *)
let lex_lines () : string =
  String.concat ""
    (List.map
       (fun (label, src) -> Printf.sprintf "%s %s\n" (lex_result src) label)
       (sources @ List.map (fun (l, s) -> ("edge:" ^ l, s)) edge_inputs))
