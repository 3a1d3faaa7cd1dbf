(* Lexer unit tests. *)

open Cminus

let toks src =
  Array.to_list (Lexer.tokenize src)
  |> List.map (fun (l : Lexer.lexed) -> l.tok)
  |> List.filter (fun t -> t <> Token.EOF)

let check_toks name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let got = toks src in
      Alcotest.(check (list string))
        name
        (List.map Token.to_string expected)
        (List.map Token.to_string got))

let lex_fails name src =
  Alcotest.test_case name `Quick (fun () ->
      match Lexer.tokenize src with
      | exception Lexer.Lex_error _ -> ()
      | _ -> Alcotest.fail "expected a lexer error")

let il v = Token.INT_LIT (Int64.of_int v, Ctypes.IInt)

(* Every token, line and column of the golden corpus, and the error and
   location of each malformed input, are pinned in golden/lex.digests
   (regenerate with [make elim-golden] after reviewing an intended
   change). *)
let golden_lex () =
  Committed.check_golden "lex.digests" (Golden_corpus.lex_lines ())

(* Words allocated on the minor heap per token when lexing a fixed
   kernel: the tokens themselves (a [lexed] record, its location, an
   identifier's string) and the chunks that collect them, nothing per
   character.  The count is deterministic (10.6 at this budget's
   writing, 36 for the lexer that allocated an option per character),
   so this guards the budget where timings are too noisy to; the least
   of three runs counts.  The final token array is allocated in the
   major heap and is not counted. *)
let words_per_token_budget = 12.0

let allocation_budget () =
  let src = (Option.get (Workloads.find "go")).Workloads.source in
  let ntoks = Array.length (Lexer.tokenize src) in
  let words () =
    let w0 = Gc.minor_words () in
    let toks = Lexer.tokenize src in
    let w = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity toks);
    w
  in
  let w = min (words ()) (min (words ()) (words ())) in
  let per_token = w /. float_of_int ntoks in
  if per_token > words_per_token_budget then
    Alcotest.failf "tokenize: %.1f words per token over %d tokens (budget %.0f)"
      per_token ntoks words_per_token_budget

let suite =
  [
    check_toks "keywords and idents" "int foo while whiled"
      [ Token.KW_INT; Token.IDENT "foo"; Token.KW_WHILE;
        Token.IDENT "whiled" ];
    check_toks "decimal literals" "0 42 123456" [ il 0; il 42; il 123456 ];
    check_toks "hex literals" "0x10 0xff"
      [ Token.INT_LIT (16L, Ctypes.IInt); Token.INT_LIT (255L, Ctypes.IInt) ];
    check_toks "long suffix" "42L 7l"
      [ Token.INT_LIT (42L, Ctypes.ILong); Token.INT_LIT (7L, Ctypes.ILong) ];
    check_toks "unsigned suffix" "42u"
      [ Token.INT_LIT (42L, Ctypes.IUInt) ];
    check_toks "float literals" "1.5 2.0e3 7e-2 3.5f"
      [ Token.FLOAT_LIT (1.5, Ctypes.FDouble);
        Token.FLOAT_LIT (2000.0, Ctypes.FDouble);
        Token.FLOAT_LIT (0.07, Ctypes.FDouble);
        Token.FLOAT_LIT (3.5, Ctypes.FFloat) ];
    check_toks "char literals" "'a' '\\n' '\\0' '\\x41'"
      [ Token.CHAR_LIT 'a'; Token.CHAR_LIT '\n'; Token.CHAR_LIT '\000';
        Token.CHAR_LIT 'A' ];
    check_toks "string with escapes" {|"hi\n"|} [ Token.STRING_LIT "hi\n" ];
    check_toks "adjacent string concatenation" {|"ab" "cd"|}
      [ Token.STRING_LIT "abcd" ];
    check_toks "operators longest match" "a+++b a<<=b a->b a...b"
      [ Token.IDENT "a"; Token.PLUSPLUS; Token.PLUS; Token.IDENT "b";
        Token.IDENT "a"; Token.SHLEQ; Token.IDENT "b";
        Token.IDENT "a"; Token.ARROW; Token.IDENT "b";
        Token.IDENT "a"; Token.ELLIPSIS; Token.IDENT "b" ];
    check_toks "comparison operators" "< <= > >= == != && || << >>"
      [ Token.LT; Token.LE; Token.GT; Token.GE; Token.EQEQ; Token.NE;
        Token.ANDAND; Token.OROR; Token.SHL; Token.SHR ];
    check_toks "compound assignments" "+= -= *= /= %= &= |= ^="
      [ Token.PLUSEQ; Token.MINUSEQ; Token.STAREQ; Token.SLASHEQ;
        Token.PERCENTEQ; Token.AMPEQ; Token.PIPEEQ; Token.CARETEQ ];
    check_toks "line comments" "a // comment\nb"
      [ Token.IDENT "a"; Token.IDENT "b" ];
    check_toks "block comments" "a /* x\ny */ b"
      [ Token.IDENT "a"; Token.IDENT "b" ];
    check_toks "preprocessor lines skipped" "#include <stdio.h>\nint x;"
      [ Token.KW_INT; Token.IDENT "x"; Token.SEMI ];
    check_toks "preprocessor with leading blanks" "  #define FOO 1\nint"
      [ Token.KW_INT ];
    lex_fails "unterminated comment" "a /* b";
    lex_fails "unterminated string" {|"abc|};
    lex_fails "unterminated char" "'a";
    lex_fails "stray character" "a $ b";
    Alcotest.test_case "golden: token streams and errors are byte-identical"
      `Quick golden_lex;
    Alcotest.test_case "allocation budget: words per token" `Quick
      allocation_budget;
    Alcotest.test_case "line/column tracking" `Quick (fun () ->
        let lexed = Lexer.tokenize "int\n  foo;" in
        let foo = lexed.(1) in
        Alcotest.(check int) "line" 2 foo.loc.line;
        Alcotest.(check int) "col" 3 foo.loc.col);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"integer literals roundtrip" ~count:200
         QCheck.(int_bound 1_000_000_000)
         (fun n ->
           match toks (string_of_int n) with
           | [ Token.INT_LIT (v, Ctypes.IInt) ] -> Int64.to_int v = n
           | _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"identifiers lex as single tokens" ~count:200
         QCheck.(string_gen_of_size (Gen.int_range 1 20) (Gen.char_range 'a' 'z'))
         (fun s ->
           QCheck.assume (not (List.mem_assoc s Token.keyword_table));
           match toks s with [ Token.IDENT s' ] -> s' = s | _ -> false));
  ]
