(* Hand-written lexer for MiniC.

   The lexer scans the source string by index: a character is looked at
   with [at] (NUL past the end, so every test against a real character
   fails there), and only the scanners whose characters may be newlines
   go through [advance], which keeps the line count.  Keywords are
   looked up in a table built once from [Token.keyword_table], and the
   tokens are collected in fixed chunks, so lexing allocates little
   beyond the tokens themselves (test_lexer.ml pins a words-per-token
   budget).

   Preprocessor directives (lines starting with [#]) are skipped so that
   sources carrying [#include] lines lex cleanly — MiniC has an implicit
   libc instead of a preprocessor. *)

type loc = { line : int; col : int }

let no_loc = { line = 0; col = 0 }

exception Lex_error of string * loc

let lex_error loc fmt =
  Format.kasprintf (fun s -> raise (Lex_error (s, loc))) fmt

type lexed = { tok : Token.t; loc : loc }

type state = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of beginning of current line *)
}

let cur_loc st = { line = st.line; col = st.pos - st.bol + 1 }

(* the character at offset [i], or NUL past the end *)
let at st i = if i < st.len then String.unsafe_get st.src i else '\000'
let eof st = st.pos >= st.len

(* step over one character that may be a newline *)
let advance st =
  if String.unsafe_get st.src st.pos = '\n' then begin
    st.line <- st.line + 1;
    st.bol <- st.pos + 1
  end;
  st.pos <- st.pos + 1

let is_digit c = c >= '0' && c <= '9'
let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')
let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || is_digit c

let skip_while st p =
  while st.pos < st.len && p (String.unsafe_get st.src st.pos) do
    st.pos <- st.pos + 1
  done

let all_blank_before st =
  let rec go i =
    if i >= st.pos then true
    else match st.src.[i] with ' ' | '\t' -> go (i + 1) | _ -> false
  in
  go st.bol

let rec skip_trivia st =
  match at st st.pos with
  | ' ' | '\t' | '\r' ->
      st.pos <- st.pos + 1;
      skip_trivia st
  | '\n' ->
      advance st;
      skip_trivia st
  | '#' when all_blank_before st ->
      (* preprocessor line: skip to end of line *)
      skip_while st (fun c -> c <> '\n');
      skip_trivia st
  | '/' when at st (st.pos + 1) = '/' ->
      skip_while st (fun c -> c <> '\n');
      skip_trivia st
  | '/' when at st (st.pos + 1) = '*' ->
      let start = cur_loc st in
      st.pos <- st.pos + 2;
      while not (at st st.pos = '*' && at st (st.pos + 1) = '/') do
        if eof st then lex_error start "unterminated comment";
        advance st
      done;
      st.pos <- st.pos + 2;
      skip_trivia st
  | _ -> ()

let hex_value c =
  if is_digit c then Char.code c - Char.code '0'
  else Char.code (Char.lowercase_ascii c) - Char.code 'a' + 10

(* the character an escape sequence (after its backslash) stands for *)
let read_escape st loc =
  if eof st then lex_error loc "unterminated escape";
  let c = st.src.[st.pos] in
  let simple v =
    st.pos <- st.pos + 1;
    v
  in
  match c with
  | 'n' -> simple '\n'
  | 't' -> simple '\t'
  | 'r' -> simple '\r'
  | '0' -> simple '\000'
  | '\\' -> simple '\\'
  | '\'' -> simple '\''
  | '"' -> simple '"'
  | 'a' -> simple '\007'
  | 'b' -> simple '\b'
  | 'f' -> simple '\012'
  | 'v' -> simple '\011'
  | 'x' ->
      st.pos <- st.pos + 1;
      let start = st.pos in
      let v = ref 0 in
      while st.pos < st.len && is_hex st.src.[st.pos] do
        v := (!v * 16) + hex_value st.src.[st.pos];
        st.pos <- st.pos + 1
      done;
      if st.pos = start then lex_error loc "empty hex escape";
      Char.chr (!v land 0xff)
  | c -> lex_error loc "unknown escape sequence \\%c" c

let lex_number st loc =
  let start = st.pos in
  let text () = String.sub st.src start (st.pos - start) in
  if at st st.pos = '0' && (at st (st.pos + 1) = 'x' || at st (st.pos + 1) = 'X')
  then begin
    st.pos <- st.pos + 2;
    skip_while st is_hex;
    let text = text () in
    let v =
      try Int64.of_string text
      with _ -> lex_error loc "bad hex literal %s" text
    in
    (* optional suffix *)
    match at st st.pos with
    | 'l' | 'L' ->
        st.pos <- st.pos + 1;
        Token.INT_LIT (v, Ctypes.ILong)
    | 'u' | 'U' ->
        st.pos <- st.pos + 1;
        Token.INT_LIT (v, Ctypes.IUInt)
    | _ -> Token.INT_LIT (v, Ctypes.IInt)
  end
  else begin
    skip_while st is_digit;
    match at st st.pos with
    | '.' | 'e' | 'E' ->
        if at st st.pos = '.' then begin
          st.pos <- st.pos + 1;
          skip_while st is_digit
        end;
        (match at st st.pos with
        | 'e' | 'E' ->
            st.pos <- st.pos + 1;
            (match at st st.pos with
            | '+' | '-' -> st.pos <- st.pos + 1
            | _ -> ());
            skip_while st is_digit
        | _ -> ());
        let text = text () in
        let v =
          try float_of_string text
          with _ -> lex_error loc "bad float literal %s" text
        in
        (match at st st.pos with
        | 'f' | 'F' ->
            st.pos <- st.pos + 1;
            Token.FLOAT_LIT (v, Ctypes.FFloat)
        | _ -> Token.FLOAT_LIT (v, Ctypes.FDouble))
    | _ ->
        let text = text () in
        let v =
          try Int64.of_string text
          with _ -> lex_error loc "bad int literal %s" text
        in
        let rec suffixes kind =
          match at st st.pos with
          | 'l' | 'L' ->
              st.pos <- st.pos + 1;
              suffixes
                (if Ctypes.ikind_signed kind then Ctypes.ILong else Ctypes.IULong)
          | 'u' | 'U' ->
              st.pos <- st.pos + 1;
              suffixes (if kind = Ctypes.ILong then Ctypes.IULong else Ctypes.IUInt)
          | _ -> kind
        in
        Token.INT_LIT (v, suffixes Ctypes.IInt)
  end

module Keywords = Hashtbl.Make (String)

let keywords =
  let h = Keywords.create 64 in
  List.iter (fun (k, t) -> Keywords.replace h k t) Token.keyword_table;
  h

(* the body of a string literal, after its opening quote, into [buf] *)
let rec string_body st loc buf =
  if eof st then lex_error loc "unterminated string literal";
  match st.src.[st.pos] with
  | '"' -> st.pos <- st.pos + 1
  | '\\' ->
      st.pos <- st.pos + 1;
      Buffer.add_char buf (read_escape st loc);
      string_body st loc buf
  | c ->
      advance st;
      Buffer.add_char buf c;
      string_body st loc buf

(* one token at a non-blank position before the end *)
let lex_token st loc : Token.t =
  let c = st.src.[st.pos] in
  if is_digit c then lex_number st loc
  else if is_ident_start c then begin
    let start = st.pos in
    skip_while st is_ident_char;
    let text = String.sub st.src start (st.pos - start) in
    match Keywords.find keywords text with
    | kw -> kw
    | exception Not_found -> Token.IDENT text
  end
  else if c = '\'' then begin
    st.pos <- st.pos + 1;
    if eof st then lex_error loc "unterminated char literal";
    let ch =
      if st.src.[st.pos] = '\\' then begin
        st.pos <- st.pos + 1;
        read_escape st loc
      end
      else begin
        let c = st.src.[st.pos] in
        advance st;
        c
      end
    in
    if at st st.pos = '\'' then st.pos <- st.pos + 1
    else lex_error loc "unterminated char literal";
    Token.CHAR_LIT ch
  end
  else if c = '"' then begin
    st.pos <- st.pos + 1;
    let buf = Buffer.create 16 in
    string_body st loc buf;
    (* adjacent string literal concatenation *)
    skip_trivia st;
    while at st st.pos = '"' do
      st.pos <- st.pos + 1;
      string_body st loc buf;
      skip_trivia st
    done;
    Token.STRING_LIT (Buffer.contents buf)
  end
  else begin
    let c1 = at st (st.pos + 1) and c2 = at st (st.pos + 2) in
    let tok, width =
      match c with
      | '.' when c1 = '.' && c2 = '.' -> (Token.ELLIPSIS, 3)
      | '+' when c1 = '+' -> (Token.PLUSPLUS, 2)
      | '+' when c1 = '=' -> (Token.PLUSEQ, 2)
      | '+' -> (Token.PLUS, 1)
      | '-' when c1 = '-' -> (Token.MINUSMINUS, 2)
      | '-' when c1 = '=' -> (Token.MINUSEQ, 2)
      | '-' when c1 = '>' -> (Token.ARROW, 2)
      | '-' -> (Token.MINUS, 1)
      | '*' when c1 = '=' -> (Token.STAREQ, 2)
      | '*' -> (Token.STAR, 1)
      | '/' when c1 = '=' -> (Token.SLASHEQ, 2)
      | '/' -> (Token.SLASH, 1)
      | '%' when c1 = '=' -> (Token.PERCENTEQ, 2)
      | '%' -> (Token.PERCENT, 1)
      | '&' when c1 = '&' -> (Token.ANDAND, 2)
      | '&' when c1 = '=' -> (Token.AMPEQ, 2)
      | '&' -> (Token.AMP, 1)
      | '|' when c1 = '|' -> (Token.OROR, 2)
      | '|' when c1 = '=' -> (Token.PIPEEQ, 2)
      | '|' -> (Token.PIPE, 1)
      | '^' when c1 = '=' -> (Token.CARETEQ, 2)
      | '^' -> (Token.CARET, 1)
      | '~' -> (Token.TILDE, 1)
      | '!' when c1 = '=' -> (Token.NE, 2)
      | '!' -> (Token.BANG, 1)
      | '<' when c1 = '<' && c2 = '=' -> (Token.SHLEQ, 3)
      | '<' when c1 = '<' -> (Token.SHL, 2)
      | '<' when c1 = '=' -> (Token.LE, 2)
      | '<' -> (Token.LT, 1)
      | '>' when c1 = '>' && c2 = '=' -> (Token.SHREQ, 3)
      | '>' when c1 = '>' -> (Token.SHR, 2)
      | '>' when c1 = '=' -> (Token.GE, 2)
      | '>' -> (Token.GT, 1)
      | '=' when c1 = '=' -> (Token.EQEQ, 2)
      | '=' -> (Token.ASSIGN, 1)
      | '?' -> (Token.QUESTION, 1)
      | ':' -> (Token.COLON, 1)
      | ',' -> (Token.COMMA, 1)
      | ';' -> (Token.SEMI, 1)
      | '(' -> (Token.LPAREN, 1)
      | ')' -> (Token.RPAREN, 1)
      | '{' -> (Token.LBRACE, 1)
      | '}' -> (Token.RBRACE, 1)
      | '[' -> (Token.LBRACKET, 1)
      | ']' -> (Token.RBRACKET, 1)
      | '.' -> (Token.DOT, 1)
      | c -> lex_error loc "unexpected character %C" c
    in
    st.pos <- st.pos + width;
    tok
  end

(* Tokens are collected in young chunks and copied into the result
   once.  An array as long as a real program's token stream lives in the
   major heap: creating it from a young value forces a minor collection,
   and every store of a young token into it crosses the generations. *)
let chunk = 128
let no_token = { tok = Token.EOF; loc = no_loc }

(** Tokenize a full source string.  The result always ends with [EOF]. *)
let tokenize (src : string) : lexed array =
  let st = { src; len = String.length src; pos = 0; line = 1; bol = 0 } in
  let full = ref [] and cur = ref (Array.make chunk no_token) and n = ref 0 in
  let push l =
    if !n = chunk then begin
      full := !cur :: !full;
      cur := Array.make chunk no_token;
      n := 0
    end;
    Array.unsafe_set !cur !n l;
    incr n
  in
  let rec go () =
    skip_trivia st;
    let loc = cur_loc st in
    if eof st then push { tok = Token.EOF; loc }
    else begin
      push { tok = lex_token st loc; loc };
      go ()
    end
  in
  go ();
  Array.concat (List.rev (Array.sub !cur 0 !n :: !full))
