(* Regenerate the pinned digests for the elimination and lexer golden
   tests (test_elim.ml, test_lexer.ml), after reviewing that an IR or
   token-stream change is intentional:

     make elim-golden

   (or: dune exec test/golden/gen_elim_digests.exe).  Writes
   elim_ir.digests, one "<md5> <label>" line per program and option set
   (the MD5 of [Pretty_ir.dump_module] of the instrumented module), and
   lex.digests (see {!Golden_corpus.lex_lines}).  The corpus is
   {!Golden_corpus}, which the tests read too. *)

let dir = if Array.length Sys.argv > 1 then Sys.argv.(1) else "test/golden"

let digest opts src =
  let m = Softbound.compile src in
  let m', _ = Softbound.instrument_with_sites ~opts m in
  Digest.to_hex (Digest.string (Sbir.Pretty_ir.dump_module m'))

let write name text count =
  let path = Filename.concat dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Printf.printf "wrote %s (%d lines)\n" path count

let () =
  write "elim_ir.digests"
    (String.concat ""
       (List.map
          (fun (label, opts, src) ->
            Printf.sprintf "%s %s\n" (digest opts src) label)
          Golden_corpus.elim))
    (List.length Golden_corpus.elim);
  let lex = Golden_corpus.lex_lines () in
  write "lex.digests" lex
    (List.length (String.split_on_char '\n' lex) - 1)
