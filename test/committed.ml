(* The committed files the tests read.  [dune runtest] runs the suite
   in (the build tree's copy of) test/, a hand run of
   [dune exec test/test_main.exe] runs it from the repository root:
   both resolve the same files. *)

let test_dir = if Sys.file_exists "golden" then Filename.current_dir_name else "test"

(** A file under test/golden. *)
let golden name = Filename.concat (Filename.concat test_dir "golden") name

(** A file at the root of the repository, such as a BENCH_*.json. *)
let root name = Filename.concat (Filename.concat test_dir Filename.parent_dir_name) name

let read path = In_channel.with_open_bin path In_channel.input_all

(** [actual] must equal the committed golden file [name]. *)
let check_golden name actual =
  Alcotest.(check string) name (read (golden name)) actual

let compile_golden name = Softbound.compile (read (golden name))
