(* Robust-safety adversarial harness tests.

   Three families:
   - wrapper regression pins: each libc wrapper whose string scan used to
     run unchecked past the argument's bounds now traps at the first
     out-of-bounds byte (and, dually, a bounded strncmp never scans past
     its limit);
   - memmove metadata: overlapping pointer-array moves preserve each
     slot's (base, bound) exactly as a copy through a fresh buffer
     would, both as a MiniC end-to-end check and as a state-level qcheck
     property over random sizes/shifts/facilities;
   - the campaign itself: deterministic generation, regression seeds
     with the expected verdicts, zero escapes over 500+ generated
     attacker/protected pairs, and jobs-independence of the report. *)

module Adv = Fuzz.Adversary
module St = Interp.State
module Mem = Machine.Memory

let opts = Softbound.Config.default

let hash_opts =
  { Softbound.Config.default with facility = Softbound.Config.Hash_table }

let run ?(o = opts) src =
  Softbound.run_protected ~opts:o (Softbound.compile src)

let detects ?(o = opts) name src =
  Alcotest.test_case name `Quick (fun () ->
      let r = run ~o src in
      if not (Softbound.detected r) then
        Alcotest.fail
          ("expected a bounds violation, got "
          ^ Interp.State.string_of_outcome r.outcome))

let clean ?(o = opts) name src =
  Alcotest.test_case name `Quick (fun () ->
      let m = Softbound.compile src in
      let un = Softbound.run_unprotected m in
      let pr = Softbound.run_protected ~opts:o m in
      (match (un.outcome, pr.outcome) with
      | Interp.State.Exit a, Interp.State.Exit b when a = b -> ()
      | a, b ->
          Alcotest.fail
            (Printf.sprintf "outcomes differ: %s vs %s"
               (Interp.State.string_of_outcome a)
               (Interp.State.string_of_outcome b)));
      Alcotest.(check string) "stdout agrees" un.stdout_text pr.stdout_text)

(* An 8-byte heap block filled with non-NUL bytes and no terminator:
   any wrapper that scans for the NUL must trap at the block's bound
   instead of wandering into adjacent memory. *)
let unterm body =
  "int main(void) { char *s = (char*)malloc(8); int i; \
   for (i = 0; i < 8; i++) s[i] = 'A'; " ^ body ^ " return 0; }"

(* Same, but digits, for the numeric-conversion wrappers. *)
let unterm_digits body =
  "int main(void) { char *s = (char*)malloc(8); int i; \
   for (i = 0; i < 8; i++) s[i] = '7'; " ^ body ^ " return 0; }"

let tc name f = Alcotest.test_case name `Quick f

(* ---------------------------------------------------------------- *)
(* State-level memmove-metadata property                              *)
(* ---------------------------------------------------------------- *)

(* Shared scaffold: a protected heap with [nslots] pointer slots, each
   holding a distinct malloc'd block with its metadata (built by
   {!Adv.setup}).  The property moves [len] slots by [k] within the
   array and compares every slot's value and peeked metadata against a
   second, identical state where the same move went through the
   attacker's scratch buffer (a fresh, non-overlapping staging area). *)
let memmove_equiv ~facility ~nslots ~k ~right () : string option =
  let p =
    {
      Adv.facility;
      ht_init = 8;
      hole = 32;
      sec = 32;
      nslots;
      bsz = 16;
    }
  in
  let secret = "S" in
  let len = (nslots - k) * 8 in
  let move ctx ~via_fresh =
    let src, dst =
      if right then (ctx.Adv.parr, ctx.Adv.parr + (8 * k))
      else (ctx.Adv.parr + (8 * k), ctx.Adv.parr)
    in
    let pm = (ctx.Adv.parr, ctx.Adv.parr + (8 * nslots)) in
    if via_fresh then begin
      let tmp = ctx.Adv.scratch in
      let tm = (tmp, tmp + Adv.scratch_sz) in
      ignore
        (Adv.wrapper ctx "memmove"
           [ (tmp, Some tm); (src, Some pm); (len, None) ]);
      ignore
        (Adv.wrapper ctx "memmove"
           [ (dst, Some pm); (tmp, Some tm); (len, None) ])
    end
    else
      ignore
        (Adv.wrapper ctx "memmove"
           [ (dst, Some pm); (src, Some pm); (len, None) ]);
    ctx
  in
  let a = move (Adv.setup p ~secret) ~via_fresh:false in
  let b = move (Adv.setup p ~secret) ~via_fresh:true in
  let bad = ref None in
  for i = 0 to nslots - 1 do
    if !bad = None then begin
      let addr_a = a.Adv.parr + (8 * i) and addr_b = b.Adv.parr + (8 * i) in
      let va = Mem.read_int a.Adv.st.St.mem addr_a 8
      and vb = Mem.read_int b.Adv.st.St.mem addr_b 8 in
      (* compare as offsets: the two states have identical layouts, so
         absolute addresses line up slot for slot *)
      if va - a.Adv.parr <> vb - b.Adv.parr then
        bad := Some (Printf.sprintf "slot %d: values differ" i)
      else
        let ba, ea = St.meta_peek a.Adv.st addr_a
        and bb, eb = St.meta_peek b.Adv.st addr_b in
        if ba - a.Adv.parr <> bb - b.Adv.parr || ea - a.Adv.parr <> eb - b.Adv.parr
        then
          bad :=
            Some
              (Printf.sprintf
                 "slot %d: metadata (0x%x,0x%x) vs fresh-buffer (0x%x,0x%x)"
                 i ba ea bb eb)
    end
  done;
  !bad

let memmove_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"overlapping memmove preserves metadata (vs fresh buffer)"
       QCheck.(
         quad (bool : bool arbitrary) (int_range 3 8) (int_range 1 7) bool)
       (fun (hash, nslots, k, right) ->
         let k = 1 + (k mod (nslots - 1)) in
         let facility = if hash then Softbound.Config.Hash_table
           else Softbound.Config.Shadow_space in
         match memmove_equiv ~facility ~nslots ~k ~right () with
         | None -> true
         | Some why -> QCheck.Test.fail_report why))

(* ---------------------------------------------------------------- *)
(* Suite                                                              *)
(* ---------------------------------------------------------------- *)

let suite =
  [
    (* --- satellite: unchecked-scan regression pins, one per wrapper --- *)
    detects "strlen traps on unterminated string"
      (unterm "long n = strlen(s);");
    detects "strcpy traps scanning unterminated source"
      (unterm "char *d = (char*)malloc(64); strcpy(d, s);");
    detects "strcmp traps on unterminated operand"
      (unterm "int c = strcmp(s, \"AAAA\");");
    detects "strncmp traps when limit exceeds the block"
      (unterm "int c = strncmp(s, \"AAAA\", 100);");
    detects "strchr traps scanning unterminated string"
      (unterm "char *c = strchr(s, 'Z');");
    detects "strrchr traps scanning unterminated string"
      (unterm "char *c = strrchr(s, 'Z');");
    detects "strstr traps on unterminated haystack"
      (unterm "char *c = strstr(s, \"ZQ\");");
    detects "strdup traps on unterminated source"
      (unterm "char *c = strdup(s);");
    detects "puts traps on unterminated string"
      (unterm "puts(s);");
    detects "atoi traps on unterminated digits"
      (unterm_digits "int v = atoi(s);");
    detects "atof traps on unterminated digits"
      (unterm_digits "double v = atof(s);");
    detects "strtol traps on unterminated digits"
      (unterm_digits "long v = strtol(s, (char**)0, 10);");
    (* --- satellite: strncmp must not scan past its limit --- *)
    clean "strncmp with small n never scans past the limit"
      "int main(void) { char *a = (char*)malloc(8); char *b = (char*)malloc(8); \
       int i; for (i = 0; i < 8; i++) { a[i] = 'A'; b[i] = 'A'; } \
       return strncmp(a, b, 4); }";
    clean ~o:hash_opts "strncmp small n, hash-table facility"
      "int main(void) { char *a = (char*)malloc(8); char *b = (char*)malloc(8); \
       int i; for (i = 0; i < 8; i++) { a[i] = 'A'; b[i] = 'B'; } \
       return strncmp(a, b, 0) == 0; }";
    (* --- satellite: overlapping memmove keeps pointer metadata --- *)
    clean "overlapping memmove shift then deref (shadow)"
      "int main(void) { long **a = (long**)malloc(6 * sizeof(long*)); int i; \
       for (i = 0; i < 6; i++) { long *q = (long*)malloc(sizeof(long)); \
       q[0] = i + 10; a[i] = q; } \
       memmove(a + 2, a, 4 * sizeof(long*)); \
       long s = 0; for (i = 0; i < 6; i++) { long *q = a[i]; s = s + q[0]; } \
       return s == 67; }"
      (* slots become [b0,b1,b0,b1,b2,b3]: 10+11+10+11+12+13 = 67 *);
    clean ~o:hash_opts "overlapping memmove shift then deref (hash)"
      "int main(void) { long **a = (long**)malloc(8 * sizeof(long*)); int i; \
       for (i = 0; i < 8; i++) { long *q = (long*)malloc(sizeof(long)); \
       q[0] = i; a[i] = q; } \
       memmove(a + 1, a, 7 * sizeof(long*)); \
       memmove(a, a + 2, 6 * sizeof(long*)); \
       long s = 0; for (i = 0; i < 8; i++) { long *q = a[i]; s = s + q[0]; } \
       return s == 28; }"
      (* after shift-right: 0,0,1..6; after shift-left: 1..6,5,6 = 28 *);
    memmove_prop;
    (* --- the adversarial campaign --- *)
    tc "scenario generation is deterministic" (fun () ->
        let a = Adv.scenario_of ~seed:5 ~index:3
        and b = Adv.scenario_of ~seed:5 ~index:3 in
        Alcotest.(check bool) "equal" true (a = b);
        let c = Adv.scenario_of ~seed:5 ~index:4 in
        Alcotest.(check bool) "distinct indices differ" true (a <> c));
    tc "regression seeds are caught or confined, never escaped" (fun () ->
        let r = Adv.run_campaign ~seed:0 ~count:0 () in
        Alcotest.(check bool) "regression_ok" true r.Adv.regression_ok;
        Alcotest.(check int) "escaped" 0 r.Adv.escaped;
        Alcotest.(check bool) "some caught" true (r.Adv.caught > 0));
    tc "robust safety holds over 500 generated attacker pairs" (fun () ->
        let jobs = min 4 (Parutil.available_jobs ()) in
        let r = Adv.run_campaign ~jobs ~seed:42 ~count:500 () in
        Alcotest.(check int) "escaped" 0 r.Adv.escaped;
        Alcotest.(check bool) "regression_ok" true r.Adv.regression_ok;
        Alcotest.(check bool) "cases ran" true (r.Adv.cases >= 500);
        (* the campaign must actually exercise every attack class *)
        List.iter
          (fun (cls, (ca, co, _)) ->
            Alcotest.(check bool) (cls ^ " exercised") true (ca + co > 0))
          r.Adv.per_class);
    tc "campaign report is jobs-independent" (fun () ->
        let a = Adv.run_campaign ~jobs:1 ~seed:9 ~count:25 ()
        and b = Adv.run_campaign ~jobs:2 ~seed:9 ~count:25 () in
        Alcotest.(check bool) "equal reports" true (a = b));
  ]
