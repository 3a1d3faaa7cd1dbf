(* Redundant-check elimination (Elim) tests.

   The pass must be invisible except in the instruction stream: every
   program — safe or attacking — behaves identically with
   [eliminate_checks] on and off, while the static and dynamic check
   counts only ever go down.  Detection completeness is re-asserted over
   the whole Wilander/BugBench matrix with elimination explicitly on,
   in both full and store-only modes. *)

let on = Softbound.Config.default (* eliminate_checks defaults to true *)
let off = { on with Softbound.Config.eliminate_checks = false }
let store_on = Softbound.Config.store_only

let store_off =
  { store_on with Softbound.Config.eliminate_checks = false }

let hash_on =
  { on with Softbound.Config.facility = Softbound.Config.Hash_table }

let tc name f = Alcotest.test_case name `Quick f

let static_checks opts src =
  let m = Softbound.instrument ~opts (Softbound.compile src) in
  Hashtbl.fold
    (fun _ f acc -> acc + Softbound.Elim.count_checks f)
    m.Sbir.Ir.mfuncs 0

let static_metaloads opts src =
  let m = Softbound.instrument ~opts (Softbound.compile src) in
  Hashtbl.fold
    (fun _ f acc -> acc + Softbound.Elim.count_metaloads f)
    m.Sbir.Ir.mfuncs 0

let runs opts src =
  Softbound.run_protected ~opts (Softbound.compile src)

(* ---- induction-variable widening (Elim passes 1b/1c) helpers ---- *)

let no_widen = { on with Softbound.Config.widen_checks = false }

let fold_funcs opts src count =
  let m = Softbound.instrument ~opts (Softbound.compile src) in
  Hashtbl.fold (fun _ f acc -> acc + count f) m.Sbir.Ir.mfuncs 0

let widened src = fold_funcs on src Softbound.Elim.count_widened
let coalesced src = fold_funcs on src Softbound.Elim.count_coalesced

(* A legality-refusal case: the named loop shape must keep all its
   per-iteration checks (no span emitted anywhere in the program), and
   behave identically anyway. *)
let refuses name src =
  tc ("widening refused: " ^ name) (fun () ->
      Alcotest.(check int) "no spans emitted" 0 (widened src + coalesced src);
      let a = runs on src and b = runs no_widen src in
      Alcotest.(check string) "outcome agrees"
        (Interp.State.string_of_outcome b.outcome)
        (Interp.State.string_of_outcome a.outcome);
      Alcotest.(check string) "stdout agrees" b.stdout_text a.stdout_text)

(* The 500-program widening oracle: generated loop-heavy programs (the
   generator's affine scene plants canonical counted loops, and ~30% of
   cases carry an injected violation), run widen-on vs widen-off under
   a sampled engine x facility point.  Outcome, stdout, and the failing
   check's site id must be identical. *)
let obs_cfg =
  {
    Interp.State.default_config with
    Interp.State.obs_enabled = true;
    trace_depth = 1 lsl 12;
  }

let fail_site (r : Interp.Vm.result) =
  List.fold_left
    (fun acc ev ->
      match ev with
      | Obs.E_check { site; ok = false; _ } -> Some site
      | _ -> acc)
    None
    (Obs.events r.Interp.Vm.obs)

let widen_agrees (index, eng, fac) =
  let engine =
    if eng then Interp.State.Eng_closure else Interp.State.Eng_decode
  in
  let facility =
    List.nth
      [
        Softbound.Config.Hash_table;
        Softbound.Config.Shadow_space;
        Softbound.Config.Obj_header;
        Softbound.Config.Frame_tag;
        Softbound.Config.Wide_inline;
      ]
      fac
  in
  let case = Fuzz.case_of ~seed:2027 ~index in
  let m =
    Softbound.compile (Cminus.Pretty.program_string case.Fuzz.Gen.prog)
  in
  let cfg = { obs_cfg with Interp.State.engine } in
  let run widen_checks =
    Softbound.run_protected
      ~opts:{ on with Softbound.Config.facility; widen_checks }
      ~cfg m
  in
  let a = run true and b = run false in
  Interp.State.string_of_outcome a.outcome
  = Interp.State.string_of_outcome b.outcome
  && a.stdout_text = b.stdout_text
  && fail_site a = fail_site b

(* Read-modify-write accesses produce back-to-back identical checks
   (the load's and the store's), which the available-checks CSE merges;
   the loop-invariant metadata computation for [a] and [p] is hoisted
   to the preheader.  Exercises both halves of the pass. *)
let loopy =
  "int main(void) { int a[64]; int *p = (int*)malloc(4); int i; \
   for (i = 0; i < 100; i++) { a[i % 64] = i; a[i % 64] += 3; \
   *p = *p + a[i % 64]; } \
   printf(\"%d\\n\", *p); return 0; }"

(* Same outcome, same stdout, whatever the flag. *)
let agrees name src =
  tc name (fun () ->
      let a = runs on src and b = runs off src in
      (match (a.outcome, b.outcome) with
      | Interp.State.Exit x, Interp.State.Exit y when x = y -> ()
      | x, y ->
          Alcotest.fail
            (Printf.sprintf "outcomes differ: %s vs %s"
               (Interp.State.string_of_outcome x)
               (Interp.State.string_of_outcome y)));
      Alcotest.(check string) "stdout agrees" b.stdout_text a.stdout_text)

(* ---- golden: instrumented-IR digests ---- *)
(* The pass rewrites IR only where the paper's argument allows it, and
   any change to how it searches (sweep order, analysis reuse) must
   leave that IR byte-identical.  One MD5 of [Pretty_ir.dump_module] per
   program and option set is pinned in golden/elim_ir.digests;
   regenerate with [make elim-golden] after reviewing an intentional IR
   change.  The corpus is test/golden/golden_corpus.ml, which the generator
   reads too. *)

let elim_corpus = Golden_corpus.elim

let ir_digest opts src =
  let m, _ = Softbound.instrument_with_sites ~opts (Softbound.compile src) in
  Digest.to_hex (Digest.string (Sbir.Pretty_ir.dump_module m))

let golden_digests () =
  let expected = Committed.read (Committed.golden "elim_ir.digests") in
  let actual =
    String.concat ""
      (List.map
         (fun (label, opts, src) ->
           Printf.sprintf "%s %s\n" (ir_digest opts src) label)
         elim_corpus)
  in
  Alcotest.(check string) "elim_ir.digests" expected actual

(* ---- deep-nest hoisting ---- *)
(* Eight nested do-while loops (a do-while body runs on every loop entry,
   so a check there may leave the loop); the innermost body dereferences
   [pp] twice.  The check on [pp] itself and the metadata lookup of the
   pointer it reads are invariant in every loop: the sweep must carry
   them, one loop at a time, out to the outermost preheader.  The check
   on [*pp] reads a loaded value and stays in the innermost loop. *)
let deep_nest =
  {|int main(void) {
  int x = 5;
  int *p = &x;
  int **pp = &p;
  int a = 0; int b; int c; int d; int e; int g; int h; int k;
  int s = 0;
  do { b = 0; do { c = 0; do { d = 0; do { e = 0; do { g = 0; do {
    h = 0; do { k = 0; do {
      s += **pp;
      k = k + 1; } while (k < 2);
    h = h + 1; } while (h < 2);
    g = g + 1; } while (g < 2); e = e + 1; } while (e < 2);
    d = d + 1; } while (d < 2); c = c + 1; } while (c < 2);
    b = b + 1; } while (b < 2); a = a + 1; } while (a < 2);
  printf("%d\n", s);
  return s % 251;
}|}

let sb_main opts =
  let m = Softbound.instrument ~opts (Softbound.compile deep_nest) in
  Hashtbl.find m.Sbir.Ir.mfuncs (Softbound.Transform.sb_name "main")

(* instrumentation site ids in a block *)
let block_sites (blk : Sbir.Ir.block) =
  List.filter_map
    (function
      | Sbir.Ir.Check (_, _, _, _, s) -> Some (`Check, s)
      | Sbir.Ir.MetaLoad (_, _, _, s) -> Some (`MetaLoad, s)
      | _ -> None)
    blk.Sbir.Ir.insts

let loops_of f =
  let dom = Sbir.Dom.compute f in
  (dom, Sbir.Dom.natural_loops dom)

let deep_nest_hoists () =
  (* where the instrumentation starts: the innermost loop, elim off *)
  let f_off = sb_main off in
  let _, loops_off = loops_of f_off in
  Alcotest.(check int) "eight loops" 8 (List.length loops_off);
  let inner = List.hd loops_off in
  let inner_sites =
    List.concat
      (List.filteri (fun b _ -> inner.Sbir.Dom.body.(b))
         (Array.to_list (Array.map block_sites f_off.Sbir.Ir.fblocks)))
  in
  let count kind l = List.length (List.filter (fun (k, _) -> k = kind) l) in
  Alcotest.(check int) "innermost metadata lookups (elim off)" 1
    (count `MetaLoad inner_sites);
  Alcotest.(check int) "innermost checks (elim off)" 2
    (count `Check inner_sites);
  (* where it ends: the outermost preheader, elim on *)
  let f = sb_main on in
  let dom, loops = loops_of f in
  Alcotest.(check int) "still eight loops" 8 (List.length loops);
  let outer = List.nth loops 7 in
  let in_loop b = List.exists (fun l -> l.Sbir.Dom.body.(b)) loops in
  let pre =
    match
      List.filter
        (fun p -> not outer.Sbir.Dom.body.(p))
        dom.Sbir.Dom.preds.(outer.Sbir.Dom.header)
    with
    | [ p ] -> p
    | _ -> Alcotest.fail "outermost loop has no unique preheader"
  in
  let where site =
    let found = ref [] in
    Array.iteri
      (fun b blk ->
        if List.exists (fun (_, s) -> s = site) (block_sites blk) then
          found := b :: !found)
      f.Sbir.Ir.fblocks;
    !found
  in
  let hoisted, kept =
    List.partition (fun (_, s) -> where s = [ pre ]) inner_sites
  in
  Alcotest.(check int) "metadata lookup in the outermost preheader" 1
    (count `MetaLoad hoisted);
  Alcotest.(check int) "check on pp in the outermost preheader" 1
    (count `Check hoisted);
  (match kept with
  | [ (`Check, s) ] ->
      Alcotest.(check bool) "check on *pp stays in the innermost loop" true
        (List.for_all (fun b -> inner.Sbir.Dom.body.(b)) (where s))
  | _ -> Alcotest.fail "expected exactly the check on *pp to stay");
  Alcotest.(check bool) "no metadata lookup left in any loop" true
    (Array.for_all Fun.id
       (Array.mapi
          (fun b blk -> (not (in_loop b)) || count `MetaLoad (block_sites blk) = 0)
          f.Sbir.Ir.fblocks));
  let a = runs on deep_nest and b = runs off deep_nest in
  Alcotest.(check string) "outcome agrees"
    (Interp.State.string_of_outcome b.outcome)
    (Interp.State.string_of_outcome a.outcome);
  Alcotest.(check string) "stdout agrees" b.stdout_text a.stdout_text;
  Alcotest.(check string) "expected stdout" "1280\n" a.stdout_text

(* ---- available-checks CSE: what kills a fact ---- *)
(* Hand-built functions, so nothing but the rule under test decides.
   r0 = pointer, r1 = base, r2 = bound, r3 = a spare value. *)
let cse_func blocks =
  {
    Sbir.Ir.fname = "t";
    fparams = [ (0, Sbir.Ir.P); (1, Sbir.Ir.P); (2, Sbir.Ir.P); (3, Sbir.Ir.P) ];
    frets = [];
    fvariadic = false;
    fva_regs = None;
    fslots = [||];
    fframe_size = 0;
    fblocks = Array.of_list blocks;
    fnregs = 4;
  }

let chk site = Sbir.Ir.Check (Reg 0, Reg 1, Reg 2, 4, site)

let checks_after blocks =
  Softbound.Elim.count_checks
    (Softbound.Elim.elim_func ~meta_floor:0 (cse_func blocks))

let cse_kills =
  let open Sbir.Ir in
  [
    tc "check CSE: redefining the bound register keeps both checks"
      (fun () ->
        Alcotest.(check int) "checks" 2
          (checks_after
             [
               {
                 insts = [ chk 1; Mov (2, P, Reg 3); chk 2 ];
                 term = TRet [];
               };
             ]));
    tc "check CSE: a store and a call do not kill a check" (fun () ->
        Alcotest.(check int) "checks" 1
          (checks_after
             [
               {
                 insts =
                   [
                     chk 1;
                     Store (I32, Reg 0, ImmI 7);
                     Call
                       {
                         rets = [];
                         callee = Func "f";
                         sg = { cargs = []; crets = []; cvariadic = false };
                         hints = [];
                         args = [];
                       };
                     chk 2;
                   ];
                 term = TRet [];
               };
             ]));
    tc "check CSE: a check on one arm does not cover the join" (fun () ->
        Alcotest.(check int) "checks" 2
          (checks_after
             [
               { insts = []; term = TBr (Reg 3, 1, 2) };
               { insts = [ chk 1 ]; term = TJmp 3 };
               { insts = []; term = TJmp 3 };
               { insts = [ chk 2 ]; term = TRet [] };
             ]));
  ]

let suite =
  [
    (* ---------------- the pass actually fires ---------------- *)
    tc "static checks drop on a loopy program" (fun () ->
        let n_on = static_checks on loopy and n_off = static_checks off loopy in
        Alcotest.(check bool)
          (Printf.sprintf "fewer static checks (%d < %d)" n_on n_off)
          true (n_on < n_off));
    tc "static metadata lookups drop too" (fun () ->
        let n_on = static_metaloads on loopy
        and n_off = static_metaloads off loopy in
        Alcotest.(check bool)
          (Printf.sprintf "fewer static MetaLoads (%d <= %d)" n_on n_off)
          true (n_on <= n_off));
    tc "dynamic checks drop on a loopy program" (fun () ->
        let a = runs on loopy and b = runs off loopy in
        let ca = a.stats.Interp.State.checks
        and cb = b.stats.Interp.State.checks in
        Alcotest.(check bool)
          (Printf.sprintf "fewer dynamic checks (%d < %d)" ca cb)
          true (ca < cb);
        Alcotest.(check bool) "fewer cycles" true
          (a.stats.Interp.State.cycles < b.stats.Interp.State.cycles));
    tc "eliminated module still validates" (fun () ->
        Sbir.Ir.validate
          (Softbound.instrument ~opts:on (Softbound.compile loopy)));
    (* ---------------- behavioural equivalence ---------------- *)
    agrees "safe loop is untouched observationally" loopy;
    agrees "linked list build and sum"
      "typedef struct n { int v; struct n *next; } n_t; \
       int main(void) { n_t *h = NULL; int i; for (i = 0; i < 30; i++) { \
       n_t *x = (n_t*)malloc(sizeof(n_t)); x->v = i; x->next = h; h = x; } \
       int s = 0; n_t *c; for (c = h; c; c = c->next) s += c->v; \
       printf(\"%d\\n\", s); return 0; }";
    agrees "early exit inside the loop (no zero-trip miscompile)"
      "int main(void) { int a[8]; int i; for (i = 0; i < 100; i++) { \
       if (i == 3) return 7; a[i] = i; } return 0; }";
    agrees "zero-trip loop over out-of-bounds body"
      "int main(void) { int a[4]; int i; int n = 0; \
       for (i = 0; i < n; i++) a[i + 100] = 1; printf(\"ok\\n\"); return 0; }";
    agrees "pointer redefinition in the loop kills availability"
      "int main(void) { int x = 1; int y = 2; int *p = &x; int i; int s = 0; \
       for (i = 0; i < 10; i++) { s += *p; p = (i % 2 == 0) ? &y : &x; } \
       printf(\"%d\\n\", s); return 0; }";
    (* ---------------- detection is preserved ---------------- *)
    tc "overflow in a hoisted-check loop still aborts" (fun () ->
        let src =
          "int main(void) { int a[8]; int i; int s = 0; \
           for (i = 0; i < 9; i++) s += a[i]; return s; }"
        in
        Alcotest.(check bool) "elim on detects" true
          (Softbound.detected (runs on src));
        Alcotest.(check bool) "elim off detects" true
          (Softbound.detected (runs off src)));
    tc "overflow on the last iteration only" (fun () ->
        let src =
          "int main(void) { int *p = (int*)malloc(16); int i; \
           for (i = 0; i <= 4; i++) p[i] = i; return 0; }"
        in
        Alcotest.(check bool) "detected" true
          (Softbound.detected (runs on src));
        Alcotest.(check bool) "hash facility too" true
          (Softbound.detected (runs hash_on src)));
    tc "store-only with elimination still catches writes" (fun () ->
        let src =
          "int main(void) { char *d = (char*)malloc(4); \
           strcpy(d, \"much too long\"); return 0; }"
        in
        Alcotest.(check bool) "detected" true
          (Softbound.detected (runs store_on src)));
    tc "all 18 attacks abort with elimination on (full + store-only)"
      (fun () ->
        List.iter
          (fun (a : Attacks.Wilander.attack) ->
            let label o =
              Printf.sprintf "attack %02d (%s): %s" a.id o a.technique
            in
            Alcotest.(check bool) (label "full") true
              (Softbound.detected (runs on a.source));
            Alcotest.(check bool)
              (label "store-only")
              true
              (Softbound.detected (runs store_on a.source)))
          Attacks.Wilander.all);
    tc "bugbench verdicts are unchanged by elimination" (fun () ->
        List.iter
          (fun (p : Attacks.Bugbench.program) ->
            let v o = Softbound.detected (runs o p.source) in
            Alcotest.(check bool) (p.name ^ " full") (v off) (v on);
            Alcotest.(check bool)
              (p.name ^ " store-only")
              (v store_off) (v store_on))
          Attacks.Bugbench.all);
    (* ---------------- induction-variable widening ---------------- *)
    tc "widening fires on a canonical counted loop" (fun () ->
        let src =
          "int main(void) { int a[16]; int i; int s = 0; \
           for (i = 0; i < 16; i++) a[i] = i; \
           for (i = 0; i < 16; i++) s += a[i]; \
           printf(\"%d\\n\", s); return 0; }"
        in
        Alcotest.(check bool) "spans emitted" true (widened src > 0);
        let a = runs on src and b = runs no_widen src in
        Alcotest.(check string) "stdout agrees" b.stdout_text a.stdout_text;
        Alcotest.(check bool)
          (Printf.sprintf "fewer dynamic checks (%d < %d)"
             a.stats.Interp.State.checks b.stats.Interp.State.checks)
          true
          (a.stats.Interp.State.checks < b.stats.Interp.State.checks));
    tc "coalescing folds same-base consecutive checks" (fun () ->
        let src =
          "int main(void) { int a[8]; \
           a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4; \
           printf(\"%d\\n\", a[0] + a[3]); return 0; }"
        in
        Alcotest.(check bool) "checks coalesced" true (coalesced src > 0);
        let a = runs on src and b = runs no_widen src in
        Alcotest.(check string) "stdout agrees" b.stdout_text a.stdout_text);
    refuses "early break (trip count not exact)"
      "int main(void) { int a[8]; int i; int s = 0; \
       for (i = 0; i < 8; i++) { a[i] = i; if (i == 5) break; } \
       for (i = 0; i < 6; i++) { s += a[i]; if (s > 99) break; } \
       printf(\"%d\\n\", s); return 0; }";
    refuses "call inside the loop body"
      "int main(void) { int a[8]; int i; \
       for (i = 0; i < 8; i++) { a[i] = i; printf(\"%d \", a[i]); } \
       printf(\"\\n\"); return 0; }";
    refuses "unknown trip count (limit redefined in the loop)"
      "int main(void) { int a[8]; int i; int n = 6; int s = 0; \
       for (i = 0; i < n; i++) { a[i] = i; s += a[i]; if (i == 2) n = 4; } \
       printf(\"%d %d\\n\", s, n); return 0; }";
    refuses "negative stride (down-counting loop)"
      "int main(void) { int a[8]; int i; int s = 0; \
       for (i = 7; i >= 0; i = i - 1) a[i] = i; \
       for (i = 7; i >= 0; i = i - 1) s += a[i]; \
       printf(\"%d\\n\", s); return 0; }";
    tc "widened loop traps at the same point as unwidened" (fun () ->
        let src =
          "int main(void) { int a[8]; int i; \
           for (i = 0; i < 12; i++) a[i] = i; return 0; }"
        in
        let a = runs on src and b = runs no_widen src in
        Alcotest.(check string) "same trap message"
          (Interp.State.string_of_outcome b.outcome)
          (Interp.State.string_of_outcome a.outcome);
        Alcotest.(check bool) "detected" true (Softbound.detected a));
    tc "store-only: a load faulting before the failing store (divergence 2)"
      (fun () ->
        (* DESIGN section 12, divergence (2): store-only mode leaves the
           load unchecked, and widening moves the store's check to the
           preheader.  The load faults on iteration 0, the store would
           fail on iteration 8: unwidened, the load's fault ends the run;
           widened, the store's span check traps before the loop. *)
        let src =
          "int main(void) { int a[8]; int *q = 0; int i; int s = 0; \
           for (i = 0; i < 12; i++) { s = s + q[i]; a[i] = s; } \
           return s; }"
        in
        let store_nw = { store_on with Softbound.Config.widen_checks = false } in
        Alcotest.(check bool) "the store's check is widened" true
          (fold_funcs store_on src Softbound.Elim.count_widened > 0);
        let a = runs store_on src and b = runs store_nw src in
        Alcotest.(check string) "unwidened: the load faults"
          "segmentation fault at 0x0"
          (Interp.State.string_of_outcome b.outcome);
        Alcotest.(check string) "widened: the span check traps on element 8"
          "SoftBound: bounds violation at _sb_main: ptr=0xffffffff0 size=4 \
           not within [0xfffffffd0, 0xffffffff0)"
          (Interp.State.string_of_outcome a.outcome));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:
           "widen on/off agree (outcome, stdout, trap site; both engines, \
            all facilities)"
         ~count:500
         QCheck.(
           triple
             (make ~print:string_of_int Gen.(int_bound 249))
             bool (int_range 0 4))
         widen_agrees);
    (* ---------------- qcheck properties ---------------- *)
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"random in-bounds walks agree (outcome, stdout, check count)"
         ~count:30
         QCheck.(pair (int_range 1 40) (int_range 1 5))
         (fun (n, stride) ->
           let src =
             Printf.sprintf
               "int main(void) { int a[%d]; int i; int s = 0; \
                for (i = 0; i < %d; i += %d) a[i] = i; \
                for (i = 0; i < %d; i += %d) s += a[i]; \
                printf(\"%%d\\n\", s); return 0; }"
               n n stride n stride
           in
           let a = runs on src and b = runs off src in
           a.outcome = b.outcome
           && a.stdout_text = b.stdout_text
           && a.stats.Interp.State.checks <= b.stats.Interp.State.checks));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"random overflows detected identically with elim on/off"
         ~count:30
         QCheck.(pair (int_range 1 32) (int_range 0 8))
         (fun (n, past) ->
           let src =
             Printf.sprintf
               "int main(void) { int a[%d]; int i; int s = 0; \
                for (i = 0; i <= %d; i++) s += a[i]; return s; }"
               n
               (n + past)
           in
           Softbound.detected (runs on src)
           && Softbound.detected (runs off src)));
  ]
  @ [
      tc "golden: instrumented IR is byte-identical" golden_digests;
      tc "deep nest: invariant lookup and check reach the outermost preheader"
        deep_nest_hoists;
    ]
  @ cse_kills
