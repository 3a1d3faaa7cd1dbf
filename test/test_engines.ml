(* Cross-engine suite: the threaded-code engine ({!Interp.Engine}, the
   one every library run uses) against the reference decode loop
   ({!Vm.run}).  They are two executions of the same semantics, so every
   observable of a run — outcome (including the trap site and bounds in
   its message), program stdout, the full simulated-cost statistics
   block, cache behavior, residency, heap accounting, and per-site
   observability attribution — must be bit-identical between them.  The
   suite drives both over a fixed corpus of 200 generated programs (OOB
   planting on, so a third of the corpus traps) plus the hand-written
   regression programs, under both the unprotected and full-checking
   pipelines.  It is the check on the engine's per-opcode accounting
   that nothing else makes: a mis-charged opcode that every other suite
   misses diverges here (DESIGN.md section 9). *)

module St = Interp.State
module Vm = Interp.Vm
module Gen = Fuzz.Gen
module Rng = Fuzz.Rng

(* Everything a run exposes, flattened to structurally comparable data.
   [Obs.per_site] and friends pin the attribution machinery: if an
   engine charged a check to the wrong site (or failed to charge it),
   the fingerprints diverge even when totals happen to agree. *)
let fingerprint (r : Vm.result) =
  let s = r.Vm.stats in
  ( ( St.string_of_outcome r.Vm.outcome,
      r.Vm.stdout_text,
      [
        s.St.insts; s.St.cycles; s.St.mem_reads; s.St.mem_writes;
        s.St.ptr_mem_ops; s.St.checks; s.St.meta_loads; s.St.meta_stores;
        s.St.ht_probes; s.St.ht_resizes; s.St.calls; s.St.max_frames;
        r.Vm.cache_hits; r.Vm.cache_misses; r.Vm.resident_bytes;
        r.Vm.heap_peak; r.Vm.heap_live;
      ] ),
    ( Obs.per_site r.Vm.obs,
      Obs.wrapper_stats r.Vm.obs,
      Obs.seg_stats r.Vm.obs,
      Obs.attribution r.Vm.obs ) )

let cfg = { St.default_config with max_steps = 3_000_000 }

(* the reference run and the engine's, on one module and one config; a
   plugin checker is stateful, so each run gets its own *)
let run_both ?opts ?checker m =
  let m, cfg =
    match opts with
    | None -> (m, cfg)
    | Some opts ->
        (Softbound.instrument ~opts m, Softbound.protected_cfg ~opts cfg)
  in
  let fresh () =
    { cfg with St.checker = Option.map (fun mk -> mk ()) checker }
  in
  (Vm.run ~cfg:(fresh ()) m, Interp.Engine.run ~cfg:(fresh ()) m)

(* the engine's result, once it agrees with the reference's *)
let same_result label ?opts ?checker m =
  let d, c = run_both ?opts ?checker m in
  let fd = fingerprint d and fc = fingerprint c in
  if fd <> fc then
    Alcotest.failf "%s: engines diverge\n  decode:  %s | %S\n  closure: %s | %S"
      label
      (St.string_of_outcome d.Vm.outcome)
      d.Vm.stdout_text
      (St.string_of_outcome c.Vm.outcome)
      c.Vm.stdout_text;
  c

let check_same label ?opts ?checker m =
  ignore (same_result label ?opts ?checker m : Vm.result)

(* hand-written programs covering shapes the generator rarely stresses:
   setjmp/longjmp unwinding, function pointers, varargs printf, a
   guaranteed bounds trap whose site identity both engines must agree
   on, and the opcodes no other suite tells apart from a mis-compiled
   neighbour: a runtime unsigned shift ([shr.u64] run as [asr]), a
   [float] store and reload ([store.f32] written as 8 bytes), and
   [setbound], which only an unprotected run executes as
   [setbound.mark] (a skipped step count).  "setjmp in the calling
   block" makes a call land on a [setjmp] earlier in its own block: the
   [longjmp] is picked from a function-pointer array by a comparison,
   so no branch splits the block, and the engine must leave the block
   at the call instead of continuing after it. *)
let regressions =
  [
    ( "oob trap site",
      "int main(void) { long a[4]; long i; for (i = 0; i <= 4; i = i + 1) \
       a[i] = i; printf(\"%ld\\n\", a[0]); return 0; }" );
    ( "function pointers",
      "long add(long a, long b) { return a + b; }\n\
       long sub(long a, long b) { return a - b; }\n\
       int main(void) { long (*f)(long, long) = add; long s = f(3, 4);\n\
       f = sub; s += f(10, 1); printf(\"%ld\\n\", s); return 0; }" );
    ( "setjmp unwinding",
      "#include <setjmp.h>\n\
       jmp_buf env;\n\
       void deep(int n) { if (n == 0) longjmp(env, 7); deep(n - 1); }\n\
       int main(void) { int r = setjmp(env);\n\
       if (r == 0) { deep(5); return 1; }\n\
       printf(\"%d\\n\", r); return 0; }" );
    ( "heap churn",
      "int main(void) { long i; long *p; long s = 0;\n\
       for (i = 1; i < 40; i = i + 1) { p = malloc(8 * i);\n\
       p[i - 1] = i; s += p[i - 1]; if (i % 3 == 0) free(p); }\n\
       printf(\"%ld\\n\", s); return 0; }" );
    ( "unsigned shift",
      "int main(int argc, char **argv) {\n\
       unsigned long x = (unsigned long)(0 - argc); long n = argc + 2;\n\
       printf(\"%ld\\n\", (long)(x >> n)); return 0; }" );
    ( "float array",
      "int main(int argc, char **argv) { float a[4]; long i;\n\
       for (i = 0; i < 4; i = i + 1) a[i] = (float)(i + argc) / 3.0;\n\
       printf(\"%f %f %f %f\\n\", a[0], a[1], a[2], a[3]); return 0; }" );
    ( "setbound",
      "int main(void) { char *p = (char *)malloc(16); long i;\n\
       for (i = 0; i < 3; i = i + 1) setbound(p, 4 + i);\n\
       p[3] = 7; printf(\"%d\\n\", p[3]); return 0; }" );
    ( "setjmp in the calling block",
      "#include <setjmp.h>\n\
       jmp_buf env;\n\
       long count;\n\
       void stay(long *e, int v) { }\n\
       int main(void) { void (*fns[2])(long *, int);\n\
       fns[0] = stay; fns[1] = longjmp;\n\
       int r = setjmp(env); count = count + 1; fns[r == 0](env, 7);\n\
       printf(\"%d %ld\\n\", r, count); return 0; }" );
    (* the call path: arguments and return values copied between
       register files, frame records reused per depth *)
    ( "float arguments and returns",
      "float half(float v) { return v / 2; }\n\
       double scale(double x, float y, long k) { return x * y + k; }\n\
       int main(void) { double d = scale(1.5, half(3.0), 2);\n\
       float h = half((float)d); printf(\"%f %f\\n\", d, h);\n\
       return (int)(d * 10); }" );
    ( "six arguments",
      "long mix(long *p, long a, char *s, long b, double x, long c) {\n\
       return p[1] + a * b - c + s[2] + (long)x; }\n\
       int main(void) { long v[3]; char s[4]; v[0] = 1; v[1] = 20; v[2] = 3;\n\
       s[0] = 'a'; s[1] = 'b'; s[2] = 'c'; s[3] = 0;\n\
       printf(\"%ld\\n\", mix(v, 4, s, 5, 2.5, 6)); return 0; }" );
    ( "mutual recursion",
      "int is_odd(long n);\n\
       int is_even(long n) { if (n == 0) return 1; return is_odd(n - 1); }\n\
       int is_odd(long n) { if (n == 0) return 0; return is_even(n - 1); }\n\
       int main(void) { printf(\"%d %d\\n\", is_even(40), is_odd(25));\n\
       return 0; }" );
    ( "arity mismatch through a function pointer",
      "long add2(long a, long b) { return a + b; }\n\
       int main(void) { long (*f)(long) = (long (*)(long))add2;\n\
       printf(\"%ld\\n\", f(1)); return 0; }" );
    ( "recursion to the frame limit",
      "long down(long n) { if (n < 0) return 0; return down(n + 1) + 1; }\n\
       int main(void) { printf(\"%ld\\n\", down(0)); return 0; }" );
    ( "longjmp out of deep recursion",
      "#include <setjmp.h>\n\
       jmp_buf outer;\n\
       jmp_buf inner_env;\n\
       long deep(long n) { if (n == 0) longjmp(outer, 2); return deep(n - 1) + 1; }\n\
       long inner(long n, long stale) { if (n < 0) return inner(n + 1, stale);\n\
       if (stale) longjmp(inner_env, 1);\n\
       if (setjmp(inner_env) == 0) return deep(n); return 9; }\n\
       long sum(long n) { if (n == 0) return 0; return n + sum(n - 1); }\n\
       int main(void) { int r = setjmp(outer);\n\
       if (r == 0) { inner(120, 0); return 1; }\n\
       printf(\"%d %ld\\n\", r, sum(200));\n\
       return inner(0, 1); }" );
    ( "qsort comparator that calls",
      "long calls;\n\
       long key(long *p) { calls = calls + 1; return *p; }\n\
       int cmp(void *a, void *b) { long x = key((long *)a);\n\
       long y = key((long *)b); return (x > y) - (x < y); }\n\
       int main(void) { long a[9]; int i;\n\
       for (i = 0; i < 9; i = i + 1) a[i] = (i * 7 + 3) % 10;\n\
       qsort(a, 9, sizeof(long), cmp);\n\
       for (i = 0; i < 9; i = i + 1) printf(\"%ld \", a[i]);\n\
       printf(\"%ld\\n\", calls); return 0; }" );
    ( "pointer return carries its bounds",
      "long *pick(long *a, long *b, long k) {\n\
       if (k < 0) return pick(a, b, k + 1); if (k) return a; return b; }\n\
       int main(void) { long x[4]; long y[2]; long *p = pick(x, y, 1);\n\
       p[3] = 5; long *q = pick(x, y, 0); q[1] = 6;\n\
       printf(\"%ld %ld\\n\", x[3], y[1]); q[3] = 7; return 0; }" );
    ( "setjmp in main, many calls, longjmp",
      "#include <setjmp.h>\n\
       jmp_buf env;\n\
       jmp_buf g;\n\
       long tri(long n) { if (n == 0) return 0; return n + tri(n - 1); }\n\
       long guard(long n, long stale) { if (stale) longjmp(g, 1);\n\
       if (setjmp(g) == 0) return tri(n) + 1; return 0; }\n\
       int main(void) { long s = 0; long i; int r = setjmp(env);\n\
       if (r == 0) { for (i = 0; i < 200; i = i + 1)\n\
       s = s + tri(i % 17) + guard(i % 5, 0);\n\
       longjmp(env, 5); }\n\
       printf(\"%d %ld\\n\", r, s); return guard(0, 1); }" );
  ]

let fuzz_corpus_size = 200

(* ------------------------------------------------------------------ *)
(* Module images: load once, run many                                   *)
(* ------------------------------------------------------------------ *)

(* Every observable of a run, plus the fields [fingerprint] leaves out:
   the whole statistics record and the heap allocation count. *)
let full_fingerprint (r : Vm.result) =
  (fingerprint r, r.Vm.stats, r.Vm.heap_allocs)

(* writes its globals (scalars, an array, a string, a pointer
   initializer), calls builtins through function pointers, and churns
   the heap *)
let globals_fptr_source =
  "long total;\n\
   long table[4] = {1, 2, 3, 4};\n\
   char msg[8] = \"hello\";\n\
   long *cursor = &table[1];\n\
   int main(void) {\n\
  \  long (*len)(char *) = strlen;\n\
  \  int (*up)(int) = toupper;\n\
  \  long i; long *p;\n\
  \  for (i = 0; i < 4; i = i + 1) {\n\
  \    table[i] = table[i] * 10 + len(msg); total += table[i];\n\
  \    p = malloc(8 * (i + 1)); p[i] = total; total += p[i] % 7; free(p); }\n\
  \  *cursor = total;\n\
  \  msg[0] = up(msg[0]);\n\
  \  printf(\"%s %ld %ld\\n\", msg, total, table[1]);\n\
  \  return (int)(total % 100);\n\
   }"

let image_sources =
  Array.to_list Harness.Exp_serve.run_sources @ [ globals_fptr_source ]

let protected_cfg fac = { St.default_config with St.meta = Some fac }
let facilities = [ ("shadow", St.Shadow_space); ("hash", St.Hash_table) ]

let test_image_reuse () =
  List.iteri
    (fun pi src ->
      let m = Softbound.instrument (Softbound.compile src) in
      List.iter
        (fun (fname, fac) ->
          let cfg = protected_cfg fac in
          let first = full_fingerprint (Interp.Engine.run ~cfg m) in
          for k = 2 to 3 do
            if full_fingerprint (Interp.Engine.run ~cfg m) <> first then
              Alcotest.failf "program %d, %s: run %d differs from run 1" pi
                fname k
          done)
        facilities;
      (* the transform does not depend on the facility, so shadow and
         hash runs share this module's image: a hash run after the
         shadow runs above must match one on a freshly compiled module *)
      let fresh = Softbound.instrument (Softbound.compile src) in
      let cfg = protected_cfg St.Hash_table in
      if
        full_fingerprint (Interp.Engine.run ~cfg m)
        <> full_fingerprint (Interp.Engine.run ~cfg fresh)
      then Alcotest.failf "program %d: hash run on a reused image differs" pi)
    image_sources

let test_image_shared_across_domains () =
  let m = Softbound.instrument (Softbound.compile globals_fptr_source) in
  let built = Vm.images_built () in
  let per_domain =
    Parutil.parmap ~jobs:4
      (fun _ ->
        let cfg = protected_cfg St.Hash_table in
        List.init 50 (fun _ -> full_fingerprint (Interp.Engine.run ~cfg m)))
      [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "image built once" (built + 1) (Vm.images_built ());
  let first = List.hd (List.hd per_domain) in
  List.iteri
    (fun d runs ->
      List.iteri
        (fun k r ->
          if r <> first then
            Alcotest.failf "domain %d, run %d differs from the first run" d k)
        runs)
    per_domain

(* Loading a module again allocates only the run's own state.  The word
   count is deterministic, so this guards the budget where timings are
   too noisy to.  [Gc.minor_words] counts every word allocated on the
   minor heap, including what it still holds. *)
let test_create_allocation_budget () =
  let m = Softbound.instrument (Softbound.compile globals_fptr_source) in
  List.iter
    (fun (fname, fac) ->
      let cfg = protected_cfg fac in
      ignore (Vm.create ~cfg m);
      let w0 = Gc.minor_words () in
      let ld = Vm.create ~cfg m in
      let words = int_of_float (Gc.minor_words () -. w0) in
      ignore (Sys.opaque_identity ld);
      if words > 2_000 then
        Alcotest.failf "%s: second Vm.create allocated %d words (budget 2000)"
          fname words)
    facilities

(* A simulated call allocates next to nothing: the frame record and
   register file at each depth are reused, and arguments and return
   values move between register files unboxed.  Measured like the
   second-[Vm.create] budget above: the whole life of one run of the
   recursive serve program (load, run, result), the least of three, per
   call it makes. *)
let words_per_call_budget = 24.0

let test_call_allocation_budget () =
  let opts = Softbound.Config.default in
  let m =
    Softbound.instrument ~opts
      (Softbound.compile Harness.Exp_serve.run_sources.(4))
  in
  let cfg = Softbound.protected_cfg ~opts St.default_config in
  let run () =
    let w0 = Gc.minor_words () in
    let ld = Vm.create ~cfg m in
    let r = Vm.finish ld (Interp.Engine.run_main ld) in
    let w = Gc.minor_words () -. w0 in
    ignore (Sys.opaque_identity r);
    (w, r.Vm.stats.St.calls)
  in
  ignore (run ());
  let (w1, calls), (w2, _), (w3, _) = (run (), run (), run ()) in
  let per_call = min w1 (min w2 w3) /. float_of_int calls in
  if per_call > words_per_call_budget then
    Alcotest.failf "%.1f words per call over %d calls (budget %.0f)" per_call
      calls words_per_call_budget

(* What the call-path regressions end in, on the engine every run uses.
   Both engines share the frame code, so a fault there (a reused frame
   record that a stale setjmp context still names, say) cannot make
   them diverge; only the expected outcome catches it. *)
let call_path_outcomes =
  [
    ( "arity mismatch through a function pointer",
      "runtime error: add2: called with 1 args, expects 2", "" );
    ("recursion to the frame limit", "runtime error: call stack overflow", "");
    ( "longjmp out of deep recursion",
      "CONTROL-FLOW HIJACKED: longjmp buffer overwritten; control transfers \
       to inner",
      "2 20100\n" );
    ( "setjmp in main, many calls, longjmp",
      "CONTROL-FLOW HIJACKED: longjmp buffer overwritten; control transfers \
       to guard",
      "5 10340\n" );
  ]

(* Superinstructions.  One program holding every fused shape: a
   compare and the branch on it (each relation, narrow and word types),
   the array-index idiom with and without its load, a [Gep] and the load
   through it, a [Mov] or a [Store] before a [TJmp], jumps into blocks
   that hold only a jump, and — under full checking — a [Check] before
   the load or store it guards.  Given an argument it ends on a wild
   load: the unprotected run traps in the second half of a [Gep] and
   [Load] pair, the protected one in the first half of a [Check] and
   [Load] pair. *)
let fused_shapes =
  {|struct P { long x; long y; };
struct P q;
int a[8];
long b[8];
int main(int argc, char **argv) {
  int i;
  long s = 0;
  struct P *pp = &q;
  unsigned char c = 250;
  short h = -3;
  q.y = 3;
  for (i = 0; i < 8; i++) a[i] = (i * 5) & 7;
  for (i = 0; i < 8; i++) b[a[i]] = b[a[i]] + i;
  for (i = 0; i < 8; i++) {
    if (a[i] == 3) s = s + pp->y;
    if (a[i] != 2) s = s + 1;
    if (a[i] >= 5) s = s + 2;
    if (a[i] <= 1) s = s - 1;
    if (a[i] > 6) s = s + 7;
    s = s + a[i] * b[i];
  }
  c = c + 10;
  if (c < 5) s = s + 100;
  if (h < 0) s = s + 1000;
  if (argc > 1) s = s + (pp + 100000000)->y;
  return (int)(s & 63);
}|}

(* The shapes the engine has no closure of its own for, which run the
   reference's arm: a [switch], a double-to-int cast, an indirect call
   (a [CheckFptr] under full checking) and a loop whose checks widen to
   one [CheckSpan] before it. *)
let fallback_shapes =
  {|long twice(long v) { return 2 * v; }
long inc(long v) { return v + 1; }
int main(int argc, char **argv) {
  long a[8];
  long (*fs[2])(long);
  double d = 2.75;
  long s = 0;
  int i;
  fs[0] = twice;
  fs[1] = inc;
  for (i = 0; i < 8; i = i + 1) a[i] = i;
  for (i = 0; i < 6; i = i + 1) {
    switch (a[i] & 3) {
    case 0: s = s + 1; break;
    case 1: s = s + (long)(d * a[i]); break;
    default: s = s + fs[i & 1](a[i]);
    }
  }
  return (int)(s & 63);
}|}

(* The simulated fingerprint plus the tail of the event trace, which a
   trap dump prints. *)
let traced_fingerprint (r : Vm.result) =
  (fingerprint r, Obs.events r.Vm.obs)

(* Run [m] on both engines at every step limit from 1 to one past its
   length, so the limit lands on each part of each fused closure.  Then
   force the engine's slow step check at each step in turn (as a poll
   point does): the closure there must record its position and be
   re-entered from the driver without a trace in the result. *)
let step_sweep label ?opts argv src =
  let m = Softbound.compile src in
  let m, base =
    match opts with
    | None -> (m, cfg)
    | Some opts ->
        (Softbound.instrument ~opts m, Softbound.protected_cfg ~opts cfg)
  in
  let cfg_at n = { base with St.max_steps = n; trace_depth = 8; argv } in
  let full_cfg = cfg_at 1_000_000 in
  let reference = traced_fingerprint (Vm.run ~cfg:full_cfg m) in
  let full = Interp.Engine.run ~cfg:full_cfg m in
  if full.Vm.dispatches >= full.Vm.stats.St.insts then
    Alcotest.failf "%s: no superinstruction ran (%d dispatches, %d insts)"
      label full.Vm.dispatches full.Vm.stats.St.insts;
  for n = 1 to full.Vm.stats.St.insts + 1 do
    let d = Vm.run ~cfg:(cfg_at n) m in
    let c = Interp.Engine.run ~cfg:(cfg_at n) m in
    if traced_fingerprint d <> traced_fingerprint c then
      Alcotest.failf
        "%s: engines diverge at max_steps %d\n  decode:  %s\n  closure: %s"
        label n
        (St.string_of_outcome d.Vm.outcome)
        (St.string_of_outcome c.Vm.outcome);
    let ld = Vm.create ~cfg:full_cfg m in
    ld.Vm.st.St.tick_limit <- n - 1;
    let r = Vm.finish ld (Interp.Engine.run_main ld) in
    if traced_fingerprint r <> reference then
      Alcotest.failf "%s: re-entry at step %d changes the run: %s" label n
        (St.string_of_outcome r.Vm.outcome)
  done

(* Operands that name a global or function the module declares but
   never defines: pre-decode leaves the name in place, and evaluating it
   traps.  Each program reaches a different operand position, so each
   runs a different arm of the reference inside the engine's fallback.
   Two exceptions: a call to an undefined function traps in the
   engine's own call arm, and [switch ((long)&g)] traps at its cast,
   before the [switch], as [return (long)&g] does.  Each is run
   unprotected, under full checking and store-only: both engines agree,
   and the outcome and cycles are pinned. *)
let unresolved_configs =
  [
    ("unprotected", None);
    ("full/shadow", Some Softbound.Config.default);
    ("store-only", Some Softbound.Config.store_only);
  ]

let unknown_g cycles =
  List.map (fun c -> ("runtime error: unknown global g", c)) cycles

let unresolved_names =
  [
    ( "load",
      "extern int g;\nint main(void) { return g; }",
      unknown_g [ 32; 36; 36 ] );
    ( "store",
      "extern int g;\nint main(void) { g = 3; return 0; }",
      unknown_g [ 32; 36; 36 ] );
    ( "gep",
      "extern long g[8];\n\
       int main(void) { long *p = &g[2]; return p == 0; }",
      unknown_g [ 33; 37; 37 ] );
    ( "branch",
      "extern int g;\nint main(void) { if (&g) return 1; return 0; }",
      unknown_g [ 33; 37; 37 ] );
    ( "switch",
      "extern int g;\n\
       int main(void) {\n\
      \  switch ((long)&g) { case 0: return 1; default: return 2; }\n\
       }",
      unknown_g [ 32; 36; 36 ] );
    ( "cast",
      "extern int g;\nlong main(void) { return (long)&g; }",
      unknown_g [ 32; 36; 36 ] );
    ( "pointer store",
      "extern int g;\nint *q;\nint main(void) { q = &g; return 0; }",
      unknown_g [ 32; 36; 36 ] );
    ( "pointer return",
      "extern int g;\n\
       int *addr(int n) { if (n > 0) return addr(n - 1); return &g; }\n\
       int main(void) { return addr(2) == 0; }",
      unknown_g [ 47; 51; 51 ] );
    ( "call argument",
      "extern int g;\n\
       long id(int *p, int n) { if (n > 0) return id(p, n - 1); return p == 0; }\n\
       int main(void) { return (int)id(&g, 1); }",
      unknown_g [ 32; 36; 36 ] );
    ( "undefined callee",
      "int foo(int);\nint main(void) { return foo(1); }",
      [
        ("runtime error: call to undefined function foo", 32);
        ("runtime error: call to undefined function _sb_foo", 36);
        ("runtime error: call to undefined function _sb_foo", 36);
      ] );
  ]

let test_unresolved_names () =
  List.iter
    (fun (name, src, expected) ->
      let m = Softbound.compile src in
      List.iter2
        (fun (tag, opts) want ->
          let label = Printf.sprintf "%s [%s]" name tag in
          let r = same_result label ?opts m in
          Alcotest.(check (pair string int))
            label want
            (St.string_of_outcome r.Vm.outcome, r.Vm.stats.St.cycles))
        unresolved_configs expected)
    unresolved_names

(* The step counts at which the poll hook runs, on one engine. *)
let poll_steps run_main m =
  let seen = ref [] and cur = ref None in
  let poll () =
    Option.iter
      (fun (ld : Vm.loaded) -> seen := ld.Vm.st.St.steps :: !seen)
      !cur
  in
  let ld = Vm.create ~cfg:{ cfg with St.poll = Some poll } m in
  cur := Some ld;
  ignore (run_main ld : St.outcome);
  List.rev !seen

let test_poll_steps () =
  let m =
    Softbound.compile
      "int main(void) { long s = 0; int i; for (i = 0; i < 30000; i++) \
       s = s + (i & 7); return (int)(s & 63); }"
  in
  let d = poll_steps (fun ld -> Vm.run_main ld) m in
  let c = poll_steps Interp.Engine.run_main m in
  if List.length d < 7 then
    Alcotest.failf "the hook ran %d times; the program is too short"
      (List.length d);
  Alcotest.(check (list int)) "steps at each poll" d c

(* The engine's width-specialised integer ALU and compares against the
   reference helpers, on raw (possibly unnormalized) register values and
   on immediates, for every integer type.  The last compare is fused
   with the branch on it; its target is the fifth return value. *)
let int_types = Sbir.Ir.[ I8; U8; I16; U16; I32; U32; I64; U64; P ]

let binops =
  Sbir.Ir.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]

let cmpops = Sbir.Ir.[ Ceq; Cne; Clt; Cle; Cgt; Cge ]

let alu_module op cop t x y =
  let open Sbir.Ir in
  let rets k = TRet [ Reg 2; Reg 5; Reg 3; Reg 4; ImmI k ] in
  let main =
    {
      fname = "main"; fparams = []; frets = [ I64; I64; I64; I64; I64 ];
      fvariadic = false; fva_regs = None; fslots = [||]; fframe_size = 0;
      fnregs = 6;
      fblocks =
        [|
          {
            insts =
              [
                Mov (0, I64, ImmI x); Mov (1, I64, ImmI y);
                Bin (2, op, t, Reg 0, Reg 1); Bin (5, op, t, ImmI x, ImmI y);
                Cmp (3, cop, t, Reg 0, Reg 1); Cmp (4, cop, t, Reg 0, ImmI y);
              ];
            term = TBr (Reg 4, 1, 2);
          };
          { insts = []; term = rets 1 };
          { insts = []; term = rets 0 };
        |];
    }
  in
  let mfuncs = Hashtbl.create 1 in
  Hashtbl.replace mfuncs "main" main;
  { mfuncs; mglobals = []; mfunc_order = [ "main" ]; mexterns = [] }

let edge_ints =
  [ 0; 1; -1; 2; 7; 8; 31; 32; 63; 64; 0x7f; 0x80; 0xff; 0x100; 0x7fff;
    0x8000; 0xffff; 0x7fffffff; 0x80000000; 0xffffffff; 0x100000000;
    max_int; min_int ]

let test_alu_widths =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000
       ~name:"engine Bin/Cmp = Vm.exec_bin_int/exec_cmp_int, every int type"
       QCheck.(
         quad
           (make Gen.(oneofl binops))
           (make Gen.(pair (oneofl cmpops) (oneofl int_types)))
           (make Gen.(oneof [ oneofl edge_ints; int; small_signed_int ]))
           (make Gen.(oneof [ oneofl edge_ints; int; small_signed_int ])))
       (fun (op, (cop, t), x, y) ->
         let m = alu_module op cop t x y in
         let ld = Vm.create ~cfg m in
         let st = ld.Vm.st in
         let expected =
           match Vm.exec_bin_int st op t x y with
           | v ->
               let c = Vm.exec_cmp_int st cop t x y in
               Ok [ St.VI v; VI v; VI c; VI c; VI c ]
           | exception St.Trap e -> Error (St.string_of_trap e)
         in
         let got =
           match Interp.Engine.run_main ld with
           | St.Exit _ -> Ok ld.Vm.st.St.last_rets
           | St.Trapped e -> Error (St.string_of_trap e)
         in
         got = expected))

let suite =
  [
    Alcotest.test_case "regressions: decode = closure (unprotected + full)"
      `Quick (fun () ->
        List.iter
          (fun (name, src) ->
            let m = Softbound.compile src in
            check_same (name ^ " [unprot]") m;
            check_same (name ^ " [full]") ~opts:Softbound.Config.default m)
          regressions);
    Alcotest.test_case
      (Printf.sprintf
         "fuzz corpus (%d programs, oob on): decode = closure on outcome, \
          stdout, stats, cache, residency, attribution"
         fuzz_corpus_size)
      `Quick
      (fun () ->
        let root = Rng.create 0xe7e1 in
        for i = 0 to fuzz_corpus_size - 1 do
          let r = Rng.split root i in
          let case = Gen.generate r ~oob:true in
          let src = Cminus.Pretty.program_string case.Gen.prog in
          let m = Softbound.compile src in
          let label = Printf.sprintf "fuzz #%d (%s)" i src in
          check_same (label ^ " [unprot]") m;
          check_same (label ^ " [full]") ~opts:Softbound.Config.default m
        done);
    Alcotest.test_case
      "image reuse: 3 runs of one module agree, shadow/hash"
      `Quick test_image_reuse;
    Alcotest.test_case "image reuse: 4 domains share one image" `Quick
      test_image_shared_across_domains;
    Alcotest.test_case "image reuse: second Vm.create within 2000 words"
      `Quick test_create_allocation_budget;
    Alcotest.test_case "regressions: decode = closure under each plugin checker"
      `Quick (fun () ->
        List.iter
          (fun (e : Schemes.entry) ->
            match e.impl with
            | Schemes.Plugin checker ->
                List.iter
                  (fun (name, src) ->
                    check_same
                      (Printf.sprintf "%s [%s]" name e.sname)
                      ~checker (Softbound.compile src))
                  regressions
            | Schemes.Transform _ -> ())
          Schemes.all);
    Alcotest.test_case
      (Printf.sprintf "call path: at most %.0f words per simulated call"
         words_per_call_budget)
      `Quick test_call_allocation_budget;
    Alcotest.test_case "call path: regressions end as expected" `Quick
      (fun () ->
        List.iter
          (fun (name, outcome, stdout) ->
            let r =
              Interp.Engine.run ~cfg (Softbound.compile (List.assoc name regressions))
            in
            Alcotest.(check string)
              (name ^ " outcome") outcome
              (St.string_of_outcome r.Vm.outcome);
            Alcotest.(check string) (name ^ " stdout") stdout r.Vm.stdout_text)
          call_path_outcomes);
    Alcotest.test_case
      "superinstructions: step-limit sweep over every fused shape" `Quick
      (fun () ->
        step_sweep "unprotected" [] fused_shapes;
        step_sweep "full" ~opts:Softbound.Config.default [] fused_shapes;
        step_sweep "unprotected, wild load" [ "x" ] fused_shapes;
        step_sweep "full, wild load" ~opts:Softbound.Config.default [ "x" ]
          fused_shapes;
        step_sweep "fallback, unprotected" [] fallback_shapes;
        step_sweep "fallback, full" ~opts:Softbound.Config.default []
          fallback_shapes);
    Alcotest.test_case "tick: the poll hook runs on the same steps" `Quick
      test_poll_steps;
    test_alu_widths;
    Alcotest.test_case "fallback: unresolved names trap alike, pinned"
      `Quick test_unresolved_names;
  ]
