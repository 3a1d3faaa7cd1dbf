(* SoftBound transformation and runtime tests.

   Three families:
   - detection: spatial violations of every flavour must abort;
   - compatibility: benign programs (including wild casts) must run
     unchanged, with output identical to the uninstrumented run;
   - mode/facility semantics: store-only skips read checks, both metadata
     facilities agree, design-choice toggles behave as documented. *)

let opts = Softbound.Config.default
let store_only = Softbound.Config.store_only

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
          ^ Interp.State.string_of_outcome r.outcome
          ^ "\n" ^ r.stdout_text))

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

let misses ?(o = opts) name src =
  Alcotest.test_case name `Quick (fun () ->
      let r = run ~o src in
      match r.outcome with
      | Interp.State.Exit _ -> ()
      | out ->
          Alcotest.fail
            ("expected a (missed) clean run, got "
            ^ Interp.State.string_of_outcome out))

let suite =
  [
    (* ---------------- detection ---------------- *)
    detects "heap write overflow"
      "int main(void) { int *p = (int*)malloc(4 * sizeof(int)); p[4] = 1; return 0; }";
    detects "heap read overflow"
      "int main(void) { int *p = (int*)malloc(4 * sizeof(int)); return p[4]; }";
    detects "heap underflow"
      "int main(void) { int *p = (int*)malloc(16); return p[-1]; }";
    detects "stack array overflow"
      "int main(void) { int a[4]; a[4] = 1; return 0; }";
    detects "stack array read overflow"
      "int s; int main(void) { int a[4]; int i; for (i = 0; i <= 4; i++) s += a[i]; return s; }";
    detects "global array overflow"
      "int g[8]; int main(void) { g[8] = 1; return 0; }";
    detects "sub-object overflow in struct (paper section 2.1)"
      "typedef struct { char str[8]; long guard; } node_t; \
       int main(void) { node_t n; char *p = n.str; p[8] = 'X'; return 0; }";
    detects "sub-object overflow on heap struct"
      "typedef struct { char str[8]; long guard; } node_t; \
       int main(void) { node_t *n = (node_t*)malloc(sizeof(node_t)); n->str[9] = 'X'; return 0; }";
    detects "strcpy overflow caught in wrapper"
      "int main(void) { char *d = (char*)malloc(4); strcpy(d, \"too long for it\"); return 0; }";
    detects "strcat overflow caught in wrapper"
      "int main(void) { char d[8]; strcpy(d, \"abcdef\"); strcat(d, \"ghi\"); return 0; }";
    detects "memcpy overflow caught once at start (section 5.2)"
      "int main(void) { char s[16]; char *d = (char*)malloc(8); memcpy(d, s, 16); return 0; }";
    detects "memset overflow"
      "int main(void) { char *d = (char*)malloc(8); memset(d, 0, 9); return 0; }";
    detects "sprintf overflow"
      {|int main(void) { char b[4]; sprintf(b, "%d", 123456); return 0; }|};
    detects "null pointer dereference (null bounds)"
      "int main(void) { int *p = NULL; return *p; }";
    detects "pointer manufactured from integer has null bounds (section 5.2)"
      "int main(void) { long *p = (long*)0x40000000; return (int)*p; }";
    detects "dereference past the whole object via cast"
      "int main(void) { char *p = (char*)malloc(6); int *ip = (int*)(p + 4); return *ip; }";
    detects "use of pointer loaded from memory keeps bounds"
      "int **cell; int main(void) { int *p = (int*)malloc(8); cell = &p; int *q = *cell; return q[2]; }";
    detects "bounds survive struct field store/load"
      "typedef struct { int *ptr; } box; \
       int main(void) { box b; b.ptr = (int*)malloc(8); int *q = b.ptr; return q[2]; }";
    (* casting through an integer deliberately loses bounds: the deref
       must abort with NULL bounds even though the address is valid
       (section 5.2, "Creating pointers from integers") *)
    detects "pointer laundered through an int aborts (conservative)"
      "int main(void) { int *p = (int*)malloc(8); long l = (long)p; int *q = (int*)l; return q[0]; }";
    detects "function pointer check rejects data pointers (section 5.2)"
      "int main(void) { int x = 5; void (*fp)(void) = (void(*)(void))&x; fp(); return 0; }";
    detects "function pointer check rejects corrupted values"
      "void safe(void) {} \
       int main(void) { void (*fp)(void); void (**cell)(void) = &fp; fp = safe; \
       *(long*)cell = 1234; fp(); return 0; }";
    detects "vararg over-read is caught (section 5.2)"
      "int take(int n, ...) { va_list ap; va_start(ap); int a = va_arg_int(ap); int b = va_arg_int(ap); return a + b; } \
       int main(void) { return take(1, 7); }";
    detects "interior pointer arithmetic past end"
      "int main(void) { int a[10]; int *p = &a[5]; return p[5]; }";
    detects "setbound can narrow a pointer"
      "int main(void) { char *p = (char*)malloc(16); setbound(p, 4); p[4] = 1; return 0; }";
    detects "one-past-the-end pointer may exist but not be dereferenced"
      "int main(void) { int a[4]; int *p = &a[4]; return *p; }";
    detects "static local arrays carry their own bounds"
      "int use(void) { static char b[8]; b[9] = 1; return 0; } \
       int main(void) { return use(); }";
    detects "read overflow through argv-independent loop"
      "int main(void) { char buf[8]; int i; int s = 0; for (i = 0; i < 16; i++) s += buf[i]; return s; }";
    (* ---------------- compatibility (no false positives) ------------- *)
    clean "in-bounds array walk"
      "int main(void) { int a[100]; int i; int s = 0; for (i = 0; i < 100; i++) a[i] = i; \
       for (i = 0; i < 100; i++) s += a[i]; printf(\"%d\\n\", s); return s == 4950; }";
    clean "one-past-the-end pointer as loop bound is legal"
      "int main(void) { int a[10]; int *p; int s = 0; for (p = a; p < a + 10; p++) *p = 1; \
       for (p = a; p < a + 10; p++) s += *p; return s == 10; }";
    clean "wild casts with correct use (section 5.2)"
      "typedef struct { int a; int b; } two; \
       int main(void) { two *t = (two*)malloc(sizeof(two)); long *l = (long*)t; *l = 0x0000000200000001L; \
       printf(\"%d %d\\n\", t->a, t->b); return t->a == 1 && t->b == 2; }";
    clean "union type punning"
      "union u { unsigned int i; unsigned char b[4]; }; \
       int main(void) { union u x; x.i = 0xdeadbeefu; printf(\"%x\\n\", x.b[0]); return x.b[0] == 0xef; }";
    clean "linked structures with interior pointers"
      "typedef struct n { int v; struct n *next; } n_t; \
       int main(void) { n_t *h = NULL; int i; for (i = 0; i < 20; i++) { n_t *x = (n_t*)malloc(sizeof(n_t)); \
       x->v = i; x->next = h; h = x; } int s = 0; n_t *c; for (c = h; c; c = c->next) s += c->v; \
       printf(\"%d\\n\", s); return s == 190; }";
    clean "strings within bounds"
      "int main(void) { char buf[64]; strcpy(buf, \"hello\"); strcat(buf, \" world\"); \
       printf(\"%s %d\\n\", buf, (int)strlen(buf)); return 0; }";
    Alcotest.test_case "memcpy within bounds copies metadata for pointers"
      `Quick (fun () ->
        let r =
          run
            "typedef struct { int *p; int pad; } holder; \
             int main(void) { holder a; holder b; a.p = (int*)malloc(8); a.p[0] = 7; a.pad = 0; \
             memcpy(&b, &a, sizeof(holder)); return b.p[0] == 7; }"
        in
        match r.outcome with
        | Interp.State.Exit 1 -> ()
        | o -> Alcotest.fail (Interp.State.string_of_outcome o));
    clean "setjmp/longjmp under instrumentation"
      "jmp_buf jb; void hop(void) { longjmp(jb, 3); } \
       int main(void) { int v = setjmp(jb); if (v == 3) { printf(\"landed\\n\"); return 1; } hop(); return 0; }";
    clean "varargs printf with strings"
      {|int main(void) { char name[8]; strcpy(name, "bob"); printf("hi %s %d\n", name, 3); return 0; }|};
    clean "user varargs in bounds"
      "int sum(int n, ...) { va_list ap; int s = 0; int i; va_start(ap); for (i = 0; i < n; i++) s += va_arg_int(ap); return s; } \
       int main(void) { printf(\"%d\\n\", sum(3, 10, 20, 30)); return 0; }";
    clean "function pointers through tables"
      "int inc(int x) { return x + 1; } int dec(int x) { return x - 1; } \
       int main(void) { int (*ops[2])(int); ops[0] = inc; ops[1] = dec; \
       printf(\"%d\\n\", ops[0](5) + ops[1](5)); return 0; }";
    clean "free and reuse"
      "int main(void) { int i; for (i = 0; i < 50; i++) { char *p = (char*)malloc(32); p[31] = 1; free(p); } return 0; }";
    clean "realloc keeps metadata usable"
      "int main(void) { int *p = (int*)malloc(2 * sizeof(int)); p[0] = 5; \
       p = (int*)realloc(p, 64 * sizeof(int)); p[63] = 9; printf(\"%d %d\\n\", p[0], p[63]); return 0; }";
    clean "global pointers initialized statically (section 5.2)"
      "int data[4] = {1, 2, 3, 4}; int *gp = data; char *gs = \"text\"; \
       int main(void) { printf(\"%d %c\\n\", gp[3], gs[0]); return gp[3] == 4 && gs[0] == 't'; }";
    (* ---------------- modes and facilities ---------------- *)
    misses ~o:store_only "store-only misses read overflows"
      "int sink; int main(void) { int *p = (int*)malloc(8); sink = p[5]; return 0; }";
    detects ~o:store_only "store-only catches write overflows"
      "int main(void) { int *p = (int*)malloc(8); p[5] = 1; return 0; }";
    detects ~o:store_only "store-only catches strcpy overflow (it writes)"
      "int main(void) { char *d = (char*)malloc(4); strcpy(d, \"much too long\"); return 0; }";
    misses ~o:store_only "store-only misses printf %s over-read"
      "int main(void) { char b[4]; b[0] = 'a'; b[1] = 'b'; b[2] = 'c'; b[3] = 'd'; \
       char pad[8]; pad[0] = 0; printf(\"%s\\n\", b); return 0; }";
    detects ~o:hash_opts "hash-table facility detects like shadow space"
      "int main(void) { int *p = (int*)malloc(8); return p[9]; }";
    clean ~o:hash_opts "hash-table facility has no false positives"
      "typedef struct n { int v; struct n *next; } n_t; \
       int main(void) { n_t *h = NULL; int i; for (i = 0; i < 40; i++) { n_t *x = (n_t*)malloc(sizeof(n_t)); \
       x->v = i; x->next = h; h = x; } int s = 0; while (h) { s += h->v; h = h->next; } \
       printf(\"%d\\n\", s); return 0; }";
    Alcotest.test_case "both facilities agree on every outcome" `Quick
      (fun () ->
        let progs =
          [
            "int main(void) { int a[4]; a[3] = 1; return a[3]; }";
            "int main(void) { int *p = (int*)malloc(8); return p[2]; }";
            "int main(void) { char b[8]; strcpy(b, \"1234567\"); return 0; }";
          ]
        in
        List.iter
          (fun src ->
            let m = Softbound.compile src in
            let a = Softbound.run_protected ~opts m in
            let b = Softbound.run_protected ~opts:hash_opts m in
            Alcotest.(check bool)
              "same detection" (Softbound.detected a) (Softbound.detected b))
          progs);
    (* ---------------- design-choice toggles ---------------- *)
    misses
      ~o:{ opts with Softbound.Config.shrink_bounds = false }
      "without shrinking, sub-object overflow is missed"
      "typedef struct { char str[8]; long guard; } node_t; int sink; \
       int main(void) { node_t n; char *p = n.str; n.guard = 1; sink = p[8]; return 0; }";
    Alcotest.test_case "metadata is cleared when a frame is reused" `Quick
      (fun () ->
        (* leak a pointer slot's address via a dangling frame: with stack
           metadata clearing the reloaded pointer has null bounds *)
        let src =
          "long *steal(void) { long local = 7; long *p = &local; long **pp = &p; return *pp; } \n\
           int use(long *stale) { return (int)*stale; } \n\
           int main(void) { long *s = steal(); return use(s); }"
        in
        (* this one is about temporal reuse; SoftBound only promises the
           spatial property, so we merely require no crash of the
           harness: either a detection or an exit is acceptable *)
        let r = run src in
        match r.outcome with
        | Interp.State.Exit _ | Interp.State.Trapped _ -> ());
    detects "qsort comparator receives per-element bounds"
      "int bad_cmp(void *a, void *b) { int *x = (int*)a; return x[0] + x[1]; } \
       int main(void) { int arr[4]; arr[0] = 1; arr[1] = 2; arr[2] = 0; arr[3] = 3; \
       qsort(arr, 4, sizeof(int), bad_cmp); return 0; }";
    detects "qsort checks the whole array extent up front"
      "int cmp(void *a, void *b) { return *(int*)a - *(int*)b; } \
       int main(void) { int *a = (int*)malloc(4 * sizeof(int)); \
       qsort(a, 8, sizeof(int), cmp); return 0; }";
    clean "qsort of a pointer array moves metadata with the elements"
      "int by_len(void *a, void *b) { return (int)strlen(*(char**)a) - (int)strlen(*(char**)b); } \
       int main(void) { char *w[4]; int i; \
       w[0] = \"kiwi\"; w[1] = \"fig\"; w[2] = \"banana\"; w[3] = \"apple\"; \
       qsort(w, 4, sizeof(char*), by_len); \
       for (i = 0; i < 4; i++) printf(\"%s \", w[i]); printf(\"\\n\"); return 0; }";
    clean "qsort and bsearch degenerate calls are no-ops"
      "int cmp(void *a, void *b) { return *(int*)a - *(int*)b; } \
       int main(void) { int a[2]; a[0] = 1; a[1] = 2; int k = 1; \
       qsort(a, 0, sizeof(int), cmp); qsort(a, 2, 0, cmp); \
       printf(\"%d\\n\", bsearch(&k, a, 0, sizeof(int), cmp) == NULL); return 0; }";
    clean "qsort and bsearch under instrumentation"
      "int cmp(void *a, void *b) { return *(int*)a - *(int*)b; } \
       int main(void) { int a[16]; int i; for (i = 0; i < 16; i++) a[i] = (i * 11 + 5) % 31; \
       qsort(a, 16, sizeof(int), cmp); \
       int k = a[7]; int *hit = (int*)bsearch(&k, a, 16, sizeof(int), cmp); \
       printf(\"%d %d\\n\", a[0] <= a[15], hit != NULL); return 0; }";
    detects "strtol's stored end pointer keeps the string's bounds"
      "int sink; int main(void) { char buf[8]; strcpy(buf, \"12\"); char *end; \
       strtol(buf, &end, 10); sink = end[20]; return 0; }";
    (* ---------------- future-work extension: fptr signatures -------- *)
    detects
      ~o:{ opts with Softbound.Config.fptr_signatures = true }
      "signature check catches cast between incompatible function pointers"
      "int takes_int(int x) { return x + 1; } \
       int main(void) { int (*fp)(char*) = (int(*)(char*))takes_int; \
       char b[4]; return fp(b); }";
    misses "without the extension the prototype accepts mismatched arity-compatible casts"
      "int takes_int(long x) { return (int)x; } \
       int main(void) { int (*fp)(long) = takes_int; return fp(7L) - 8; }";
    clean
      ~o:{ opts with Softbound.Config.fptr_signatures = true }
      "signature check passes matching indirect calls"
      "int add(int a, int b) { return a + b; } \
       int mul(int a, int b) { return a * b; } \
       int main(void) { int (*ops[2])(int, int); ops[0] = add; ops[1] = mul; \
       printf(\"%d\\n\", ops[0](2, 3) + ops[1](2, 3)); return 0; }";
    clean
      ~o:{ opts with Softbound.Config.fptr_signatures = true }
      "signature check passes pointer-taking indirect calls"
      "int first(char *s) { return s[0]; } \
       int main(void) { int (*fp)(char*) = first; char b[4]; b[0] = 65; \
       printf(\"%d\\n\", fp(b)); return 0; }";
    Alcotest.test_case "transform is rejected on instrumented input" `Quick
      (fun () ->
        let m =
          Softbound.compile
            "int main(void) { int a[2]; a[1] = 1; return a[1]; }"
        in
        let m1 = Softbound.instrument m in
        match Softbound.instrument m1 with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail "double instrumentation should be rejected");
    Alcotest.test_case "instrumented module validates" `Quick (fun () ->
        let m =
          Softbound.compile
            "int f(int *p) { return p[0]; } int main(void) { int a[2]; a[0] = 3; return f(a); }"
        in
        Sbir.Ir.validate (Softbound.instrument m));
    Alcotest.test_case "function renaming and extra params (section 3.3)"
      `Quick (fun () ->
        let m =
          Softbound.compile
            "int f(char *s, int n) { return s[n]; } int main(void) { char b[4]; b[0] = 1; return f(b, 0); }"
        in
        let m' = Softbound.instrument m in
        match Sbir.Ir.find_func m' "_sb_f" with
        | None -> Alcotest.fail "expected _sb_f"
        | Some f ->
            (* char* s gains base+bound parameters: 2 + 2 = 4 *)
            Alcotest.(check int) "params" 4 (List.length f.Sbir.Ir.fparams));
    Alcotest.test_case "pointer-returning functions return triples" `Quick
      (fun () ->
        let m =
          Softbound.compile
            "char *id(char *s) { return s; } int main(void) { char b[2]; return id(b) == b; }"
        in
        let m' = Softbound.instrument m in
        let f = Option.get (Sbir.Ir.find_func m' "_sb_id") in
        Alcotest.(check int) "rets" 3 (List.length f.Sbir.Ir.frets));
    (* ---------------- string-wrapper bound checks ----------------
       The wrappers must bound their *scans*, not only the final copy:
       a length computed by reading past the source's bounds has
       already committed the violation.  A two-byte unterminated
       struct field makes the distinction observable, because the
       in-struct bytes after it are readable memory. *)
    detects "strcat scan stops at the source field's bound"
      "struct T { char b[2]; char tail[6]; }; \
       int main(void) { struct T t; t.b[0] = 'A'; t.b[1] = 'B'; t.tail[0] = 0; \
       char d[16]; d[0] = 0; strcat(d, t.b); return 0; }";
    detects "sprintf %s scan stops at the source field's bound"
      "struct T { char b[2]; char tail[6]; }; \
       int main(void) { struct T t; t.b[0] = 'A'; t.b[1] = 'B'; t.tail[0] = 0; \
       char d[16]; sprintf(d, \"%s\", t.b); return 0; }";
    clean "strncpy never scans past its byte budget"
      "struct T { char b[2]; char tail[6]; }; \
       int main(void) { struct T t; t.b[0] = 'A'; t.b[1] = 'B'; t.tail[0] = 0; \
       char d[8]; strncpy(d, t.b, 2); d[2] = 0; printf(\"%s\\n\", d); return 0; }";
    detects "strncat source scan is bounded too"
      "struct T { char b[2]; char tail[6]; }; \
       int main(void) { struct T t; t.b[0] = 'A'; t.b[1] = 'B'; t.tail[0] = 0; \
       char d[16]; d[0] = 0; strncat(d, t.b, 5); return 0; }";
    (* ---------------- longjmp and stack metadata ----------------
       The transform clears pointer-slot metadata before each return
       (section 5.2); longjmp skips those returns, so the VM must clear
       during the unwind or a later frame reusing the stack space
       observes stale bounds that validate a dead pointer. *)
    Alcotest.test_case "longjmp clears unwound frames' pointer metadata"
      `Quick (fun () ->
        let src =
          "jmp_buf jb; \
           void f(void) { long a[4]; long *ps[2]; ps[0] = a; ps[0][0] = 7; longjmp(jb, 1); } \
           long g(void) { long a[4]; long *ps[2]; return *ps[0]; } \
           int main(void) { if (setjmp(jb) == 0) { f(); } return (int)g(); }"
        in
        let m = Softbound.compile src in
        List.iter
          (fun o ->
            let r = Softbound.run_protected ~opts:o m in
            if not (Softbound.detected r) then
              Alcotest.fail
                (Softbound.Config.facility_name o.Softbound.Config.facility
                ^ ": expected the dead-frame pointer to trap, got "
                ^ Interp.State.string_of_outcome r.outcome))
          [ opts; hash_opts ]);
    Alcotest.test_case "longjmp leaves surviving metadata consistent" `Quick
      (fun () ->
        let src =
          "jmp_buf jb; long *gp; \
           void f(void) { long x[2]; x[0] = 1; longjmp(jb, 7); } \
           int main(void) { long buf[4]; long i; \
           for (i = 0; i < 4; i = i + 1) buf[i] = i; gp = buf; \
           if (setjmp(jb) == 0) f(); \
           long s = 0; for (i = 0; i < 4; i = i + 1) s += gp[i]; \
           printf(\"%ld\\n\", s); return (int)s; }"
        in
        let m = Softbound.compile src in
        let un = Softbound.run_unprotected m in
        List.iter
          (fun o ->
            let r = Softbound.run_protected ~opts:o m in
            (match (un.outcome, r.outcome) with
            | Interp.State.Exit a, Interp.State.Exit b when a = b -> ()
            | a, b ->
                Alcotest.fail
                  (Printf.sprintf "%s: outcomes differ: %s vs %s"
                     (Softbound.Config.facility_name
                        o.Softbound.Config.facility)
                     (Interp.State.string_of_outcome a)
                     (Interp.State.string_of_outcome b)));
            Alcotest.(check string) "stdout agrees" un.stdout_text
              r.stdout_text)
          [ opts; hash_opts ]);
    (* ---------------- metadata hash table growth ---------------- *)
    Alcotest.test_case "hash table resizes past its initial capacity" `Quick
      (fun () ->
        (* 512 pointer stores into a 64-entry table force several
           doublings; behavior and output must match the uninstrumented
           run, and metadata must survive each rehash *)
        let src =
          "long *tab[512]; \
           int main(void) { long i; \
           for (i = 0; i < 512; i = i + 1) { tab[i] = (long *)malloc(2 * sizeof(long)); *tab[i] = i; } \
           long acc = 0; \
           for (i = 0; i < 512; i = i + 1) acc += *tab[i]; \
           printf(\"%ld\\n\", acc); return 0; }"
        in
        let m = Softbound.compile src in
        let cfg = { Interp.State.default_config with ht_entries_init = 64 } in
        let un = Softbound.run_unprotected ~cfg m in
        let pr = Softbound.run_protected ~opts:hash_opts ~cfg m in
        (match (un.outcome, pr.outcome) with
        | Interp.State.Exit a, Interp.State.Exit b when a = b -> ()
        | a, b ->
            Alcotest.fail
              (Printf.sprintf "outcomes differ: %s vs %s"
                 (Interp.State.string_of_outcome a)
                 (Interp.State.string_of_outcome b)));
        Alcotest.(check string) "stdout agrees" un.stdout_text pr.stdout_text);
    Alcotest.test_case "bounds survive hash table growth" `Quick (fun () ->
        (* the pointer slots sit 512 bytes apart (8 x the 64-entry initial
           table), so every slot's home entry collides: stores walk probe
           chains and force resizes, and the read-back loop's lookups walk
           the chains again.  The overflow through [tab[7 * 64]] must
           still be caught after the rehashes, and the hash facility's
           accounting is pinned exactly (the golden profiles are all
           shadow-facility) *)
        let src =
          "long *tab[512 * 64]; \
           int main(void) { long i; long acc = 0; \
           for (i = 0; i < 512; i = i + 1) { tab[i * 64] = (long *)malloc(2 * sizeof(long)); *tab[i * 64] = i; } \
           for (i = 0; i < 512; i = i + 1) acc += *tab[i * 64]; \
           *(tab[7 * 64] + 2) = acc; return 0; }"
        in
        let m = Softbound.compile src in
        let cfg = { Interp.State.default_config with ht_entries_init = 64 } in
        let r = Softbound.run_protected ~opts:hash_opts ~cfg m in
        if not (Softbound.detected r) then
          Alcotest.fail
            ("expected a bounds violation after rehash, got "
            ^ Interp.State.string_of_outcome r.outcome);
        let s = r.stats in
        Alcotest.(check bool) "probes > 0" true (s.ht_probes > 0);
        Alcotest.(check bool) "resizes > 0" true (s.ht_resizes > 0);
        List.iter
          (fun (what, got, want) -> Alcotest.(check int) what want got)
          [
            ("cycles", s.cycles, 198560);
            ("ht_probes", s.ht_probes, 31498);
            ("ht_resizes", s.ht_resizes, 4);
            ("cache_hits", r.cache_hits, 37144);
            ("cache_misses", r.cache_misses, 1532);
          ]);
  ]
