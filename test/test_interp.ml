(* End-to-end interpreter tests: MiniC programs whose exit code or output
   pins down C semantics (arithmetic, control flow, calls, memory). *)

let run ?(argv = []) ?(inputs = []) src =
  let m = Softbound.compile src in
  Softbound.run_unprotected
    ~cfg:{ Interp.State.default_config with argv; inputs }
    m

let exits name expected src =
  Alcotest.test_case name `Quick (fun () ->
      let r = run src in
      match r.outcome with
      | Interp.State.Exit n -> Alcotest.(check int) name expected n
      | o ->
          Alcotest.fail
            (Interp.State.string_of_outcome o ^ "\n" ^ r.stdout_text))

let prints name expected src =
  Alcotest.test_case name `Quick (fun () ->
      let r = run src in
      (match r.outcome with
      | Interp.State.Exit _ -> ()
      | o -> Alcotest.fail (Interp.State.string_of_outcome o));
      Alcotest.(check string) name expected r.stdout_text)

(* Pin an exit code unprotected and SoftBound-instrumented, so
   builtin-semantics fixes hold on both execution paths (raw dispatch
   and _sb_ wrappers). *)
let both_paths name expected src =
  Alcotest.test_case name `Quick (fun () ->
      let m = Softbound.compile src in
      List.iter
        (fun (tag, r) ->
          match (r : Interp.Vm.result).outcome with
          | Interp.State.Exit n ->
              Alcotest.(check int) (Printf.sprintf "%s [%s]" name tag) expected n
          | o ->
              Alcotest.fail
                (Interp.State.string_of_outcome o ^ "\n" ^ r.stdout_text))
        [
          ("unprotected", Softbound.run_unprotected m);
          ("softbound", Softbound.run_protected m);
        ])

let traps name pred src =
  Alcotest.test_case name `Quick (fun () ->
      let r = run src in
      match r.outcome with
      | Interp.State.Trapped t when pred t -> ()
      | o -> Alcotest.fail (Interp.State.string_of_outcome o))

(* Call targets: both engines share the target table and
   [Builtins.dispatch], so these pin absolute outcomes and output, under
   every configuration named, rather than compare engines. *)
let full_hash =
  { Softbound.Config.default with
    Softbound.Config.facility = Softbound.Config.Hash_table }

let fptr_sigs =
  { Softbound.Config.default with Softbound.Config.fptr_signatures = true }

let call_target name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let m = Softbound.compile src in
      List.iter
        (fun (tag, opts, outcome, stdout) ->
          let r =
            match opts with
            | None -> Softbound.run_unprotected m
            | Some opts -> Softbound.run_protected ~opts m
          in
          Alcotest.(check string)
            (Printf.sprintf "%s [%s] outcome" name tag)
            outcome
            (Interp.State.string_of_outcome r.Interp.Vm.outcome);
          Alcotest.(check string)
            (Printf.sprintf "%s [%s] stdout" name tag)
            stdout r.Interp.Vm.stdout_text)
        expected)

let undefined_callee = "int foo(int); int main(void) { return foo(1); }"

let undefined_address =
  "int foo(int); int main(void) { int (*p)(int) = foo; return p(1); }"

let builtin_comparator =
  {|int main(void) {
  char a[3][8];
  strcpy(a[0], "pear"); strcpy(a[1], "apple"); strcpy(a[2], "fig");
  qsort(a, 3, 8, strcmp);
  printf("%s %s %s\n", a[0], a[1], a[2]);
  return 0;
}|}

let sorted = "apple fig pear\n"

(* a builtin comparator gets two element pointers, whatever its
   prototype: setjmp takes one *)
let arity_comparator =
  {|int main(void) {
  long a[4];
  a[0] = 3; a[1] = 1; a[2] = 2; a[3] = 0;
  qsort(a, 4, 8, (int(*)(void*,void*))setjmp);
  return 0;
}|}

let call_target_suite =
  [
    call_target "call target: undefined direct callee" undefined_callee
      [
        ("unprotected", None,
         "runtime error: call to undefined function foo", "");
        ("full/shadow", Some Softbound.Config.default,
         "runtime error: call to undefined function _sb_foo", "");
      ];
    call_target "call target: address of an undefined function"
      undefined_address
      [
        ("unprotected", None, "runtime error: unknown function foo", "");
        ("full/shadow", Some Softbound.Config.default,
         "runtime error: unknown function _sb_foo", "");
      ];
    call_target "call target: builtin qsort comparator" builtin_comparator
      [
        ("unprotected", None, "exit 0", sorted);
        ("full/shadow", Some Softbound.Config.default, "exit 0", sorted);
        ("full/hash", Some full_hash, "exit 0", sorted);
      ];
    call_target "call target: builtin comparator of another arity"
      arity_comparator
      [
        ("unprotected", None,
         "runtime error: setjmp: called with 2 args, expects 1", "");
        ("full/shadow", Some Softbound.Config.default,
         "runtime error: _sb_setjmp: called with 2 args, expects 1", "");
      ];
    call_target "call target: builtin passes the signature check"
      "int main(void) { long (*len)(char *) = strlen; return (int)len(\"abcd\"); }"
      [ ("fptr signatures", Some fptr_sigs, "exit 4", "") ];
    Alcotest.test_case "call target: builtin fails the signature check" `Quick
      (fun () ->
        let m =
          Softbound.compile
            "int main(void) { int (*bad)(int) = (int(*)(int))strlen; \
             return bad(3); }"
        in
        match (Softbound.run_protected ~opts:fptr_sigs m).Interp.Vm.outcome with
        | Interp.State.Trapped (Interp.State.Bounds_violation { where; _ }) ->
            Alcotest.(check string) "where"
              "_sb_main (function pointer signature mismatch: _sb_strlen)"
              where
        | o -> Alcotest.fail (Interp.State.string_of_outcome o));
  ]

let suite =
  [
    (* --- arithmetic semantics --- *)
    exits "signed division truncates toward zero" 1
      "int main(void) { return (-7) / 2 == -3 && (-7) % 2 == -1; }";
    exits "unsigned comparison" 1
      "int main(void) { unsigned int a = 0xffffffffu; return a > 5u; }";
    exits "int overflow wraps at 32 bits" 1
      "int main(void) { int x = 0x7fffffff; x = x + 1; return x < 0; }";
    exits "char is signed and widens" 1
      "int main(void) { char c = (char)200; return c < 0; }";
    exits "unsigned char stays positive" 200
      "int main(void) { unsigned char c = (unsigned char)200; return c; }";
    exits "shifts" 1
      "int main(void) { int a = 1 << 10; int b = -16 >> 2; unsigned int c = 0x80000000u >> 31; return a == 1024 && b == -4 && c == 1u; }";
    exits "bitwise operators" 1
      "int main(void) { return (0xf0 & 0x3c) == 0x30 && (0xf0 | 0x0f) == 0xff && (0xff ^ 0x0f) == 0xf0 && (~0) == -1; }";
    exits "float arithmetic and conversion" 1
      "int main(void) { double d = 7.0 / 2.0; int i = (int)d; float f = 0.5f; return i == 3 && d > 3.49 && d < 3.51 && f + f == 1.0; }";
    exits "negative float to int truncates toward zero" 1
      "int main(void) { double d = -2.7; return (int)d == -2; }";
    exits "integer promotion in mixed arithmetic" 1
      "int main(void) { char c = 100; char d = 100; int s = c + d; return s == 200; }";
    exits "long arithmetic" 1
      "int main(void) { long big = 1L << 40; return big / (1L << 20) == (1L << 20); }";
    exits "division by zero traps" 0
      "int main(void) { return 0; }"
    (* real div-by-zero test below via traps *);
    traps "division by zero is a runtime error"
      (function Interp.State.Runtime_error _ -> true | _ -> false)
      "int main(int argc, char **argv) { int z = argc - 1; return 5 / z; }";
    (* --- control flow --- *)
    exits "for/while/do loops" 55
      "int main(void) { int s = 0; int i; for (i = 1; i <= 5; i++) s += i; \
       int j = 6; while (j <= 8) { s += j; j++; } \
       int k = 9; do { s += k; k++; } while (k <= 10); return s; }";
    exits "break and continue" 25
      "int main(void) { int s = 0; int i; for (i = 0; i < 100; i++) { \
       if (i % 2 == 0) continue; if (i > 9) break; s += i; } return s; }";
    exits "switch with fallthrough" 6
      "int main(void) { int s = 0; switch (2) { case 1: s += 1; case 2: s += 2; case 3: s += 4; break; case 4: s += 8; } return s; }";
    exits "switch default" 7
      "int main(void) { switch (42) { case 1: return 1; default: return 7; } }";
    exits "nested loops with break" 9
      "int main(void) { int c = 0; int i; int j; for (i = 0; i < 3; i++) for (j = 0; j < 5; j++) { if (j == 3) break; c++; } return c; }";
    exits "short circuit evaluation" 1
      "int calls; int bump(void) { calls++; return 1; } \
       int main(void) { int r = 0 && bump(); int s = 1 || bump(); return r == 0 && s == 1 && calls == 0; }";
    exits "ternary" 42
      "int main(void) { int x = 5; return x > 3 ? 42 : 7; }";
    (* --- functions --- *)
    exits "recursion (fib)" 55
      "int fib(int n) { if (n < 2) return n; return fib(n-1) + fib(n-2); } int main(void) { return fib(10); }";
    exits "mutual recursion" 1
      "int is_odd(int n); int is_even(int n) { if (n == 0) return 1; return is_odd(n - 1); } \
       int is_odd(int n) { if (n == 0) return 0; return is_even(n - 1); } int main(void) { return is_even(10); }";
    exits "function pointer dispatch" 7
      "int add(int a, int b) { return a + b; } int mul(int a, int b) { return a * b; } \
       int apply(int (*op)(int, int), int a, int b) { return op(a, b); } \
       int main(void) { return apply(add, 3, 4) == 7 && apply(mul, 3, 4) == 12 ? 7 : 0; }";
    exits "function pointer array" 10
      "int inc(int x) { return x + 1; } int dbl(int x) { return x * 2; } \
       int main(void) { int (*ops[2])(int); ops[0] = inc; ops[1] = dbl; return ops[0](4) + ops[1](2) + 1; }";
    exits "user varargs" 10
      "int sum(int n, ...) { va_list ap; int s = 0; int i; va_start(ap); \
       for (i = 0; i < n; i++) s += va_arg_int(ap); va_end(ap); return s; } \
       int main(void) { return sum(4, 1, 2, 3, 4); }";
    exits "varargs with mixed types" 1
      "double avg(int n, ...) { va_list ap; double s = 0.0; int i; va_start(ap); \
       for (i = 0; i < n; i++) s += va_arg_double(ap); return s / (double)n; } \
       int main(void) { double a = avg(2, 1.0, 3.0); return a == 2.0; }";
    exits "setjmp/longjmp basic" 42
      "int main(void) { jmp_buf jb; int v = setjmp(jb); if (v == 42) return 42; longjmp(jb, 42); return 1; }";
    exits "longjmp unwinds nested calls" 7
      "jmp_buf jb; void deep(int n) { if (n == 0) longjmp(jb, 7); deep(n - 1); } \
       int main(void) { int v = setjmp(jb); if (v) return v; deep(5); return 0; }";
    exits "longjmp with zero becomes one" 1
      "int main(void) { jmp_buf jb; int v = setjmp(jb); if (v) return v; longjmp(jb, 0); return 9; }";
    (* --- memory --- *)
    exits "malloc and pointer writes" 99
      "int main(void) { int *p = (int*)malloc(10 * sizeof(int)); p[9] = 99; return p[9]; }";
    exits "calloc zeroes" 1
      "int main(void) { int *p = (int*)calloc(8, sizeof(int)); return p[5] == 0; }";
    exits "realloc grows preserving data" 7
      "int main(void) { int *p = (int*)malloc(2 * sizeof(int)); p[1] = 7; \
       p = (int*)realloc(p, 100 * sizeof(int)); p[99] = 1; return p[1]; }";
    exits "pointer difference" 5
      "int main(void) { int a[10]; int *p = &a[2]; int *q = &a[7]; return (int)(q - p); }";
    exits "negative indexing from interior pointer" 3
      "int main(void) { int a[10]; a[2] = 3; int *p = &a[5]; return p[-3]; }";
    exits "linked list" 15
      "typedef struct n { int v; struct n *next; } n_t; \
       int main(void) { n_t *head = NULL; int i; for (i = 1; i <= 5; i++) { \
       n_t *x = (n_t*)malloc(sizeof(n_t)); x->v = i; x->next = head; head = x; } \
       int s = 0; while (head) { s += head->v; head = head->next; } return s; }";
    exits "struct copy by assignment" 3
      "struct p { int x; int y; }; int main(void) { struct p a; struct p b; a.x = 1; a.y = 2; b = a; a.x = 9; return b.x + b.y; }";
    exits "struct copy copies nested arrays" 1
      "struct s { int a[4]; }; int main(void) { struct s x; struct s y; x.a[3] = 5; y = x; x.a[3] = 0; return y.a[3] == 5; }";
    exits "union shares storage" 1
      "union u { int i; unsigned char b[4]; }; int main(void) { union u x; x.i = 0x01020304; return x.b[0] == 4 && x.b[3] == 1; }";
    exits "2d array indexing" 1
      "int main(void) { int m[3][4]; int i; int j; for (i = 0; i < 3; i++) for (j = 0; j < 4; j++) m[i][j] = i * 10 + j; \
       return m[2][3] == 23 && m[0][0] == 0 && m[1][2] == 12; }";
    exits "global initializers" 1
      "int g = 42; int arr[4] = {1, 2, 3}; char *s = \"xyz\"; int *gp = &g; \
       int main(void) { return g == 42 && arr[2] == 3 && arr[3] == 0 && s[1] == 'y' && *gp == 42; }";
    exits "global struct initializer" 1
      "struct cfg { int a; char name[4]; int b; }; struct cfg c = {7, \"hi\", 9}; \
       int main(void) { return c.a == 7 && c.name[0] == 'h' && c.name[2] == 0 && c.b == 9; }";
    exits "local composite init zero-fills" 1
      "int main(void) { int a[8] = {1}; return a[0] == 1 && a[7] == 0; }";
    exits "string library" 1
      "int main(void) { char buf[32]; strcpy(buf, \"hello\"); strcat(buf, \" world\"); \
       return strlen(buf) == 11 && strcmp(buf, \"hello world\") == 0 && strncmp(buf, \"hello!\", 5) == 0 \
       && strchr(buf, 'w') == buf + 6 && memcmp(buf, \"hell\", 4) == 0; }";
    exits "memset and memcpy" 1
      "int main(void) { char a[8]; char b[8]; memset(a, 7, 8); memcpy(b, a, 8); return b[0] == 7 && b[7] == 7; }";
    exits "strdup allocates a copy" 1
      "int main(void) { char *s = strdup(\"abc\"); s[0] = 'x'; return strcmp(s, \"xbc\") == 0; }";
    exits "atoi/atol/atof" 1
      "int main(void) { return atoi(\"42\") == 42 && atol(\"-7\") == -7L && atof(\"2.5\") == 2.5; }";
    (* the conversion family parses the longest valid C prefix — not
       OCaml's whole-string syntax.  Pinned unprotected and protected:
       these run through the checked _sb_ wrappers in protected builds
       too. *)
    both_paths "atoi: trailing junk is ignored (C prefix rule)" 1
      "int main(void) { return atoi(\"42abc\") == 42 && atol(\"42abc\") == 42L; }";
    both_paths "atoi: 0x is not a decimal prefix" 1
      "int main(void) { return atoi(\"0x2A\") == 0 && atol(\"0x2A\") == 0L; }";
    both_paths "atoi: underscores are junk, not digit separators" 1
      "int main(void) { return atoi(\"1_000\") == 1 && atol(\"1_000\") == 1L; }";
    both_paths "atoi: leading whitespace then sign" 1
      "int main(void) { return atoi(\" \\t-42xyz\") == -42 && atoi(\"   \") == 0 \
       && atoi(\"\") == 0 && atoi(\"abc\") == 0 && atoi(\"+7 \") == 7; }";
    both_paths "atof: trailing junk and partial forms" 1
      "int main(void) { return atof(\"3.5x\") == 3.5 && atof(\"3.\") == 3.0 \
       && atof(\".5z\") == 0.5 && atof(\"-2.5e2junk\") == -250.0; }";
    both_paths "atof: junk-only, empty, and non-exponent e" 1
      "int main(void) { return atof(\"abc\") == 0.0 && atof(\"\") == 0.0 \
       && atof(\"1e\") == 1.0 && atof(\"1e+x\") == 1.0 && atof(\"0x10\") == 0.0 \
       && atof(\" \\t7junk\") == 7.0; }";
    Alcotest.test_case "sim_recv feeds input lines" `Quick (fun () ->
        let r =
          run ~inputs:[ "hello" ]
            "int main(void) { char buf[64]; int n = sim_recv(buf, 64); return n == 5 && strcmp(buf, \"hello\") == 0; }"
        in
        match r.outcome with
        | Interp.State.Exit 1 -> ()
        | o -> Alcotest.fail (Interp.State.string_of_outcome o));
    exits "qsort sorts with an interpreted comparator" 1
      "int cmp(void *a, void *b) { return *(int*)a - *(int*)b; } \
       int main(void) { int a[8]; int i; for (i = 0; i < 8; i++) a[i] = (i * 5 + 2) % 13; \
       qsort(a, 8, sizeof(int), cmp); \
       for (i = 1; i < 8; i++) if (a[i-1] > a[i]) return 0; return 1; }";
    exits "qsort handles duplicates and empty" 1
      "int cmp(void *a, void *b) { return *(int*)a - *(int*)b; } \
       int main(void) { int a[6]; int i; for (i = 0; i < 6; i++) a[i] = i % 2; \
       qsort(a, 6, sizeof(int), cmp); qsort(a, 0, sizeof(int), cmp); \
       return a[0] == 0 && a[5] == 1; }";
    exits "bsearch finds and misses" 1
      "int cmp(void *a, void *b) { return *(int*)a - *(int*)b; } \
       int main(void) { int a[5]; int i; for (i = 0; i < 5; i++) a[i] = i * 10; \
       int k = 30; int *hit = (int*)bsearch(&k, a, 5, sizeof(int), cmp); \
       int k2 = 31; int *miss = (int*)bsearch(&k2, a, 5, sizeof(int), cmp); \
       return hit != NULL && *hit == 30 && miss == NULL; }";
    exits "qsort of structs by field" 1
      "typedef struct { int key; int val; } rec; \
       int by_key(void *a, void *b) { return ((rec*)a)->key - ((rec*)b)->key; } \
       int main(void) { rec r[4]; int i; for (i = 0; i < 4; i++) { r[i].key = 9 - i; r[i].val = i; } \
       qsort(r, 4, sizeof(rec), by_key); \
       return r[0].key == 6 && r[0].val == 3 && r[3].key == 9 && r[3].val == 0; }";
    exits "strtol parses prefix and sets end pointer" 1
      "int main(void) { char *end; long v = strtol(\"42abc\", &end, 10); \
       long h = strtol(\"ff\", NULL, 16); \
       return v == 42 && strcmp(end, \"abc\") == 0 && h == 255; }";
    exits "ctype helpers" 1
      "int main(void) { return toupper('a') == 'A' && tolower('Z') == 'z' \
       && isdigit('5') && !isdigit('x') && isalpha('g') && isspace(' ') \
       && isupper('Q') && islower('q'); }";
    exits "strrchr finds the last occurrence" 1
      "int main(void) { char *s = \"a.b.c\"; char *p = strrchr(s, '.'); return p == s + 3; }";
    exits "memchr" 1
      "int main(void) { char b[8]; memset(b, 0, 8); b[5] = 7; \
       char *p = (char*)memchr(b, 7, 8); char *q = (char*)memchr(b, 9, 8); \
       return p == b + 5 && q == NULL; }";
    exits "static locals persist across calls" 1
      "int counter(void) { static int c = 10; c++; return c; } \
       int main(void) { counter(); counter(); return counter() == 13; }";
    exits "static locals are zero-initialized by default" 1
      "int probe(void) { static int z; static char buf[8]; return z == 0 && buf[7] == 0; } \
       int main(void) { return probe(); }";
    exits "static locals in different functions are distinct" 1
      "int f(void) { static int x = 1; return x++; } \
       int g(void) { static int x = 100; return x++; } \
       int main(void) { f(); g(); return f() == 2 && g() == 101; }";
    exits "static array survives return (unlike stack arrays)" 1
      "char *mk(void) { static char b[8]; strcpy(b, \"ok\"); return b; } \
       int main(void) { char *p = mk(); return strcmp(p, \"ok\") == 0; }";
    (* --- io / printf --- *)
    prints "printf conversions" "n=-42 u=7 x=ff c=A s=str f=1.500000 pct=%\n"
      {|int main(void) { printf("n=%d u=%u x=%x c=%c s=%s f=%f pct=%%\n", -42, 7u, 255, 'A', "str", 1.5); return 0; }|};
    prints "printf width and precision" "[  42] [3.14]\n"
      {|int main(void) { printf("[%4d] [%.2f]\n", 42, 3.14159); return 0; }|};
    prints "puts appends newline" "hello\n"
      {|int main(void) { puts("hello"); return 0; }|};
    prints "sprintf writes to buffer" "v=7!\n"
      {|int main(void) { char b[32]; sprintf(b, "v=%d", 7); printf("%s!\n", b); return 0; }|};
    prints "snprintf truncates" "abc\n"
      {|int main(void) { char b[4]; snprintf(b, 4, "%s", "abcdef"); printf("%s\n", b); return 0; }|};
    (* --- argv --- *)
    Alcotest.test_case "argv passing" `Quick (fun () ->
        let r =
          run ~argv:[ "13"; "xyz" ]
            "int main(int argc, char **argv) { return argc == 3 && atoi(argv[1]) == 13 && strcmp(argv[2], \"xyz\") == 0; }"
        in
        match r.outcome with
        | Interp.State.Exit 1 -> ()
        | o -> Alcotest.fail (Interp.State.string_of_outcome o));
    (* --- lvalue/expression subtleties --- *)
    exits "pre/post increment" 1
      "int main(void) { int x = 5; int a = x++; int b = ++x; return a == 5 && b == 7 && x == 7; }";
    exits "pointer increment walks elements" 1
      "int main(void) { int a[3]; a[0] = 1; a[1] = 2; a[2] = 3; int *p = a; p++; return *p == 2 && *(p + 1) == 3; }";
    exits "compound assignment on array element" 1
      "int main(void) { int a[3]; a[1] = 10; a[1] += 5; a[1] *= 2; a[1] >>= 1; return a[1] == 15; }";
    exits "compound assignment evaluates lvalue once" 1
      "int idx; int *slot(int *a) { idx++; return &a[1]; } \
       int main(void) { int a[3]; a[1] = 1; *slot(a) += 5; return idx == 1 && a[1] == 6; }";
    exits "comma operator" 7
      "int main(void) { int x = (1, 2, 7); return x; }";
    exits "assignment value" 1
      "int main(void) { int a; int b; a = b = 21; return a + b == 42; }";
    exits "address of global array element" 1
      "int g[10]; int main(void) { int *p = &g[4]; *p = 9; return g[4] == 9; }";
    exits "sizeof values" 1
      "struct s { char c; long l; }; int main(void) { return sizeof(char) == 1 && sizeof(short) == 2 \
       && sizeof(int) == 4 && sizeof(long) == 8 && sizeof(void*) == 8 && sizeof(struct s) == 16 \
       && sizeof(double) == 8 && sizeof(float) == 4; }";
    exits "exit builtin" 33
      "int main(void) { exit(33); return 0; }";
    exits "rand is deterministic with seed" 1
      "int main(void) { srand(5); int a = rand(); srand(5); int b = rand(); return a == b && a >= 0; }";
    (* --- torture: semantic corners --- *)
    exits "operator precedence corners" 1
      "int main(void) { return (2 + 3 * 4 == 14) && (1 << 2 + 1 == 8) && ((1 & 3) == 1) \
       && (4 | 1 ^ 1 == 4 | 0) && (-2 * -3 == 6) && (10 - 4 - 3 == 3); }";
    exits "nested ternary associates right" 2
      "int main(void) { int x = 1; return x == 0 ? 0 : x == 1 ? 2 : 3; }";
    exits "comma in for header" 1
      "int main(void) { int i; int j; int s = 0; \
       for (i = 0, j = 10; i < j; i++, j--) s++; return s == 5; }";
    exits "do-while with continue re-tests the condition" 4
      "int main(void) { int i = 0; int n = 0; \
       do { i++; if (i % 2) continue; n++; } while (i < 8); return n; }";
    exits "deep block shadowing" 6
      "int main(void) { int x = 1; { int x = 2; { int x = 3; x++; } x++; } x++; \
       { int x = 4; x++; } return x + 4; }";
    exits "char comparisons and arithmetic" 1
      "int main(void) { char a = 'z'; char b = 'a'; return a - b == 25 && 'A' < 'B' && '0' == 48; }";
    exits "unsigned division and modulo" 1
      "int main(void) { unsigned int a = 0xfffffff0u; return a / 16u == 0x0fffffffu && a % 7u == 2u; }";
    exits "variable shift amounts" 1
      "int main(void) { int n = 5; int x = 1; int i; for (i = 0; i < n; i++) x <<= 1; return x == 32; }";
    exits "struct inside union" 1
      "union u { struct { int a; int b; } s; long whole; }; \
       int main(void) { union u x; x.s.a = 1; x.s.b = 2; \
       return (x.whole & 0xffffffffL) == 1 && (x.whole >> 32) == 2; }";
    exits "array of structs" 1
      "struct pt { int x; int y; }; \
       int main(void) { struct pt ps[4]; int i; for (i = 0; i < 4; i++) { ps[i].x = i; ps[i].y = i * i; } \
       return ps[3].x == 3 && ps[3].y == 9 && ps[0].y == 0; }";
    exits "pointer to pointer mutation" 1
      "int main(void) { int a = 1; int b = 2; int *p = &a; int **pp = &p; \
       **pp = 9; *pp = &b; **pp = 8; return a == 9 && b == 8; }";
    exits "function pointer stored in struct field" 1
      "int twice(int x) { return 2 * x; } \
       struct ops { int (*apply)(int); int bias; }; \
       int main(void) { struct ops o; o.apply = twice; o.bias = 1; \
       return o.apply(10) + o.bias == 21; }";
    exits "enum values in arithmetic and switch" 1
      "enum { RED, GREEN = 5, BLUE }; \
       int main(void) { int c = BLUE; switch (c) { case GREEN + 1: return RED + 1; default: return 0; } }";
    exits "strncpy pads with zeros" 1
      "int main(void) { char b[8]; memset(b, 'x', 8); strncpy(b, \"ab\", 6); \
       return b[0] == 'a' && b[2] == 0 && b[5] == 0 && b[6] == 'x'; }";
    exits "strncat respects the limit" 1
      "int main(void) { char b[16]; strcpy(b, \"one\"); strncat(b, \"twothree\", 3); \
       return strcmp(b, \"onetwo\") == 0; }";
    exits "sizeof array parameter decays to pointer size" 1
      "long probe(int a[]) { return sizeof(a); } \
       int main(void) { int arr[32]; return probe(arr) == 8 && sizeof(arr) == 128; }";
    exits "negative modulo follows C semantics" 1
      "int main(void) { return (-9) % 4 == -1 && 9 % -4 == 1; }";
    exits "float equality after exact arithmetic" 1
      "int main(void) { double a = 0.25; double b = a + a + a + a; return b == 1.0 && 0.5f + 0.5f == 1.0f; }";
    exits "global initializer referencing earlier global" 1
      "int base[4] = {9, 8, 7, 6}; int *third = &base[2]; \
       int main(void) { return *third == 7; }";
    exits "chained assignment through array elements" 1
      "int main(void) { int a[3]; a[0] = a[1] = a[2] = 5; return a[0] + a[1] + a[2] == 15; }";
    exits "logical operators yield exactly 0 or 1" 1
      "int main(void) { int x = 42; return (x && 7) == 1 && (!x) == 0 && (!!x) == 1 && (0 || 99) == 1; }";
    exits "while loop over string characters" 1
      "int main(void) { char *s = \"hello world\"; int spaces = 0; \
       while (*s) { if (*s == ' ') spaces++; s++; } return spaces; }";
    exits "recursive struct copy preserves pointer fields" 1
      "typedef struct n { int v; struct n *next; } n_t; \
       int main(void) { n_t a; n_t b; n_t c; a.v = 1; a.next = &c; c.v = 3; c.next = NULL; \
       b = a; return b.next->v == 3; }";
    exits "unsigned char wraparound in loop" 1
      "int main(void) { unsigned char c = 250; int steps = 0; \
       while (c != 4) { c++; steps++; if (steps > 300) return 0; } return steps == 10; }";
    exits "hex and char escapes in strings" 1
      {|int main(void) { char *s = "aA	b"; return s[1] == 'A' && s[2] == 9 && strlen(s) == 4; }|};
    exits "conditional expression selects lvalue-read correctly" 7
      "int main(void) { int a = 3; int b = 4; return (a < b ? b : a) + a; }";
    (* --- faults --- *)
    traps "null dereference segfaults"
      (function Interp.State.Segfault _ -> true | _ -> false)
      "int main(void) { int *p = NULL; return *p; }";
    traps "wild pointer segfaults"
      (function Interp.State.Segfault _ -> true | _ -> false)
      "int main(void) { long *p = (long*)0x50; return (int)*p; }";
    traps "stack exhaustion is detected"
      (function
        | Interp.State.Runtime_error _ | Interp.State.Segfault _ -> true
        | _ -> false)
      "int boom(int n) { int pad[64]; pad[0] = n; return boom(n + 1) + pad[0]; } int main(void) { return boom(0); }";
    traps "abort builtin traps"
      (function Interp.State.Runtime_error _ -> true | _ -> false)
      "int main(void) { abort(); return 0; }";
    traps "assert failure traps"
      (function Interp.State.Runtime_error _ -> true | _ -> false)
      "int main(void) { assert(1 == 2); return 0; }";
  ] @ call_target_suite
