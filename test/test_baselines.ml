(* Baseline-checker tests: each tool's strengths and characteristic blind
   spots, plus splay-tree model checking. *)

let run_ck mk src =
  let m = Softbound.compile src in
  Softbound.run_unprotected
    ~cfg:{ Interp.State.default_config with checker = Some (mk ()) }
    m

let detected (r : Interp.Vm.result) =
  match r.outcome with
  | Interp.State.Trapped (Interp.State.Object_violation _) -> true
  | _ -> false

let flags name mk src =
  Alcotest.test_case name `Quick (fun () ->
      if not (detected (run_ck mk src)) then
        Alcotest.fail "expected the checker to flag this program")

let passes name mk src =
  Alcotest.test_case name `Quick (fun () ->
      let r = run_ck mk src in
      match r.outcome with
      | Interp.State.Exit _ -> ()
      | o -> Alcotest.fail (Interp.State.string_of_outcome o))

let heap_overflow =
  "int main(void) { char *p = (char*)malloc(8); p[10] = 1; return 0; }"

let stack_overflow_within_padding =
  "int emit(void) { char b[10]; double d = 0.0; b[10] = 1; return (int)d; } \
   int main(void) { return emit(); }"

let subobject_overflow =
  "typedef struct { char str[8]; long guard; } node_t; \
   int main(void) { node_t n; char *p = n.str; n.guard = 0; p[9] = 'x'; return (int)n.guard != 0; }"

let benign =
  "int main(void) { int a[50]; int i; int s = 0; \
   int *h = (int*)malloc(40 * sizeof(int)); \
   for (i = 0; i < 50; i++) a[i] = i; for (i = 0; i < 40; i++) h[i] = i; \
   for (i = 0; i < 40; i++) s += h[i] + a[i]; free(h); return s > 0; }"

let uaf =
  "int main(void) { int *p = (int*)malloc(8); free(p); return p[0]; }"

let suite =
  [
    (* --- Jones-Kelly style --- *)
    flags "JK flags cross-object pointer arithmetic" Baselines.Jones_kelly.make
      heap_overflow;
    passes "JK misses sub-object overflow (incompleteness, section 2.1)"
      Baselines.Jones_kelly.make subobject_overflow;
    passes "JK allows one-past-the-end" Baselines.Jones_kelly.make
      "int main(void) { int a[10]; int *p; for (p = a; p < a + 10; p++) *p = 1; return a[9]; }";
    passes "JK clean on benign program" Baselines.Jones_kelly.make benign;
    (* --- Memcheck style --- *)
    flags "Memcheck flags heap overrun (redzone)" Baselines.Memcheck_like.make
      heap_overflow;
    flags "Memcheck flags use-after-free" Baselines.Memcheck_like.make uaf;
    passes "Memcheck misses stack overflows (Table 4)"
      Baselines.Memcheck_like.make stack_overflow_within_padding;
    passes "Memcheck misses sub-object overflow" Baselines.Memcheck_like.make
      subobject_overflow;
    passes "Memcheck clean on benign program" Baselines.Memcheck_like.make
      benign;
    (* --- Mudflap style --- *)
    flags "Mudflap flags heap overrun" Baselines.Mudflap_like.make
      heap_overflow;
    flags "Mudflap flags stack overflow into padding"
      Baselines.Mudflap_like.make stack_overflow_within_padding;
    passes "Mudflap misses sub-object overflow" Baselines.Mudflap_like.make
      subobject_overflow;
    passes "Mudflap clean on benign program" Baselines.Mudflap_like.make
      benign;
    (* --- MSCC style --- *)
    Alcotest.test_case "MSCC catches whole-object overflow" `Quick (fun () ->
        let r = Schemes.run Schemes.mscc (Softbound.compile heap_overflow) in
        Alcotest.(check bool) "detected" true (Softbound.detected r));
    Alcotest.test_case "MSCC misses sub-object overflow" `Quick (fun () ->
        let r =
          Schemes.run Schemes.mscc (Softbound.compile subobject_overflow)
        in
        match r.outcome with
        | Interp.State.Exit _ -> ()
        | o -> Alcotest.fail (Interp.State.string_of_outcome o));
    (* --- splay tree --- *)
    Alcotest.test_case "splay: insert/find/remove" `Quick (fun () ->
        let t = Baselines.Splay.create () in
        ignore (Baselines.Splay.insert t ~base:100 ~size:10);
        ignore (Baselines.Splay.insert t ~base:300 ~size:20);
        ignore (Baselines.Splay.insert t ~base:200 ~size:5);
        Alcotest.(check (option (pair int int))) "in first"
          (Some (100, 10))
          (Baselines.Splay.find_containing t 105);
        Alcotest.(check (option (pair int int))) "boundary is outside" None
          (Baselines.Splay.find_containing t 110);
        Alcotest.(check (option (pair int int))) "in third"
          (Some (300, 20))
          (Baselines.Splay.find_containing t 319);
        ignore (Baselines.Splay.remove t ~base:100);
        Alcotest.(check (option (pair int int))) "removed" None
          (Baselines.Splay.find_containing t 105);
        Alcotest.(check int) "count" 2 (Baselines.Splay.size t));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"splay agrees with a Map model" ~count:200
         QCheck.(
           list
             (pair (int_bound 2)
                (pair (int_bound 50) (int_range 1 5))))
         (fun ops ->
           let t = Baselines.Splay.create () in
           let model = ref [] in
           List.iter
             (fun (op, (k, s)) ->
               let base = k * 10 in
               match op with
               | 0 ->
                   ignore (Baselines.Splay.insert t ~base ~size:s);
                   model := (base, s) :: List.remove_assoc base !model
               | 1 ->
                   ignore (Baselines.Splay.remove t ~base);
                   model := List.remove_assoc base !model
               | _ -> ())
             ops;
           (* containment queries agree on every probe point *)
           List.for_all
             (fun probe ->
               let expect =
                 List.find_opt
                   (fun (b, s) -> probe >= b && probe < b + s)
                   !model
               in
               Baselines.Splay.find_containing t probe = expect)
             (List.init 60 (fun i -> i * 9)))
      );
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"splay size tracks distinct keys" ~count:200
         QCheck.(list (int_bound 40))
         (fun keys ->
           let t = Baselines.Splay.create () in
           List.iter
             (fun k -> ignore (Baselines.Splay.insert t ~base:k ~size:1))
             keys;
           Baselines.Splay.size t = List.length (List.sort_uniq compare keys)));
  ]
