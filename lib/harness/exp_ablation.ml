(* Ablations of SoftBound's design decisions (DESIGN.md section 4).

   Each ablation toggles exactly one option and reports either the
   safety consequence (detection probes) or the cost consequence
   (cycle/memory deltas on the pointer-heavy benchmarks). *)

(* ------------------------------------------------------------------ *)
(* 1. Bounds shrinking: the sub-object overflow of section 2.1.         *)
(* ------------------------------------------------------------------ *)

let shrink_probe = Exp_table1.subobject_probe

type shrink_result = { with_shrink : bool; without_shrink : bool }

let run_shrink () : shrink_result =
  let m = Softbound.compile shrink_probe in
  let d opts =
    Schemes.detected (Runner.run (Runner.Softbound opts) m)
  in
  {
    with_shrink = d Runner.sb_full_shadow;
    without_shrink =
      d { Runner.sb_full_shadow with Softbound.Config.shrink_bounds = false };
  }

(* ------------------------------------------------------------------ *)
(* 2. memcpy metadata heuristic: cost of always copying metadata on a   *)
(*    memcpy-heavy, pointer-free workload.                              *)
(* ------------------------------------------------------------------ *)

let memcpy_workload =
  {|
char src_buf[2048];
char dst_buf[2048];
int main(int argc, char **argv) {
  int reps = 120;
  int r;
  int i;
  long sum = 0;
  if (argc > 1) reps = atoi(argv[1]);
  for (i = 0; i < 2048; i++) src_buf[i] = (char)(i & 0x7f);
  for (r = 0; r < reps; r++) {
    memcpy(dst_buf, src_buf, 2048);
    sum += dst_buf[r % 2048];
  }
  printf("memcpy: sum=%ld\n", sum);
  return 0;
}
|}

type memcpy_result = {
  heuristic_overhead : float;
  always_copy_overhead : float;
  meta_ops_heuristic : int;
  meta_ops_always : int;
}

let run_memcpy () : memcpy_result =
  let m = Softbound.compile memcpy_workload in
  let base = Runner.run Runner.Unprotected m in
  let with_h = Runner.run (Runner.Softbound Runner.sb_full_shadow) m in
  let without =
    Runner.run
      (Runner.Softbound
         { Runner.sb_full_shadow with Softbound.Config.memcpy_heuristic = false })
      m
  in
  let meta (r : Interp.Vm.result) =
    r.stats.Interp.State.meta_loads + r.stats.Interp.State.meta_stores
  in
  {
    heuristic_overhead = Runner.overhead with_h base;
    always_copy_overhead = Runner.overhead without base;
    meta_ops_heuristic = meta with_h;
    meta_ops_always = meta without;
  }

(* ------------------------------------------------------------------ *)
(* 3. Metadata clearing on free: stale metadata from a previous         *)
(*    allocation must not vouch for a new object's pointer slots.       *)
(* ------------------------------------------------------------------ *)

(* A pointer-bearing block is freed; its storage is reused for an
   attacker-controllable buffer; a dangling-style reload of the old slot
   then dereferences whatever the buffer holds.  With clearing ON the
   reloaded pointer has null bounds and the dereference aborts.  With
   clearing OFF the stale metadata still matches the old object and the
   (reused, corrupted) pointer sails through. *)
let stale_meta_probe =
  {|
typedef struct { long *p; long pad; } holder;
long secret = 99;
int main(void) {
  holder *h = (holder*)malloc(sizeof(holder));
  long **alias;
  long *stale;
  h->p = &secret;
  alias = &h->p;        /* remembers the slot's address */
  free(h);
  /* reuse: same-size allocation lands on the same address */
  {
    long *fresh = (long*)malloc(sizeof(holder));
    fresh[0] = (long)&secret;   /* attacker-ish raw value, stored as data */
    /* reload through the old slot address: metadata for this slot is
       whatever free() left behind */
    stale = *alias;
    return (int)*stale;
  }
}
|}

type clear_result = { with_clearing : bool; without_clearing : bool }

let run_clear_free () : clear_result =
  let m = Softbound.compile stale_meta_probe in
  let d opts =
    Schemes.detected (Runner.run (Runner.Softbound opts) m)
  in
  {
    with_clearing = d Runner.sb_full_shadow;
    without_clearing =
      d { Runner.sb_full_shadow with Softbound.Config.clear_free_meta = false };
  }

(* ------------------------------------------------------------------ *)
(* 4. Metadata liveness pruning: instruction-count cost of propagating   *)
(*    metadata nobody can observe.                                      *)
(* ------------------------------------------------------------------ *)

type prune_result = { pruned : float; unpruned : float }

(* mst loads many pointers whose metadata no check can observe, so the
   pruning effect is large there (treeadd, by contrast, passes every
   loaded pointer straight into a call, leaving nothing to prune) *)
let mst = Option.get (Workloads.find "mst")
let pruned = Runner.Softbound Runner.sb_full_shadow

let unpruned =
  Runner.Softbound
    { Runner.sb_full_shadow with Softbound.Config.prune_liveness = false }

let cells ~quick =
  List.map
    (fun s -> (mst, Matrix.args ~quick mst, s))
    [ Runner.Unprotected; pruned; unpruned ]

let run_prune ~quick (m : Matrix.t) : prune_result =
  let base = Matrix.cycles (Matrix.kernel m ~quick mst Runner.Unprotected) in
  let overhead s = Matrix.overhead ~base (Matrix.kernel m ~quick mst s) in
  { pruned = overhead pruned; unpruned = overhead unpruned }

let render ~quick (m : Matrix.t) : string =
  let s = run_shrink () in
  let mc = run_memcpy () in
  let cl = run_clear_free () in
  let pr = run_prune ~quick m in
  Printf.sprintf
    "Ablations of SoftBound design choices\n\
     1. bounds shrinking (section 3.1): sub-object overflow detected \
     with=%s without=%s (expected yes/no)\n\
     2. memcpy heuristic (section 5.2): overhead with heuristic %s \
     (meta ops %d) vs always-copy %s (meta ops %d)\n\
     3. free-time metadata clearing (section 5.2): stale-metadata reuse \
     detected with=%s without=%s (expected yes/no)\n\
     4. metadata liveness pruning: mst overhead pruned %s vs \
     unpruned %s\n"
    (Runner.yes_no s.with_shrink)
    (Runner.yes_no s.without_shrink)
    (Texttable.pct mc.heuristic_overhead)
    mc.meta_ops_heuristic
    (Texttable.pct mc.always_copy_overhead)
    mc.meta_ops_always
    (Runner.yes_no cl.with_clearing)
    (Runner.yes_no cl.without_clearing)
    (Texttable.pct pr.pruned)
    (Texttable.pct pr.unpruned)
