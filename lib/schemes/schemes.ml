(* Registry of protection schemes: the one place that declares which
   schemes exist beyond SoftBound's own configurations, what each is
   called, and how each runs.  The harness ({!Harness.Runner}, the
   simulation matrix, the scheme experiments), the differential
   oracle, the CLI's [--checker] and the serve protocol all read this
   list; none of them names a scheme of its own.

   Two implementation shapes:

   - [Transform]: the SoftBound instrumentation run with the scheme's
     option profile (its metadata facility and bounds granularity) —
     the transformed program checks itself.
   - [Plugin]: a baseline checker observing the *unprotected* module's
     allocation/access/arithmetic events ({!Interp.State.checker}).

   The [misses_sub_object] flag is the Table 4 story: whole-object
   bounds cannot see an overflow that stays inside the allocation, so
   the oracle *requires* those schemes to stay silent on sub-object
   attacks (a trap there means the model, or the scheme, is wrong).
   [guaranteed_detect] marks schemes whose detection of an injected
   out-of-bounds access is landing-independent (per-pointer provenance
   bounds travel with the pointer); plugin schemes' verdicts depend on
   where the stray access happens to land, so the oracle only holds
   them to agreeing with the unprotected run when they don't trap —
   their exact coverage cells are pinned by the fixed attack-matrix
   unit tests instead. *)

type impl =
  | Transform of Softbound.Config.options
  | Plugin of (unit -> Interp.State.checker)

type entry = {
  sname : string;
  impl : impl;
  misses_sub_object : bool;
      (** whole-object bounds: must NOT trap on intra-object overflows *)
  guaranteed_detect : bool;
      (** must trap on every injected non-sub-object OOB access *)
  summary : string;
}

(* SoftBound's transform with [shrink_bounds] off (whole-object bounds
   on every derived pointer) over [facility]. *)
let whole_object facility =
  { Softbound.Config.default with facility; shrink_bounds = false }

(* MSCC-style configuration (Xu, DuVarney & Sekar, FSE 2004) for the
   section 6.5 performance comparison.

   MSCC is a pointer-based source transformation, like SoftBound, but:
   - it keeps metadata in linked shadow structures rather than a flat
     shadow space — modelled by the hash-table facility (pointer-chasing
     lookups with tag checks);
   - in its best-performing configuration it loses sub-object overflow
     detection — modelled by disabling bounds shrinking;
   - it eschews whole-program analysis *and* the post-instrumentation
     cleanup SoftBound inherits from re-running LLVM's optimizers —
     modelled by disabling the metadata-liveness pruning, the memcpy
     heuristic and check elimination, so every pointer's metadata is
     materialized and propagated whether or not a check can ever
     observe it;
   - it cannot handle arbitrary (wild) casts — reported as an attribute
     in the Table 1 probe, not modelled as a crash. *)
let mscc =
  {
    sname = "mscc";
    impl =
      Transform
        {
          (whole_object Softbound.Config.Hash_table) with
          memcpy_heuristic = false;
          prune_liveness = false;
          eliminate_checks = false;
          widen_checks = false;
        };
    misses_sub_object = true;
    guaranteed_detect = true;
    summary =
      "MSCC-style pointer-chasing metadata (hash facility, no bounds \
       shrinking, no cleanup passes)";
  }

(* CGuard-style scheme: bounds in a header just before the object.

   CGuard (PAPERS.md) allocates every object with a 16-byte header
   holding the object's limits and checks each access against the
   header of the object the accessed pointer belongs to.  The pointer
   carries only an object tag (in spare bits), so the scheme's bounds
   are *object-granularity*: a pointer derived from a struct field
   still answers to the whole allocation's header, and intra-object
   (sub-object) overflows go unnoticed — the gap SoftBound's shrunk
   per-pointer bounds close (paper section 3.1, Table 4).

   Modeled over the [Obj_header] runtime facility (header-deref cost
   and cache traffic on lookups, free tag propagation on pointer
   stores). *)
let cguard =
  {
    sname = "cguard";
    impl = Transform (whole_object Softbound.Config.Obj_header);
    misses_sub_object = true;
    guaranteed_detect = true;
    summary =
      "bounds in a 16-byte header before the object; object-granularity \
       (misses sub-object overflows)";
  }

(* FRAMER-style scheme: frame-tagged software capabilities.

   FRAMER (PAPERS.md) keeps pointers one machine word wide by encoding
   a tag in the otherwise-unused top byte; the tag locates the header
   of the power-of-two-aligned "frame" enclosing the object, and the
   header supplies the object's bounds.  Like every object-table
   scheme, the recovered bounds cover the whole allocation, so
   sub-object overflows are invisible (Table 4's gap); unlike a table,
   lookup is a tag decode plus one header dereference.

   Modeled over the [Frame_tag] facility (tag-decode + frame-header
   cost on lookups, one-instruction tag propagation on pointer
   stores). *)
let framer =
  {
    sname = "framer";
    impl = Transform (whole_object Softbound.Config.Frame_tag);
    misses_sub_object = true;
    guaranteed_detect = true;
    summary =
      "frame tag in the pointer's top byte locates an object header; \
       object-granularity (misses sub-object overflows)";
  }

(* L4-Pointer-style scheme: 128-bit wide pointers, no hardware support.

   L4 Pointer (PAPERS.md) widens every pointer to 128 bits, carrying
   base and bound inline next to the address — the fat-pointer lineage
   (CCured, Cyclone) without hardware tags.  Metadata access is nearly
   free (the upper half sits beside the pointer), paid for with doubled
   pointer memory traffic and the layout incompatibility wide pointers
   are known for.  The inline bounds describe the allocation the
   pointer was derived from, whole-object granularity: the production
   schemes in this family do not narrow bounds on interior-pointer
   creation, so sub-object overflows pass (Table 4).

   Modeled over the [Wide_inline] facility (cheap lookups/updates whose
   cache traffic lands on the word adjacent to the pointer slot). *)
let l4_pointer =
  {
    sname = "l4-pointer";
    impl = Transform (whole_object Softbound.Config.Wide_inline);
    misses_sub_object = true;
    guaranteed_detect = true;
    summary =
      "128-bit wide pointers with inline base/bound; whole-object bounds \
       (misses sub-object overflows), doubled pointer traffic";
  }

let jones_kelly =
  {
    sname = "jones-kelly";
    impl = Plugin Baselines.Jones_kelly.make;
    misses_sub_object = true;
    guaranteed_detect = false;
    summary =
      "object-table (splay-tree) referent checking of pointer \
       arithmetic; detection depends on where the access lands";
  }

let memcheck =
  {
    sname = "memcheck-like";
    impl = Plugin Baselines.Memcheck_like.make;
    misses_sub_object = true;
    guaranteed_detect = false;
    summary =
      "heap-only redzone addressability checking; stack and \
       in-bounds-of-another-block accesses pass";
  }

let mudflap =
  {
    sname = "mudflap-like";
    impl = Plugin Baselines.Mudflap_like.make;
    misses_sub_object = true;
    guaranteed_detect = false;
    summary =
      "object-database access checking at object granularity; \
       accesses landing inside any live object pass";
  }

(** Every scheme beyond the SoftBound configurations themselves, in
    report order. *)
let all = [ mscc; cguard; framer; l4_pointer; jones_kelly; memcheck; mudflap ]

let names = List.map (fun e -> e.sname) all

(** The short spellings the CLI and the serve protocol also accept. *)
let aliases = [ ("memcheck", memcheck); ("mudflap", mudflap) ]

(** Every name {!find} resolves: the registry names, then the aliases. *)
let accepted = names @ List.map fst aliases

let find name =
  match List.find_opt (fun e -> e.sname = name) all with
  | Some e -> Some e
  | None -> List.assoc_opt name aliases

(** Run [entry] on an uninstrumented module, producing the same
    [Vm.result] shape every other configuration produces.  Transform
    entries instrument and run; plugin entries run the module unchanged
    with the checker observing. *)
let run ?(cfg = Interp.State.default_config) (e : entry) (m : Sbir.Ir.modul)
    : Interp.Vm.result =
  match e.impl with
  | Transform opts -> Softbound.run_protected ~opts ~cfg m
  | Plugin mk ->
      Softbound.run_unprotected ~cfg:{ cfg with checker = Some (mk ()) } m

(** Did the run trap with a scheme's violation?  Transform schemes raise
    SoftBound bounds violations; plugins raise object-table
    violations. *)
let detected (r : Interp.Vm.result) =
  match r.Interp.Vm.outcome with
  | Interp.State.Trapped (Interp.State.Bounds_violation _)
  | Interp.State.Trapped (Interp.State.Object_violation _) ->
      true
  | _ -> false

(** The fixed attack suite of the completeness-gap matrix (Table 4's
    axes): one attack per spatial-violation class, each a complete
    MiniC program whose only violation is the attack itself.  The
    coverage experiment and the gap-matrix unit tests both run every
    scheme over exactly these. *)
let gap_attacks : (string * string) list =
  [
    ( "sub-object-overflow",
      (* overflows the [str] field into the adjacent [guard] field of
         the same struct: inside the allocation, so only shrunken
         per-pointer bounds can see it *)
      "struct node { char str[8]; long guard; };\n\
       int main(void) {\n\
      \  struct node n;\n\
      \  char *p = n.str;\n\
      \  n.guard = 0;\n\
      \  p[9] = 'x';\n\
      \  return (int)n.guard != 0;\n\
       }\n" );
    ( "adjacent-heap-overflow",
      (* classic one-block heap overflow: writes past the end of a
         malloc'd block *)
      "int main(void) {\n\
      \  char *p = (char *)malloc(8);\n\
      \  p[0] = 1;\n\
      \  p[10] = 1;\n\
      \  free(p);\n\
      \  return 0;\n\
       }\n" );
    ( "heap-underflow",
      (* writes below the start of a malloc'd block *)
      "int main(void) {\n\
      \  char *p = (char *)malloc(8);\n\
      \  p[0] = 1;\n\
      \  p[-3] = 1;\n\
      \  free(p);\n\
      \  return 0;\n\
       }\n" );
    ( "off-by-one-read",
      (* reads one element past a stack array: no write, so store-only
         checking is blind to it by design *)
      "int main(void) {\n\
      \  int a[8];\n\
      \  int i;\n\
      \  for (i = 0; i < 8; i = i + 1) a[i] = i;\n\
      \  int x = a[8];\n\
      \  return x & 0;\n\
       }\n" );
  ]
