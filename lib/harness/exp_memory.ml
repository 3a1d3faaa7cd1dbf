(* Memory-overhead companion to section 5.1: the hash table stores
   24-byte tagged entries only for live pointers, while the shadow space
   reserves 16 bytes per pointer-aligned word but materializes pages on
   demand.  We report the simulated resident set of each configuration
   relative to the uninstrumented run.

   The related-work schemes keep their metadata in places the simulator
   models as cost (their lookups are charged and their header/slot
   addresses touch the cache) but does not separately materialize, so
   their footprints are reported analytically from each scheme's run,
   using the scheme's documented layout:

   - CGuard: a 16-byte header (base + size) immediately before every
     allocated object -> 16 bytes per lifetime heap allocation;
   - FRAMER: a one-word (8-byte) frame header per object, located via
     the tag in the pointer's top byte (the tag itself costs no
     memory) -> 8 bytes per lifetime heap allocation;
   - L4 Pointer: 128-bit wide pointers carry base/bound inline, so
     every pointer slot written to memory is 8 bytes wider.  Counted
     per metadata store, so rewritten slots are recounted: a dynamic
     upper bound on the widened-slot footprint. *)

type row = {
  workload : Workloads.workload;
  base_resident : int;
  hash_resident : int;
  shadow_resident : int;
  heap_allocs : int;  (** lifetime allocations (uninstrumented run) *)
  cguard_meta : int;  (** 16 B object header per allocation *)
  framer_meta : int;  (** 8 B frame header per allocation *)
  l4_ptr_meta : int;  (** 8 B widening per stored pointer slot *)
}

let hash = Runner.Softbound Runner.sb_full_hash
let shadow = Runner.Softbound Runner.sb_full_shadow

let cells ~quick =
  Matrix.kernels ~quick
    [ Runner.Unprotected; hash; shadow; Runner.Cguard; Runner.Framer;
      Runner.L4_pointer ]

let row ~quick (m : Matrix.t) (w : Workloads.workload) : row =
  let run = Matrix.kernel m ~quick w in
  let base = run Runner.Unprotected in
  {
    workload = w;
    base_resident = base.resident_bytes;
    hash_resident = (run hash).resident_bytes;
    shadow_resident = (run shadow).resident_bytes;
    heap_allocs = base.heap_allocs;
    cguard_meta = 16 * (run Runner.Cguard).heap_allocs;
    framer_meta = 8 * (run Runner.Framer).heap_allocs;
    l4_ptr_meta = 8 * (run Runner.L4_pointer).stats.Interp.State.meta_stores;
  }

let rows ~quick m : row list = List.map (row ~quick m) Workloads.all

let render (rows : row list) : string =
  Texttable.render
    ~title:
      "Metadata memory overhead (simulated resident KiB; section 5.1 \
       trade-off; scheme columns are analytic bytes from the documented \
       layouts)"
    ~headers:
      [
        "benchmark"; "base"; "hash-table"; "shadow-space"; "allocs";
        "cguard B"; "framer B"; "l4-ptr B";
      ]
    (List.map
       (fun r ->
         [
           r.workload.Workloads.name;
           Printf.sprintf "%d" (r.base_resident / 1024);
           Printf.sprintf "%d" (r.hash_resident / 1024);
           Printf.sprintf "%d" (r.shadow_resident / 1024);
           Printf.sprintf "%d" r.heap_allocs;
           Printf.sprintf "%d" r.cguard_meta;
           Printf.sprintf "%d" r.framer_meta;
           Printf.sprintf "%d" r.l4_ptr_meta;
         ])
       rows)

let artifact : Artifact.t =
  let open Artifact in
  let counts =
    [ "base_resident"; "hash_resident"; "shadow_resident"; "heap_allocs";
      "cguard_meta_bytes"; "framer_meta_bytes"; "l4_ptr_meta_bytes" ]
  in
  { name = "memory"; tag = "memory"; host_timing = [];
    fields = [ ("workloads", Rows (Fields (("name", Str) :: nums counts))) ] }

(** Machine-readable record ([BENCH_memory.json]). *)
let to_json (rows : row list) : Json.t =
  let workload r =
    Json.Obj
      (("name", Json.Str r.workload.Workloads.name)
      :: Json.ints
           [ ("base_resident", r.base_resident);
             ("hash_resident", r.hash_resident);
             ("shadow_resident", r.shadow_resident);
             ("heap_allocs", r.heap_allocs);
             ("cguard_meta_bytes", r.cguard_meta);
             ("framer_meta_bytes", r.framer_meta);
             ("l4_ptr_meta_bytes", r.l4_ptr_meta) ])
  in
  Artifact.document artifact
    [ ("unit", Json.Str "bytes");
      ("workloads", Json.List (List.map workload rows)) ]
