(* In-memory span recorder for the benchmark's traced runs.

   A span is one call into a layer: its name ("<layer>.<stage>"), start
   and end on the monotonic clock, the span that was open when it began
   (its parent, on the same domain), the request it serves, and the
   OCaml words the domain allocated while it was open.  Spans are kept
   in memory and written out when the run ends.  With recording off,
   [with_] is a plain call.

   The store is a set of flat arrays allocated once, before the first
   measured session: spans kept as a growing list of records would
   enlarge the major heap as the run goes on, and the heap's size
   decides how often the service's collector runs — the traced
   sessions would then run faster than the untraced ones they are
   compared with. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* words allocated by the calling domain so far *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type t = {
  id : int;
  name : string;
  req : int;  (** request (serve job or kernel run) the span belongs to *)
  parent : int;  (** id of the enclosing span, -1 for a root *)
  domain : int;
  t0 : float;
  t1 : float;
  words : float;  (** words allocated while open, children included *)
}

(** Spans recorded beyond this many are dropped (see [dropped]). *)
let capacity = 65_536

type store = {
  names : string array;
  reqs : int array;
  parents : int array;
  domains : int array;
  t0s : float array;
  t1s : float array;
  wordss : float array;
}

let store =
  lazy
    {
      names = Array.make capacity "";
      reqs = Array.make capacity 0;
      parents = Array.make capacity 0;
      domains = Array.make capacity 0;
      t0s = Array.make capacity 0.0;
      t1s = Array.make capacity 0.0;
      wordss = Array.make capacity 0.0;
    }

(** Allocate the store; call before the first measured session. *)
let init () = ignore (Lazy.force store)

let recording = ref false

(* a span's id is its slot *)
let next_id = Atomic.make 0
let dropped_spans = Atomic.make 0

(* the spans open on this domain: id, request, start, words at start *)
let stack : (int * int * float * float) list Domain.DLS.key =
  Domain.DLS.new_key (fun () -> [])

(** [with_ ?req name f] runs [f ()] inside a span.  [req] defaults to
    the enclosing span's request. *)
let with_ ?req name f =
  if not !recording then f ()
  else if Atomic.get next_id >= capacity then begin
    Atomic.incr dropped_spans;
    f ()
  end
  else begin
    let st = Lazy.force store in
    let open_ = Domain.DLS.get stack in
    let parent, preq =
      match open_ with (id, r, _, _) :: _ -> (id, r) | [] -> (-1, -1)
    in
    let id = Atomic.fetch_and_add next_id 1 in
    let req = Option.value req ~default:preq in
    Domain.DLS.set stack ((id, req, now (), alloc_words ()) :: open_);
    let close () =
      let t1 = now () and w1 = alloc_words () in
      match Domain.DLS.get stack with
      | (_, _, t0, w0) :: rest ->
          Domain.DLS.set stack rest;
          if id >= capacity then Atomic.incr dropped_spans
          else begin
            st.names.(id) <- name;
            st.reqs.(id) <- req;
            st.parents.(id) <- parent;
            st.domains.(id) <- (Domain.self () :> int);
            st.t0s.(id) <- t0;
            st.t1s.(id) <- t1;
            st.wordss.(id) <- w1 -. w0
          end
      | [] -> assert false
    in
    match f () with
    | v -> close (); v
    | exception e -> close (); raise e
  end

(** Spans that did not fit in the store. *)
let dropped () = Atomic.get dropped_spans

(** Every span recorded so far, in start order. *)
let collect () : t list =
  let st = Lazy.force store in
  List.init (min capacity (Atomic.get next_id)) (fun id ->
      { id; name = st.names.(id); req = st.reqs.(id); parent = st.parents.(id);
        domain = st.domains.(id); t0 = st.t0s.(id); t1 = st.t1s.(id);
        words = st.wordss.(id) })
  |> List.sort (fun a b -> compare a.t0 b.t0)

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(** Self time and self allocation per span: its own figures minus those
    of its direct children. *)
let self (spans : t list) : (t * float * float) list =
  let kids = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let d, w =
          Option.value (Hashtbl.find_opt kids s.parent) ~default:(0.0, 0.0)
        in
        Hashtbl.replace kids s.parent (d +. s.t1 -. s.t0, w +. s.words))
    spans;
  List.map
    (fun s ->
      let d, w = Option.value (Hashtbl.find_opt kids s.id) ~default:(0.0, 0.0) in
      (s, s.t1 -. s.t0 -. d, s.words -. w))
    spans

(** Number of nesting violations: a child that starts before or ends
    after its parent, lives on another domain or serves another
    request, a parent that was never recorded, or siblings that
    overlap. *)
let nesting_errors (spans : t list) : int =
  let by_id = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let errors = ref 0 in
  let last_child_end = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.t1 < s.t0 then incr errors;
      if s.parent >= 0 then
        match Hashtbl.find_opt by_id s.parent with
        | None -> incr errors
        | Some p ->
            if s.t0 < p.t0 || s.t1 > p.t1 || s.domain <> p.domain
               || s.req <> p.req
            then incr errors;
            (match Hashtbl.find_opt last_child_end p.id with
            | Some e when s.t0 < e -> incr errors
            | _ -> ());
            Hashtbl.replace last_child_end p.id s.t1)
    spans;
  !errors

(** Write the spans as one JSON object per line, times in microseconds
    from the first span's start. *)
let write_file (path : string) (spans : t list) : unit =
  let origin = match spans with s :: _ -> s.t0 | [] -> 0.0 in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"req\":%d,\"parent\":%d,\"domain\":%d,\
         \"start_us\":%.3f,\"end_us\":%.3f,\"words\":%.0f}\n"
        s.id s.name s.req s.parent s.domain
        ((s.t0 -. origin) *. 1e6) ((s.t1 -. origin) *. 1e6) s.words)
    spans
