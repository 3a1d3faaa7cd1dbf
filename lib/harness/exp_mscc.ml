(* Section 6.5: performance comparison to the MSCC-style pointer-based
   scheme.  The paper reports MSCC at 17%-185% (avg 68%) for spatial-only
   checking, and cites `go` at 144% under MSCC vs 55% under SoftBound —
   SoftBound should come out consistently cheaper, with the gap widest on
   metadata-heavy programs. *)

type row = {
  workload : Workloads.workload;
  softbound : float;
  mscc : float;
}

let full_shadow = Runner.Softbound Runner.sb_full_shadow

let cells ~quick =
  Matrix.kernels ~quick [ Runner.Unprotected; full_shadow; Runner.Mscc ]

let row ~quick (m : Matrix.t) (w : Workloads.workload) : row =
  let base = Matrix.cycles (Matrix.kernel m ~quick w Runner.Unprotected) in
  let ov scheme = Matrix.overhead ~base (Matrix.kernel m ~quick w scheme) in
  { workload = w; softbound = ov full_shadow; mscc = ov Runner.Mscc }

let rows ~quick m : row list = List.map (row ~quick m) Workloads.all

let render (rows : row list) : string =
  let avg f =
    List.fold_left (fun a r -> a +. f r) 0.0 rows
    /. float_of_int (List.length rows)
  in
  Texttable.render
    ~title:"Section 6.5: SoftBound (full/shadow) vs MSCC-style overheads"
    ~headers:[ "benchmark"; "softbound"; "mscc-style"; "sb cheaper" ]
    (List.map
       (fun r ->
         [
           r.workload.Workloads.name;
           Texttable.pct r.softbound;
           Texttable.pct r.mscc;
           Runner.yes_no (r.softbound <= r.mscc +. 0.02);
         ])
       rows
    @ [ [ "average"; Texttable.pct (avg (fun r -> r.softbound));
          Texttable.pct (avg (fun r -> r.mscc)); "" ] ])
  ^ "paper: MSCC avg 68% (17-185%), e.g. go 144% vs SoftBound 55%\n"
