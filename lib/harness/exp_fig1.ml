(* Figure 1: percentage of memory operations that load or store a pointer,
   per benchmark, in the paper's sorted presentation order (SPEC shaded
   dark in the original plot). *)

type row = {
  workload : Workloads.workload;
  ptr_fraction : float;
  mem_ops : int;
  insts : int;
}

let cells ~quick = Matrix.kernels ~quick [ Runner.Unprotected ]

let row ~quick (m : Matrix.t) (w : Workloads.workload) : row =
  let r = Matrix.kernel m ~quick w Runner.Unprotected in
  Runner.check_clean ~quick ~workload:w.Workloads.name
    ~scheme:(Runner.scheme_name Runner.Unprotected)
    r.Matrix.outcome;
  let s = r.stats in
  let mem_ops = s.Interp.State.mem_reads + s.Interp.State.mem_writes in
  {
    workload = w;
    ptr_fraction =
      (if mem_ops = 0 then 0.0
       else float_of_int s.Interp.State.ptr_mem_ops /. float_of_int mem_ops);
    mem_ops;
    insts = s.Interp.State.insts;
  }

let rows ~quick m : row list = List.map (row ~quick m) Workloads.all

let bar frac =
  let width = int_of_float (frac *. 60.0) in
  String.make (max 0 width) '#'

(** Rank agreement between our measured order and the paper's x-axis
    order (the registry order): fraction of benchmark pairs ordered the
    same way (Kendall-style concordance). *)
let order_agreement (rows : row list) : float =
  let paper_rank w =
    let rec idx i = function
      | [] -> -1
      | x :: rest ->
          if x.Workloads.name = w.Workloads.name then i else idx (i + 1) rest
    in
    idx 0 Workloads.all
  in
  let rows = Array.of_list rows in
  let n = Array.length rows in
  let concordant = ref 0 and total = ref 0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      incr total;
      let dp = compare (paper_rank rows.(i).workload) (paper_rank rows.(j).workload) in
      let dm = compare rows.(i).ptr_fraction rows.(j).ptr_fraction in
      if dp * dm >= 0 then incr concordant
    done
  done;
  float_of_int !concordant /. float_of_int (max 1 !total)

let render (rows : row list) : string =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Figure 1: frequency of pointer memory operations\n\
     (percentage of loads/stores that move a pointer value, sorted as in \
     the paper's plot; SPEC marked *)\n\n";
  let sorted_rows =
    List.sort (fun a b -> compare a.ptr_fraction b.ptr_fraction) rows
  in
  List.iter
    (fun r ->
      let w = r.workload in
      Buffer.add_string buf
        (Printf.sprintf "%c %-11s %5.1f%% |%s\n"
           (if w.Workloads.category = Workloads.Spec then '*' else ' ')
           w.Workloads.name
           (100.0 *. r.ptr_fraction)
           (bar r.ptr_fraction)))
    sorted_rows;
  let spec_low =
    List.for_all
      (fun r ->
        r.workload.Workloads.category <> Workloads.Spec
        || r.workload.Workloads.name = "li"
        || r.workload.Workloads.name = "libquantum"
        || r.ptr_fraction < 0.05)
      rows
  in
  Buffer.add_string buf
    (Printf.sprintf
       "\npaper: five SPEC benchmarks below 5%% (here: %s); several Olden \
        benchmarks above 50%%; pairwise order agreement with the paper's \
        x-axis: %.0f%%\n"
       (Runner.yes_no spec_low)
       (100.0 *. order_agreement rows));
  Buffer.contents buf
