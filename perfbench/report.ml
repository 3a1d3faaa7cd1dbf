(* Order statistics, process figures and the result line. *)

let median_sorted (a : float array) : float =
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sorted (l : float list) : float array =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median (l : float list) : float = median_sorted (sorted l)

(** Nearest-rank percentile of an ascending array. *)
let percentile (a : float array) (p : float) : float =
  let n = Array.length a in
  if n = 0 then nan
  else
    let i = int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

let mean (l : float list) : float =
  match l with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

(** Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () : float =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
          (fun kb -> float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(** The result line: [correct], [attempted], [failed] and the metrics,
    each with its unit. *)
let result_line ~correct ~attempted ~failed (metrics : metric list) : string =
  let num v = if Float.is_finite v then Printf.sprintf "%.15g" v else "null" in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name
              (num x.value) x.unit_)
          metrics))
