(* Order statistics for latency samples. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of an ascending array, [q] in [0, 1]. *)
let quantile_sorted a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let quantile xs q = quantile_sorted (sorted xs) q
let median xs = quantile xs 0.5

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

(* Completions per second, from completion times: the median rate over
   ten consecutive slices with equal numbers of completions, so a stall
   of the host moves one slice, not the result.  A slice keeps at least
   ten completions. *)
let sliced_rate ~start times =
  let t = sorted times in
  let n = Array.length t in
  let slices = max 1 (min 10 (n / 10)) in
  let per = n / slices in
  median
    (Array.init slices (fun s ->
         let hi = if s = slices - 1 then n else (s + 1) * per in
         let prev = if s = 0 then start else t.((s * per) - 1) in
         float_of_int (hi - (s * per)) /. (t.(hi - 1) -. prev)))

(* The [q]-quantile of latencies given as (completion time, latency),
   robust to a burst: the run is cut into 5 (or 3) stretches of equal
   sample count in completion order, each keeping at least 100 samples
   so its p90 has ten beyond it, and the mean of the stretches'
   quantiles, leaving out the highest, is returned.  A checkpoint stall
   or a few seconds of a busy host move one stretch, which is dropped,
   and the rest of the run still counts.  (The median stretch alone
   would rest on a fifth of the run, and where latency grows with the
   history, as in [evolve], on its middle.)  Below 300 samples it is
   the plain quantile. *)
let segmented_quantile timed q =
  let a = Array.of_list timed in
  Array.stable_sort (fun (t, _) (u, _) -> Float.compare t u) a;
  let n = Array.length a in
  let s = if n >= 500 then 5 else if n >= 300 then 3 else 1 in
  let v =
    sorted
      (Array.init s (fun i ->
           let lo = i * n / s and hi = (i + 1) * n / s in
           quantile (Array.init (hi - lo) (fun j -> snd a.(lo + j))) q))
  in
  if s = 1 then v.(0) else mean (Array.sub v 0 (s - 1))

(* The highest of the usual reporting percentiles that still has at
   least ten samples above it: with fewer, the number is set by a
   handful of samples and does not repeat from run to run. *)
let tail_percentile n =
  (* in per mille, so the count beyond is exact integer arithmetic *)
  List.find_opt (fun pm -> n * (1000 - pm) / 1000 >= 10) [ 999; 990; 950; 900; 750; 500 ]
  |> Option.map (fun pm -> float_of_int pm /. 10.)
