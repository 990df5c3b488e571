module Counter = struct
  type t = int Atomic.t

  let make () = Atomic.make 0

  let inc ?(by = 1) t =
    if Runtime.enabled () then ignore (Atomic.fetch_and_add t by : int)

  let get t = Atomic.get t
end

module Gauge = struct
  type t = float Atomic.t

  let make () = Atomic.make 0.
  let set t v = if Runtime.enabled () then Atomic.set t v

  let rec add t v =
    if Runtime.enabled () then begin
      let cur = Atomic.get t in
      if not (Atomic.compare_and_set t cur (cur +. v)) then add t v
    end

  let get t = Atomic.get t
end

type metric =
  | M_counter of Counter.t
  | M_gauge of Gauge.t
  | M_histogram of Histogram.t

type series = { help : string; labels : (string * string) list; metric : metric }

type t = {
  m : Mutex.t;
  series : (string * (string * string) list, series) Hashtbl.t;
}

let create () = { m = Mutex.create (); series = Hashtbl.create 64 }
let default = create ()

let kind_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let register t ~help ~labels name fresh =
  Mutex.lock t.m;
  let key = (name, labels) in
  let metric =
    match Hashtbl.find_opt t.series key with
    | Some s -> s.metric
    | None ->
      let metric = fresh () in
      Hashtbl.add t.series key { help; labels; metric };
      metric
  in
  Mutex.unlock t.m;
  metric

let counter ?(help = "") ?(labels = []) t name =
  match register t ~help ~labels name (fun () -> M_counter (Counter.make ())) with
  | M_counter c -> c
  | m ->
    invalid_arg
      (Printf.sprintf "Registry.counter: %s is already a %s" name (kind_name m))

let gauge ?(help = "") ?(labels = []) t name =
  match register t ~help ~labels name (fun () -> M_gauge (Gauge.make ())) with
  | M_gauge g -> g
  | m ->
    invalid_arg
      (Printf.sprintf "Registry.gauge: %s is already a %s" name (kind_name m))

let histogram ?(help = "") ?(labels = []) ?buckets t name =
  match
    register t ~help ~labels name (fun () ->
        M_histogram (Histogram.create ?buckets ()))
  with
  | M_histogram h -> h
  | m ->
    invalid_arg
      (Printf.sprintf "Registry.histogram: %s is already a %s" name
         (kind_name m))

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Histogram.snapshot

type sample = {
  name : string;
  labels : (string * string) list;
  help : string;
  value : value;
}

let sample_of name (s : series) =
  let value =
    match s.metric with
    | M_counter c -> Counter_v (Counter.get c)
    | M_gauge g -> Gauge_v (Gauge.get g)
    | M_histogram h -> Histogram_v (Histogram.snapshot h)
  in
  { name; labels = s.labels; help = s.help; value }

let snapshot t =
  Mutex.lock t.m;
  let out =
    Hashtbl.fold (fun (name, _) s acc -> sample_of name s :: acc) t.series []
  in
  Mutex.unlock t.m;
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    out

let find t ?(labels = []) name =
  Mutex.lock t.m;
  let s = Hashtbl.find_opt t.series (name, labels) in
  Mutex.unlock t.m;
  Option.map (sample_of name) s
