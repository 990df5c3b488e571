(* The observability layer: histogram percentile laws (QCheck),
   registry registration semantics, exporter formats (a Prometheus
   line-grammar check and a minimal JSON parser), span recording, and
   the cross-layer wiring — a deliberately slowed decision commit must
   land its full span tree in the slow-op log. *)

module H = Obs.Histogram
module Reg = Obs.Registry
module Trace = Obs.Trace
module Export = Obs.Export
module Repo = Gkbms.Repository

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

(* ---------------- histogram percentiles (properties) ---------------- *)

(* values spanning below-1, the middle buckets and the overflow bucket *)
let gen_values =
  QCheck.(
    list_of_size (Gen.int_range 1 60)
      (map (fun (mag, frac) -> Float.of_int mag +. frac)
         (pair (int_range 0 10_000_000) (float_range 0. 1.))))

let hist_of values =
  let h = H.create () in
  List.iter (H.observe h) values;
  h

let qs = [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1. ]

let prop_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentile is monotone in q" ~count:100
    gen_values (fun values ->
      let h = hist_of values in
      let ps = List.map (H.percentile h) qs in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono ps)

let prop_percentile_bounded =
  QCheck.Test.make ~name:"histogram percentile stays within observed range"
    ~count:100 gen_values (fun values ->
      let h = hist_of values in
      let lo = List.fold_left Float.min Float.infinity values in
      let hi = List.fold_left Float.max Float.neg_infinity values in
      List.for_all
        (fun q ->
          let p = H.percentile h q in
          lo <= p && p <= hi)
        qs)

let test_percentile_overflow () =
  (* all mass in the overflow bucket: percentiles must report observed
     values, never the (infinite) bucket bound *)
  let h = H.create ~buckets:4 () in
  List.iter (H.observe h) [ 100.; 200.; 400. ];
  check (Alcotest.float 0.001) "p100 = max" 400. (H.percentile h 1.);
  check (Alcotest.float 0.001) "p0 = min" 100. (H.percentile h 0.);
  check bool "p50 within range" true
    (H.percentile h 0.5 >= 100. && H.percentile h 0.5 <= 400.);
  let empty = H.create () in
  check (Alcotest.float 0.001) "empty histogram" 0. (H.percentile empty 0.5)

(* ---------------- registry ---------------- *)

let test_registry_idempotent () =
  let r = Reg.create () in
  let c1 = Reg.counter r "reqs_total" in
  let c2 = Reg.counter r "reqs_total" in
  Reg.Counter.inc c1;
  Reg.Counter.inc c2 ~by:2;
  check int "same underlying counter" 3 (Reg.Counter.get c1);
  (* distinct label sets are distinct series *)
  let la = Reg.counter r "labeled" ~labels:[ ("k", "a") ] in
  let lb = Reg.counter r "labeled" ~labels:[ ("k", "b") ] in
  Reg.Counter.inc la;
  check int "labels split series" 0 (Reg.Counter.get lb);
  check bool "kind mismatch rejected" true
    (try
       ignore (Reg.gauge r "reqs_total");
       false
     with Invalid_argument _ -> true);
  let samples = Reg.snapshot r in
  check int "three series" 3 (List.length samples);
  match Reg.find r "reqs_total" with
  | Some { Reg.value = Reg.Counter_v 3; _ } -> ()
  | _ -> Alcotest.fail "find lost the counter value"

let test_registry_disable () =
  let r = Reg.create () in
  let c = Reg.counter r "gated" in
  Obs.Runtime.set_enabled false;
  Reg.Counter.inc c;
  Obs.Runtime.set_enabled true;
  check int "no count while disabled" 0 (Reg.Counter.get c);
  Reg.Counter.inc c;
  check int "counts once re-enabled" 1 (Reg.Counter.get c)

(* ---------------- Prometheus exposition grammar ---------------- *)

let is_name_char ~first c =
  match c with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true
  | '0' .. '9' -> not first
  | _ -> false

let valid_name s =
  s <> ""
  && String.length s > 0
  && is_name_char ~first:true s.[0]
  && String.for_all (fun c -> is_name_char ~first:false c) s

(* one sample line: name[{k="v",...}] SPACE value *)
let check_sample_line line =
  let metric, value =
    match String.rindex_opt line ' ' with
    | Some i ->
      ( String.sub line 0 i,
        String.sub line (i + 1) (String.length line - i - 1) )
    | None -> Alcotest.failf "no value separator in %S" line
  in
  (match float_of_string_opt value with
  | Some _ -> ()
  | None -> Alcotest.failf "unparseable value %S in %S" value line);
  let name, labels =
    match String.index_opt metric '{' with
    | None -> (metric, None)
    | Some i ->
      if metric.[String.length metric - 1] <> '}' then
        Alcotest.failf "unterminated label set in %S" line;
      ( String.sub metric 0 i,
        Some (String.sub metric (i + 1) (String.length metric - i - 2)) )
  in
  if not (valid_name name) then Alcotest.failf "bad metric name %S" name;
  match labels with
  | None -> ()
  | Some body ->
    (* k="v" pairs; values may contain escaped quotes *)
    let n = String.length body in
    let rec pair i =
      let rec name_end j =
        if j < n && is_name_char ~first:(j = i) body.[j] then name_end (j + 1)
        else j
      in
      let e = name_end i in
      if e = i || e + 1 >= n || body.[e] <> '=' || body.[e + 1] <> '"' then
        Alcotest.failf "bad label pair at %d in %S" i body;
      let rec value_end j =
        if j >= n then Alcotest.failf "unterminated label value in %S" body
        else if body.[j] = '\\' then value_end (j + 2)
        else if body.[j] = '"' then j
        else value_end (j + 1)
      in
      let v = value_end (e + 2) in
      if v + 1 < n then
        if body.[v + 1] = ',' then pair (v + 2)
        else Alcotest.failf "junk after label value in %S" body
    in
    pair 0

let sample_registry () =
  let r = Reg.create () in
  let c =
    Reg.counter r "gkbms_decisions_committed_total" ~help:"Decisions committed"
  in
  Reg.Counter.inc c ~by:5;
  let g = Reg.gauge r "queue_depth" in
  Reg.Gauge.set g 2.5;
  let h =
    Reg.histogram r "latency_us" ~buckets:6
      ~labels:[ ("cmd", "weird \"quoted\"\nname") ]
  in
  List.iter (H.observe h) [ 0.5; 3.; 900.; 1e9 ];
  r

let test_prometheus_format () =
  let text = Export.prometheus (Reg.snapshot (sample_registry ())) in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
  in
  let seen_type = Hashtbl.create 8 in
  List.iter
    (fun line ->
      if String.length line >= 2 && String.sub line 0 2 = "# " then begin
        match String.split_on_char ' ' line with
        | "#" :: ("HELP" | "TYPE") :: name :: _ when valid_name name ->
          if contains "# TYPE" line then begin
            if Hashtbl.mem seen_type name then
              Alcotest.failf "duplicate TYPE for %s" name;
            Hashtbl.add seen_type name ()
          end
        | _ -> Alcotest.failf "bad comment line %S" line
      end
      else check_sample_line line)
    lines;
  check bool "counter line" true
    (contains "gkbms_decisions_committed_total 5" text);
  check bool "help text" true
    (contains "# HELP gkbms_decisions_committed_total Decisions committed" text);
  check bool "histogram type" true (contains "# TYPE latency_us histogram" text);
  check bool "overflow bucket" true (contains "le=\"+Inf\"" text);
  check bool "count series" true (contains "latency_us_count" text);
  check bool "escaped label value" true (contains "weird \\\"quoted\\\"\\nname" text);
  (* cumulative buckets: last le count equals _count *)
  let bucket_counts =
    List.filter_map
      (fun l ->
        if contains "latency_us_bucket" l then
          String.rindex_opt l ' '
          |> Option.map (fun i ->
                 int_of_string
                   (String.sub l (i + 1) (String.length l - i - 1)))
        else None)
      lines
  in
  check bool "buckets cumulative" true
    (List.for_all2 ( <= )
       (List.filteri (fun i _ -> i < List.length bucket_counts - 1) bucket_counts)
       (List.tl bucket_counts));
  check int "last bucket is total" 4 (List.nth bucket_counts (List.length bucket_counts - 1))

(* ---------------- minimal JSON validation ---------------- *)

(* a tiny recursive-descent syntax check: values, objects, arrays,
   strings with escapes, numbers; enough to prove the exporter emits
   well-formed JSON *)
let validate_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = Alcotest.failf "invalid JSON at %d: %s" !pos msg in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t')
    do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %c" c)
  in
  let string_lit () =
    expect '"';
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else if s.[!pos] = '\\' then begin
        pos := !pos + 2;
        go ()
      end
      else if s.[!pos] = '"' then incr pos
      else begin
        incr pos;
        go ()
      end
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && (match s.[!pos] with
         | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
         | _ -> false)
    do
      incr pos
    done;
    if !pos = start then fail "expected a number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some _ -> ()
    | None -> fail "malformed number"
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '"' -> string_lit ()
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then incr pos
      else
        let rec members () =
          skip_ws ();
          string_lit ();
          skip_ws ();
          expect ':';
          value ();
          skip_ws ();
          if peek () = Some ',' then begin
            incr pos;
            members ()
          end
          else expect '}'
        in
        members ()
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then incr pos
      else
        let rec elements () =
          value ();
          skip_ws ();
          if peek () = Some ',' then begin
            incr pos;
            elements ()
          end
          else expect ']'
        in
        elements ()
    | Some ('n' | 't' | 'f') ->
      (* the literals: null, true, false (flight-log events use null) *)
      let lit =
        if !pos + 4 <= n && String.sub s !pos 4 = "null" then Some 4
        else if !pos + 4 <= n && String.sub s !pos 4 = "true" then Some 4
        else if !pos + 5 <= n && String.sub s !pos 5 = "false" then Some 5
        else None
      in
      (match lit with
      | Some len -> pos := !pos + len
      | None -> fail "expected a literal")
    | Some _ -> number ()
    | None -> fail "unexpected end"
  in
  value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let test_json_export () =
  let json = Export.json (Reg.snapshot (sample_registry ())) in
  validate_json json;
  check bool "counter name survives" true
    (contains "\"gkbms_decisions_committed_total\"" json);
  check bool "label value escaped" true
    (contains "weird \\\"quoted\\\"\\nname" json);
  check bool "overflow le" true (contains "\"le\":\"+Inf\"" json);
  check bool "histogram count" true (contains "\"count\":4" json)

(* ---------------- tracing ---------------- *)

let test_span_nesting () =
  Trace.clear ();
  Trace.set_enabled true;
  Trace.set_slow_threshold_s 10.;
  let r =
    Trace.with_span "outer" ~attrs:[ ("k", "v") ] (fun () ->
        Trace.with_span "inner" (fun () -> 7) + 1)
  in
  Trace.set_enabled false;
  check int "result through spans" 8 r;
  match Trace.recent () with
  | root :: _ ->
    check Alcotest.string "root name" "outer" root.Trace.span_name;
    check bool "duration set" true (root.Trace.duration_s >= 0.);
    (match Trace.children root with
    | [ child ] -> check Alcotest.string "child name" "inner" child.Trace.span_name
    | l -> Alcotest.failf "expected 1 child, got %d" (List.length l))
  | [] -> Alcotest.fail "no root span recorded"

let test_span_exception_safety () =
  Trace.clear ();
  Trace.set_enabled true;
  Trace.set_slow_threshold_s 10.;
  (try Trace.with_span "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  (* the raising span was closed and recorded; a following span must be
     a fresh root, not a child of the broken one *)
  Trace.with_span "after" (fun () -> ());
  Trace.set_enabled false;
  let names = List.map (fun s -> s.Trace.span_name) (Trace.recent ()) in
  check (Alcotest.list Alcotest.string) "both roots recorded"
    [ "after"; "boom" ] names

let test_span_capacity () =
  Trace.clear ();
  Trace.set_capacity ~recent:3 ~slow:2;
  Trace.set_enabled true;
  Trace.set_slow_threshold_s 0.;
  for i = 1 to 5 do
    Trace.with_span (Printf.sprintf "op%d" i) (fun () -> ())
  done;
  Trace.set_enabled false;
  check int "recent bounded" 3 (List.length (Trace.recent ()));
  check int "slow bounded" 2 (List.length (Trace.slow ()));
  check Alcotest.string "newest kept" "op5"
    (List.hd (Trace.recent ())).Trace.span_name;
  Trace.set_capacity ~recent:64 ~slow:32;
  Trace.set_slow_threshold_s 0.1;
  Trace.clear ()

let test_span_json () =
  Trace.clear ();
  Trace.set_enabled true;
  Trace.set_slow_threshold_s 10.;
  Trace.with_span "root" ~attrs:[ ("cmd", "run \"x\"") ] (fun () ->
      Trace.with_span "leaf" (fun () -> ()));
  Trace.set_enabled false;
  let json = Export.spans_json (Trace.recent ()) in
  validate_json json;
  check bool "nested child serialized" true (contains "\"leaf\"" json);
  check bool "attr escaped" true (contains "run \\\"x\\\"" json)

(* A thread keeps no span stack once its outermost span closes, and an
   attribute set with no span open adds none, so threads that come and
   go (a daemon's connections) leave nothing behind: 2,000 of them,
   each opening one span, grow the live heap by less than a word
   apiece.  The recent ring is full before the measurement, so its size
   does not move. *)
let test_span_threads_leave_nothing () =
  Trace.clear ();
  Trace.set_enabled true;
  Trace.set_slow_threshold_s 10.;
  Fun.protect ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.set_slow_threshold_s 0.1;
      Trace.clear ())
  @@ fun () ->
  let threads n =
    for _ = 1 to n do
      Thread.join
        (Thread.create
           (fun () ->
             Trace.with_span "conn" (fun () -> Trace.add_attr "k" "v");
             Trace.add_attr "after" "no open span")
           ())
    done
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  threads 200;
  let before = live () in
  threads 2_000;
  let grown = live () - before in
  if grown >= 2_000 then
    Alcotest.failf "2,000 traced threads grew the live heap by %d words" grown

(* ---------------- server group-commit series ---------------- *)

let test_group_commit_series () =
  (* the group-commit observability trio on the process-wide registry:
     a daemon's batch-size histogram and in-flight gauge, and the WAL
     file sink's fsync counter; all must render through the exposition
     grammar under their agreed names *)
  let batches () =
    match Reg.find Reg.default "gkbms_group_commit_batch_size" with
    | Some { Reg.value = Reg.Histogram_v h; _ } -> h.H.total
    | _ -> Alcotest.fail "batch-size histogram not registered"
  in
  let inflight () =
    match Reg.find Reg.default "gkbms_server_inflight_requests" with
    | Some { Reg.value = Reg.Gauge_v v; _ } -> v
    | _ -> Alcotest.fail "in-flight gauge not registered"
  in
  let repo = Repo.create () in
  Gkbms.Mapping.register_tools repo;
  ignore
    (ok
       (Repo.new_object repo ~name:"BatchDoc" ~cls:Gkbms.Metamodel.dbpl_object
          (Repo.Text "v0")));
  let daemon = Server.Daemon.create repo in
  let b0 = batches () and g0 = inflight () in
  let client = Server.Client.of_transport (Server.Daemon.connect daemon) in
  List.iter
    (fun line -> ignore (ok (Server.Client.request client line)))
    [
      "run DecManualEdit Editor object=BatchDoc text=v1";
      "run DecManualEdit Editor object=BatchDoc2 text=v2";
    ];
  Server.Client.close client;
  (* a response is counted out of flight after it is sent: wait until
     the session has drained *)
  let rec drain n =
    if n > 0 && Server.Daemon.session_count daemon > 0 then (
      Thread.delay 0.01;
      drain (n - 1))
  in
  drain 200;
  Server.Daemon.stop daemon;
  check int "two blocking writes, two batches" (b0 + 2) (batches ());
  check (Alcotest.float 1e-9) "every request left flight" g0 (inflight ());
  let text = Export.prometheus (Reg.snapshot Reg.default) in
  List.iter
    (fun line ->
      if
        line <> ""
        && not (String.length line >= 2 && String.sub line 0 2 = "# ")
      then check_sample_line line)
    (String.split_on_char '\n' text);
  check bool "batch-size histogram exported" true
    (contains "gkbms_group_commit_batch_size" text);
  check bool "in-flight gauge exported" true
    (contains "gkbms_server_inflight_requests" text);
  (* the WAL sink's counter registers into the default registry at
     sink-creation time; exercise one to make the series appear *)
  let file = Filename.temp_file "gkbms_obs_wal" ".wal" in
  let w = Durability.Wal.writer (Durability.Wal.file_sink ~fsync:false file) in
  Durability.Wal.append w (Durability.Wal.Note ("k", "v"));
  Durability.Wal.sync w;
  Durability.Wal.close w;
  Sys.remove file;
  match Reg.find Reg.default "gkbms_wal_fsyncs_total" with
  | Some { Reg.value = Reg.Counter_v n; _ } ->
    check bool "fsync counter counts syncs" true (n >= 1)
  | _ -> Alcotest.fail "gkbms_wal_fsyncs_total not registered"

(* ---------------- exporter escaping regressions ---------------- *)

let test_prometheus_escaping_regression () =
  let r = Reg.create () in
  let c =
    Reg.counter r "esc_total" ~help:"path C:\\temp\nsecond line"
      ~labels:[ ("path", "C:\\dir \"q\"\nx") ]
  in
  Reg.Counter.inc c;
  let text = Export.prometheus (Reg.snapshot r) in
  (* every sample line must still satisfy the exposition grammar *)
  List.iter
    (fun line ->
      if
        line <> ""
        && not (String.length line >= 2 && String.sub line 0 2 = "# ")
      then check_sample_line line)
    (String.split_on_char '\n' text);
  check bool "HELP escapes backslash and newline" true
    (contains "# HELP esc_total path C:\\\\temp\\nsecond line" text);
  check bool "label value escapes backslash, quote, newline" true
    (contains "C:\\\\dir \\\"q\\\"\\nx" text);
  check Alcotest.string "help_escape" "a\\\\b\\nc" (Export.help_escape "a\\b\nc");
  check Alcotest.string "label_value_escape" "a\\\\b\\\"c\\nd"
    (Export.label_value_escape "a\\b\"c\nd")

(* ---------------- trace context codec ---------------- *)

module Ctx = Obs.Trace_context

let ctx_of (trace_id, span_id, sampled) = { Ctx.trace_id; span_id; sampled }

let gen_ctx = QCheck.(map ctx_of (triple int64 int64 bool))

let prop_ctx_roundtrip =
  QCheck.Test.make ~name:"trace context codec round-trips" ~count:300 gen_ctx
    (fun ctx ->
      match Ctx.decode (Ctx.encode ctx) with
      | Ok ctx' -> Ctx.equal ctx ctx'
      | Error _ -> false)

let prop_note_roundtrip =
  QCheck.Test.make ~name:"WAL trace note round-trips (incl. absent context)"
    ~count:300
    QCheck.(triple small_nat (option gen_ctx) (float_range 0. 2e9))
    (fun (n, ctx, commit_s) ->
      let decision = Printf.sprintf "dec%d" n in
      match
        Ctx.parse_note_value (Ctx.note_value ~decision ~ctx ~commit_s)
      with
      | Ok (d', ctx', c') ->
        d' = decision
        && Option.equal Ctx.equal ctx ctx'
        && Float.abs (c' -. commit_s) <= 1e-5
      | Error _ -> false)

let test_ctx_decode_rejects_malformed () =
  List.iter
    (fun s ->
      match Ctx.decode s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "decoded malformed context %S" s)
    [ ""; "abc"; "zz:ff:1"; "1:2"; "1:2:3:4"; "ff:gg:1"; "ff:ee:2";
      "11111111111111111:2:1" ];
  match Ctx.parse_note_value "dec1 not-a-ctx" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "parsed malformed note"

let test_ctx_generate_distinct () =
  let a = Ctx.generate () and b = Ctx.generate () in
  check bool "fresh ids differ" false (Ctx.equal a b);
  let c = Ctx.child a in
  check bool "child keeps trace id" true (a.Ctx.trace_id = c.Ctx.trace_id);
  check bool "child gets fresh span id" false (a.Ctx.span_id = c.Ctx.span_id);
  check int "hex handle is 16 chars" 16 (String.length (Ctx.trace_hex a))

(* ---------------- ambient context ---------------- *)

let test_ambient_context () =
  Trace.clear ();
  Trace.set_enabled true;
  Trace.set_slow_threshold_s 10.;
  let ctx = Ctx.generate () in
  check bool "no ambient context initially" true
    (Trace.current_context () = None);
  Trace.with_context (Some ctx) (fun () ->
      check bool "ambient context set" true
        (Trace.current_context () = Some ctx);
      Trace.with_span "ctx_op" (fun () -> ());
      (* nested clear, then restore *)
      Trace.with_context None (fun () ->
          check bool "nested clear" true (Trace.current_context () = None)));
  check bool "context restored to none" true (Trace.current_context () = None);
  Trace.set_enabled false;
  match Trace.recent () with
  | sp :: _ ->
    check Alcotest.string "span name" "ctx_op" sp.Trace.span_name;
    check bool "span auto-tagged with trace id" true
      (List.mem ("trace", Ctx.trace_hex ctx) sp.Trace.attrs)
  | [] -> Alcotest.fail "no span recorded"

(* [current_context] skips the lock while [contexts_set] reads 0, so
   that count must fall back to 0 however [with_context] exits, and a
   context must stay invisible to other threads. *)
let test_context_per_thread () =
  let ctx = Ctx.generate () in
  check int "no context set" 0 (Trace.contexts_set ());
  let seen_elsewhere = ref (Some ctx) in
  Trace.with_context (Some ctx) (fun () ->
      check int "one context set" 1 (Trace.contexts_set ());
      let t = Thread.create (fun () -> seen_elsewhere := Trace.current_context ()) () in
      Thread.join t;
      check bool "own thread sees it" true (Trace.current_context () = Some ctx));
  check bool "other thread sees none" true (!seen_elsewhere = None);
  check int "none set after a normal exit" 0 (Trace.contexts_set ());
  (match Trace.with_context (Some ctx) (fun () -> failwith "boom") with
  | () -> Alcotest.fail "with_context swallowed the exception"
  | exception Failure _ -> ());
  check int "none set after a raise" 0 (Trace.contexts_set ());
  check bool "and none read" true (Trace.current_context () = None)

let test_slow_threshold_parse () =
  check bool "50 -> 0.05s" true (Trace.threshold_of_ms_string "50" = Some 0.05);
  check bool "0 ok" true (Trace.threshold_of_ms_string "0" = Some 0.);
  check bool "spaces ok" true
    (Trace.threshold_of_ms_string " 250 " = Some 0.25);
  check bool "negative rejected" true
    (Trace.threshold_of_ms_string "-1" = None);
  check bool "garbage rejected" true (Trace.threshold_of_ms_string "abc" = None)

(* ---------------- flight recorder ---------------- *)

let test_recorder_ring () =
  Obs.Recorder.clear ();
  Obs.Recorder.set_capacity 4;
  Fun.protect ~finally:(fun () ->
      Obs.Recorder.set_capacity 1024;
      Obs.Recorder.clear ())
  @@ fun () ->
  for i = 1 to 6 do
    Obs.Recorder.record
      ~decision:(Printf.sprintf "d%d" i)
      Obs.Recorder.Committed
  done;
  let evs = Obs.Recorder.events () in
  check int "ring bounded" 4 (List.length evs);
  check Alcotest.string "oldest surviving event" "d3"
    (List.hd evs).Obs.Recorder.decision;
  check Alcotest.string "newest event" "d6"
    (List.nth evs 3).Obs.Recorder.decision;
  Obs.Recorder.record ~trace:"cafe0123cafe0123" ~decision:"d7"
    (Obs.Recorder.Applied 0.005);
  check int "events_for filters" 1
    (List.length (Obs.Recorder.events_for "d7"));
  let r = Obs.Recorder.render_for "d7" in
  check bool "render carries trace id" true (contains "cafe0123cafe0123" r);
  check bool "render carries lag" true (contains "lag_ms=5.000" r);
  check bool "unknown decision message" true
    (contains "no recorded events" (Obs.Recorder.render_for "nope"));
  (* dump is JSON lines, one per surviving event *)
  let path = Filename.temp_file "gkbms_flight" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  let n = Obs.Recorder.dump_to_file path in
  check int "dump count" 4 n;
  let lines =
    In_channel.with_open_text path In_channel.input_lines
    |> List.filter (fun l -> l <> "")
  in
  check int "one JSON line per event" 4 (List.length lines);
  List.iter validate_json lines;
  check bool "dump carries the applied event" true
    (List.exists (fun l -> contains "\"kind\":\"applied\"" l) lines)

(* A set but malformed observability variable is an error naming it;
   unset and valid values are not. *)
let test_env_errors () =
  let env vars name = List.assoc_opt name vars in
  let errors vars = Trace.env_errors (env vars) in
  check (Alcotest.list Alcotest.string) "unset" [] (errors []);
  check (Alcotest.list Alcotest.string) "valid" []
    (errors [ ("GKBMS_SLOW_MS", "250") ]);
  check (Alcotest.list Alcotest.string) "bad threshold"
    [ {|GKBMS_SLOW_MS: bad threshold "-1" (want non-negative milliseconds)|} ]
    (errors [ ("GKBMS_SLOW_MS", "-1") ])

(* ---------------- prover stats are copied out ---------------- *)

let test_prover_copy_stats_independent () =
  let d = Logic.Datalog.create () in
  let atom p args = Logic.Term.atom p args in
  List.iter
    (fun (x, y) ->
      ok
        (Logic.Datalog.add_fact d
           (atom "edge" [ Logic.Term.sym x; Logic.Term.sym y ])))
    [ ("a", "b"); ("b", "c"); ("c", "d") ];
  ok
    (Logic.Datalog.add_clause d
       (Logic.Term.clause
          (atom "path" [ Logic.Term.var "X"; Logic.Term.var "Y" ])
          [ Logic.Term.Pos (atom "edge" [ Logic.Term.var "X"; Logic.Term.var "Y" ]) ]));
  ok
    (Logic.Datalog.add_clause d
       (Logic.Term.clause
          (atom "path" [ Logic.Term.var "X"; Logic.Term.var "Z" ])
          [
            Logic.Term.Pos (atom "edge" [ Logic.Term.var "X"; Logic.Term.var "Y" ]);
            Logic.Term.Pos (atom "path" [ Logic.Term.var "Y"; Logic.Term.var "Z" ]);
          ]));
  let p = Logic.Prover.make d in
  ignore
    (Logic.Prover.solve p
       [ atom "path" [ Logic.Term.sym "a"; Logic.Term.var "Y" ] ]);
  let before = (Logic.Prover.stats p).Logic.Prover.resolutions in
  check bool "original did work" true (before > 0);
  (* a snapshot, not the live record *)
  let snap = Logic.Prover.stats p in
  snap.Logic.Prover.resolutions <- 12345;
  check int "mutating a snapshot does not reach the prover" before
    (Logic.Prover.stats p).Logic.Prover.resolutions

(* ---------------- cross-layer: slow decision in the slow-op log ------ *)

let test_slow_decision_in_slow_log () =
  let repo = Repo.create () in
  Gkbms.Mapping.register_tools repo;
  Repo.register_tool repo
    {
      Repo.tool_name = "SlowEditor";
      executes = Gkbms.Metamodel.dec_manual_edit;
      automation = `Manual;
      guarantees = [];
      run =
        (fun repo ~inputs ~params ->
          Unix.sleepf 0.03;
          match
            (List.assoc_opt "object" inputs, List.assoc_opt "text" params)
          with
          | Some obj, Some text ->
            Result.bind
              (Repo.new_object repo ~name:"SlowDoc_v2" ~replaces:obj
                 ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text text))
              (fun id ->
                Ok [ { Repo.role = "edited"; obj = id; replaces = Some obj } ])
          | _ -> Error "need object/text");
    };
  let doc =
    ok
      (Repo.new_object repo ~name:"SlowDoc" ~cls:Gkbms.Metamodel.dbpl_object
         (Repo.Text "v0"))
  in
  Trace.clear ();
  Trace.set_slow_threshold_s 0.01;
  Trace.set_enabled true;
  let before =
    match Reg.find Reg.default "gkbms_decisions_committed_total" with
    | Some { Reg.value = Reg.Counter_v v; _ } -> v
    | _ -> 0
  in
  ignore
    (ok
       (Gkbms.Decision.execute repo
          ~decision_class:Gkbms.Metamodel.dec_manual_edit ~tool:"SlowEditor"
          ~inputs:[ ("object", doc) ]
          ~params:[ ("text", "v1") ]
          ()));
  Trace.set_enabled false;
  Trace.set_slow_threshold_s 0.1;
  (* the sentinel counter moved *)
  (match Reg.find Reg.default "gkbms_decisions_committed_total" with
  | Some { Reg.value = Reg.Counter_v v; _ } ->
    check int "decision counted in the shared registry" (before + 1) v
  | _ -> Alcotest.fail "sentinel counter missing");
  (* and the slow-op log holds the decision's full span tree *)
  match
    List.find_opt
      (fun s -> s.Trace.span_name = "decision.execute")
      (Trace.slow ())
  with
  | None -> Alcotest.fail "slowed decision.execute not in the slow-op log"
  | Some sp ->
    check bool "slow span is actually slow" true (sp.Trace.duration_s >= 0.01);
    check bool "tool attr captured" true
      (List.mem ("tool", "SlowEditor") sp.Trace.attrs);
    let children = List.map (fun c -> c.Trace.span_name) (Trace.children sp) in
    check bool "tool_run child present" true
      (List.mem "decision.tool_run" children);
    check bool "consistency child present" true
      (List.mem "decision.consistency_check" children);
    check bool "commit child present" true (List.mem "decision.commit" children)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_percentile_monotone;
    QCheck_alcotest.to_alcotest prop_percentile_bounded;
    ("percentile overflow and empty", `Quick, test_percentile_overflow);
    ("registry registration idempotent", `Quick, test_registry_idempotent);
    ("registry gated by runtime flag", `Quick, test_registry_disable);
    ("prometheus exposition grammar", `Quick, test_prometheus_format);
    ("json export well-formed", `Quick, test_json_export);
    ("span nesting", `Quick, test_span_nesting);
    ("span exception safety", `Quick, test_span_exception_safety);
    ("span ring capacity", `Quick, test_span_capacity);
    ("span tree json", `Quick, test_span_json);
    ("span stacks of finished threads dropped", `Quick, test_span_threads_leave_nothing);
    ("prover copy stats independent", `Quick, test_prover_copy_stats_independent);
    ("slow decision commit traced", `Quick, test_slow_decision_in_slow_log);
    ("prometheus escaping regression", `Quick, test_prometheus_escaping_regression);
    ("group-commit series exported", `Quick, test_group_commit_series);
    QCheck_alcotest.to_alcotest prop_ctx_roundtrip;
    QCheck_alcotest.to_alcotest prop_note_roundtrip;
    ("trace context rejects malformed", `Quick, test_ctx_decode_rejects_malformed);
    ("trace context id generation", `Quick, test_ctx_generate_distinct);
    ("ambient trace context", `Quick, test_ambient_context);
    ("trace context per thread, count back to 0", `Quick, test_context_per_thread);
    ("slow threshold parsing", `Quick, test_slow_threshold_parse);
    ("flight recorder ring", `Quick, test_recorder_ring);
    ("malformed observability variables", `Quick, test_env_errors);
  ]
