(* gkbench: end-to-end benchmark of the GKBMS daemon.

     gkbench --workload W --seed N [--seconds S] [--trace 0|1] [--json FILE]

   Runs one workload against freshly forked daemons (or, for evolve, an
   in-process child), checks every answer, prints a report and, as the
   last line of standard output, one JSON object with the end-to-end
   metrics (--trace 0) or the per-layer metrics of a traced run
   (--trace 1).  Exits 1 if any check fails, 2 on bad usage.  All
   scratch files live under .gkbench/ in the working directory and are
   removed on exit. *)

let usage =
  "usage: gkbench --workload edit|browse|mixed|evolve|replicate --seed N [--seconds S] \
   [--trace 0|1] [--json FILE]"

let die code msg =
  prerr_endline ("gkbench: " ^ msg);
  exit code

type args = { workload : string; seed : int; seconds : int; trace : bool; json : string option }

let parse_args argv =
  let int_arg name v =
    match int_of_string_opt v with
    | Some n when n > 0 -> n
    | _ -> die 2 (Printf.sprintf "%s expects a positive integer, got %S\n%s" name v usage)
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest when List.mem w Spec.workloads -> go { a with workload = w } rest
    | "--seed" :: v :: rest -> (
      match int_of_string_opt v with
      | Some n when n >= 0 -> go { a with seed = n } rest
      | _ -> die 2 ("--seed expects a non-negative integer\n" ^ usage))
    | "--seconds" :: v :: rest -> go { a with seconds = int_arg "--seconds" v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { a with trace = v = "1" } rest
    | "--json" :: f :: rest -> go { a with json = Some f } rest
    | arg :: _ -> die 2 (Printf.sprintf "unexpected argument %S\n%s" arg usage)
  in
  let a = go { workload = ""; seed = -1; seconds = 10; trace = false; json = None } argv in
  if a.workload = "" || a.seed < 0 then die 2 usage;
  a

(* Settings that change which code path the daemon runs would make
   runs incomparable. *)
let refuse_env () =
  List.iter
    (fun v ->
      if Sys.getenv_opt v <> None then
        die 2 (v ^ " is set; unset it: the benchmark measures the default configuration"))
    [ "GKBMS_STORE"; "GKBMS_DOMAINS"; "GKBMS_PLANNER"; "GKBMS_SLO"; "GKBMS_SLOW_MS" ]

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in ic) (fun () -> String.trim (input_line ic))
  with Sys_error _ | End_of_file -> ""

let git_commit () =
  match read_file ".git/HEAD" with
  | "" -> "unknown"
  | head when Gen.starts_with ~prefix:"ref: " head -> (
    match read_file (Filename.concat ".git" (String.sub head 5 (String.length head - 5))) with
    | "" -> "unknown"
    | c -> c)
  | c -> c

(* Median latency of a 4 KiB write plus fsync in the run directory. *)
let fsync_probe_us dir =
  let path = Filename.concat dir "fsync.probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let block = Bytes.make 4096 'x' in
  let samples =
    Array.init 16 (fun _ ->
        let t = Unix.gettimeofday () in
        ignore (Unix.write fd block 0 4096);
        Unix.fsync fd;
        (Unix.gettimeofday () -. t) *. 1e6)
  in
  Unix.close fd;
  Unix.unlink path;
  Stats.median samples

let run_pass (a : args) run_dir ~tracing =
  (* --trace 1 reports no set-up time *)
  let setups = if a.trace then 1 else Workloads.setups a.workload in
  let ctx = { Workloads.run_dir; seed = a.seed; seconds = a.seconds; setups } in
  let p = Workloads.new_pass tracing in
  (match a.workload with
  | "edit" -> Workloads.edit ctx p
  | "browse" -> Workloads.browse ctx p
  | "mixed" -> Workloads.mixed ctx p
  | "evolve" -> Workloads.evolve ctx p
  | _ -> Workloads.replicate ctx p);
  p

(* The end-to-end metrics and the diagnostics, in that order. *)
let end_to_end (p : Workloads.pass) =
  let ms q = 1e3 *. Stats.segmented_quantile p.Workloads.primary q in
  [
    ("setup_s", Stats.median (Array.of_list p.Workloads.setup));
    ("peak_rss_mb", p.Workloads.peak_rss_mb);
    ("disk_mb", p.Workloads.disk_mb);
    ("ops_s", p.Workloads.ops_s);
    ("p50_ms", ms 0.5);
    ("p90_ms", ms 0.9);
  ]

(* Layers a workload does not have report 0. *)
let workload_specific =
  [ "backtrack.closure_size"; "backtrack.cost_growth"; "backtrack.retract_us_per_decision";
    "repl.token_us"; "repl.wait_us"; "repl.visibility_lag_ms"; "repl.frames_per_write";
    "follower.peak_rss_mb" ]

(* Whether [pid] may still be running.  EPERM means a process of
   another user holds the pid now: leave its directory alone. *)
let alive pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

let () =
  let a = parse_args (List.tl (Array.to_list Sys.argv)) in
  refuse_env ();
  if not (Sys.file_exists "dune-project" && Sys.file_exists "lib") then
    die 2 "run from the root of the repository";
  (try Unix.mkdir ".gkbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  (* a run killed outright could not clean up after itself *)
  Array.iter
    (fun d ->
      match int_of_string_opt d with
      | Some pid when not (alive pid) ->
        Proc.rm_rf (Filename.concat ".gkbench" d)
      | _ -> ())
    (Sys.readdir ".gkbench");
  let run_dir = Filename.concat ".gkbench" (string_of_int (Unix.getpid ())) in
  Unix.mkdir run_dir 0o755;
  at_exit (fun () ->
      Proc.kill_all ();
      Proc.rm_rf run_dir;
      try Unix.rmdir ".gkbench" with Unix.Unix_error _ -> ());
  let abort _ = die 1 "interrupted or over the 175 s budget; children killed" in
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle abort)) [ Sys.sigalrm; Sys.sigint; Sys.sigterm ];
  ignore (Unix.alarm 175);
  let host =
    [
      ("nproc", string_of_int (Domain.recommended_domain_count ()));
      ("ocaml", Sys.ocaml_version);
      ("commit", git_commit ());
      ("fsync_probe_us", Printf.sprintf "%.1f" (fsync_probe_us run_dir));
    ]
  in
  Printf.printf "gkbench %s seed=%d seconds=%d trace=%d\nhost: %s\n%!" a.workload a.seed a.seconds
    (Bool.to_int a.trace)
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) host));
  let passes, values =
    try
      if not a.trace then
        let p = run_pass a run_dir ~tracing:false in
        ([ p ], end_to_end p)
      else
        let plain = run_pass a run_dir ~tracing:false in
        let traced = run_pass a run_dir ~tracing:true in
        let p50 p = List.assoc "p50_ms" (end_to_end p) in
        let overhead = 100. *. ((p50 traced /. p50 plain) -. 1.) in
        ( [ plain; traced ],
          end_to_end plain
          @ (("trace.overhead_pct", overhead) :: traced.Workloads.layer)
          @ List.filter_map
              (fun k -> if List.mem_assoc k traced.Workloads.layer then None else Some (k, 0.))
              workload_specific )
    with
    | Proc.Child_failed e -> die 1 ("child failed: " ^ e)
    | Loadgen.Failed e -> die 1 e
  in
  let attempted = List.fold_left (fun n p -> n + p.Workloads.attempted) 0 passes in
  let failed = List.fold_left (fun n p -> n + p.Workloads.failed) 0 passes in
  let last = List.nth passes (List.length passes - 1) in
  Printf.printf "setup_s samples: %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.3f") last.Workloads.setup));
  List.iter
    (fun (k, v) -> Printf.printf "  %-34s %.6g\n" k v)
    (last.Workloads.extra @ [ ("recover_s", last.Workloads.recover_s) ] @ end_to_end last);
  List.iter
    (fun p -> Option.iter (fun f -> Printf.printf "FAILED: %s\n" f) p.Workloads.first_failure)
    passes;
  let line = Spec.result_line ~trace:a.trace ~correct:(failed = 0) ~attempted ~failed values in
  Option.iter
    (fun file ->
      let oc = open_out file in
      Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"seconds\": %d, \"host\": %s, \"details\": %s, \"result\": %s}\n"
        a.workload a.seed a.seconds
        (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) host)))
        (Json.to_string (Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) last.Workloads.extra)))
        line;
      close_out oc)
    a.json;
  print_endline line;
  if failed > 0 then exit 1
