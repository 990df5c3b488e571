(* The five workloads: server children, the in-process evolve child,
   and the load generator's side of each run. *)

module Repo = Gkbms.Repository
module P = Server.Protocol

let now = Unix.gettimeofday
let ok = function Ok v -> v | Error e -> failwith e
let fstr = Printf.sprintf "%.17g"

(* ---- sizes ----------------------------------------------------------

   Operation counts are fixed per second of the requested run length,
   so the work (and the checkpoint schedule it triggers) is identical
   on every run of a commit, and a run lasts about [--seconds] on a
   2-core host at the commit that introduced the benchmark. *)

let edit_docs = 512
let edit_per_s = 1200

(* A quarter of the stated 4,096 documents and 8,192 edits: at full
   size the five set-ups of one run took longer than its load. *)
let browse_docs = 1024
let browse_setup_edits = 2048
let browse_per_s = 330
let mixed_docs = 256
let mixed_setup_edits = 2048
let mixed_rate = 250.
let evolve_docs = 256
let evolve_setup_edits = 500
let evolve_chains_per_s = 40
let replicate_docs = 256
let replicate_rate = 20.
let pipeline_window = 8

(* ---- state ---------------------------------------------------------- *)

type plan = { scenario : bool; docs : int; setup : Gen.op array }

(* The repository a workload starts from: optionally the §2.1 scenario
   through the key decision, then [docs] documents and the seeded
   set-up edits, run through the dialog manager like client edits. *)
let build plan =
  let repo =
    if plan.scenario then begin
      let st = ok (Gkbms.Scenario.setup ()) in
      ignore (ok (Gkbms.Scenario.map_move_down st));
      ignore (ok (Gkbms.Scenario.normalize_invitations st));
      ignore (ok (Gkbms.Scenario.substitute_key st));
      st.Gkbms.Scenario.repo
    end
    else begin
      let r = Repo.create () in
      Gkbms.Mapping.register_tools r;
      r
    end
  in
  for i = 0 to plan.docs - 1 do
    ignore
      (ok
         (Repo.new_object repo ~name:(Gen.doc_name i) ~cls:Gkbms.Metamodel.dbpl_object
            (Repo.Text "v0")))
  done;
  let sh = Gkbms.Shell.session repo in
  Array.iter
    (fun (op : Gen.op) ->
      let out = Gkbms.Shell.eval sh op.Gen.line in
      if not (Gen.check op.Gen.expect out) then
        failwith (Printf.sprintf "set-up edit %S answered %S" op.Gen.line out))
    plan.setup;
  repo

let config = { Server.Daemon.default_config with Server.Daemon.wal_fsync = true }

(* A server child: build, journal, report the set-up time, then serve
   until killed.  With [serve = false] it only reports and exits: the
   extra set-ups give [setup_s] a median. *)
let daemon_child ~plan ~dir ~sock ~leader ~serve w =
  Proc.watch_parent ();
  let t0 = now () in
  let repo = build plan in
  let daemon = Server.Daemon.create ~config repo in
  ok (Server.Daemon.attach_wal daemon ~dir);
  if leader then ignore (ok (Replication.Leader.attach daemon));
  Proc.send w "setup_s" (fstr (now () -. t0));
  if serve then ok (Server.Daemon.listen daemon ~path:sock)

(* A follower child with the library defaults, bootstrapped from the
   leader's socket, serving reads and [wait] on its own. *)
let follower_child ~dir ~sock ~leader_sock w =
  Proc.watch_parent ();
  let t0 = now () in
  let f =
    ok
      (Replication.Follower.create ~name:"gkbench" ~leader:leader_sock
         ~connect:(fun () -> Server.Client.connect_unix leader_sock)
         ~dir ())
  in
  Replication.Follower.start f;
  Proc.send w "setup_s" (fstr (now () -. t0));
  ok (Server.Daemon.listen (Replication.Follower.daemon f) ~path:sock)

(* Start a server [reps] times (all but the last only set up) and
   return the serving pid and every set-up time. *)
let start_daemon ~reps ~plan ~dir ~sock ~leader =
  let rec go r times =
    Proc.rm_rf dir;
    let serve = r = reps in
    let pid, fd = Proc.spawn (daemon_child ~plan ~dir ~sock ~leader ~serve) in
    let t = Proc.float_of (Proc.read_until fd "setup_s") "setup_s" in
    Unix.close fd;
    if serve then (pid, List.rev (t :: times))
    else begin
      ignore (Unix.waitpid [] pid);
      Proc.children := List.filter (( <> ) pid) !Proc.children;
      go (r + 1) (t :: times)
    end
  in
  go 1 []

(* ---- registry counters ----------------------------------------------

   Counters and histogram sums, summed over labels, keyed by series
   name (histograms as NAME.count and NAME.sum). *)

type counters = (string * float) list

let counters_of_json payload : counters =
  let tbl = Hashtbl.create 64 in
  let add k v = Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.) in
  List.iter
    (fun m ->
      match Option.bind (Json.member "name" m) Json.to_string_opt with
      | None -> ()
      | Some name -> (
        match (Json.member "value" m, Json.member "count" m, Json.member "sum" m) with
        | Some (Json.Num v), _, _ -> add name v
        | _, Some (Json.Num c), Some (Json.Num s) ->
          add (name ^ ".count") c;
          add (name ^ ".sum") s
        | _ -> ()))
    (Json.to_list (Option.value (Json.member "metrics" (Json.parse payload)) ~default:Json.Null));
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []

let counters_in_process () =
  counters_of_json (Obs.Export.json (Obs.Registry.snapshot Obs.Registry.default))

let delta ~before ~after name =
  let get l = Option.value (List.assoc_opt name l) ~default:0. in
  get after -. get before

let ratio a b = if b > 0. then a /. b else 0.

(* The per-layer metrics read off the registry over one pass. *)
let registry_layers ~before ~after ~decisions ~derives =
  let d = delta ~before ~after in
  let hit_ratio prefix = ratio (d (prefix ^ "_hits_total")) (d (prefix ^ "_hits_total") +. d (prefix ^ "_misses_total")) in
  [
    ("cache.hit_ratio", hit_ratio "gkbms_server_cache");
    ("kb.cache_hit_ratio", hit_ratio "gkbms_kb_cache");
    ("prover.resolutions_per_derive", ratio (d "gkbms_prover_resolutions_total") (float_of_int derives));
    ("wal.fsyncs_per_decision", ratio (d "gkbms_wal_fsyncs_total") (float_of_int decisions));
    ("wal.bytes_per_decision", ratio (d "gkbms_wal_append_bytes_total") (float_of_int decisions));
    ("wal.fsync_us", ratio (d "gkbms_wal_sync_us.sum") (d "gkbms_wal_sync_us.count"));
    ("durable.checkpoints", d "gkbms_checkpoints_total");
  ]

(* How many of [ops] operations, [total_s] seconds in all, left a span
   tree in [l]. *)
let trace_coverage (l : Layers.t) ~ops ~total_s =
  [
    ("trace.sampled_pct", 100. *. ratio (float_of_int l.Layers.ops) (float_of_int ops));
    ("trace.op_us", 1e6 *. ratio total_s (float_of_int ops));
  ]

(* ---- one pass ------------------------------------------------------- *)

(* What a pass measured.  [primary] holds the latencies of the
   workload's primary operation (seconds); [extra] the workload's own
   named results, printed in the report. *)
type pass = {
  mutable setup : float list;
  mutable all : (float * float) list;  (** (answer time, latency) of every op *)
  mutable primary : (float * float) list;
  mutable reads : float list;
  mutable writes : float list;
  mutable late : float list;
  mutable derives : int;
  mutable attempted : int;
  mutable failed : int;
  mutable first_failure : string option;
  mutable acked : string list;  (** decision ids acknowledged to the client *)
  mutable ops_s : float;
  mutable peak_rss_mb : float;
  mutable disk_mb : float;
  mutable recover_s : float;
  mutable extra : (string * float) list;
  mutable layer : (string * float) list;
  (* tracing *)
  tracing : bool;
  rtt : (string, float) Hashtbl.t;
  spans : (string, Layers.span) Hashtbl.t;
  mutable since_drain : int;
  mutable drain_every : int;
  mutable rtt_sum : float;
  mutable rtt_n : int;
}

let new_pass tracing =
  {
    setup = []; all = []; primary = []; reads = []; writes = []; late = []; derives = 0;
    attempted = 0; failed = 0; first_failure = None; acked = [];
    ops_s = 0.; peak_rss_mb = 0.; disk_mb = 0.; recover_s = 0.;
    extra = []; layer = []; tracing;
    rtt = Hashtbl.create 1024; spans = Hashtbl.create 1024;
    since_drain = 0; drain_every = 32; rtt_sum = 0.; rtt_n = 0;
  }

let fail p msg =
  p.failed <- p.failed + 1;
  if p.first_failure = None then p.first_failure <- Some msg

let absorb p payload =
  List.iter
    (fun (root : Layers.span) ->
      match List.assoc_opt "trace" root.Layers.attrs with
      | Some hex when root.Layers.name = "server.request" -> Hashtbl.replace p.spans hex root
      | _ -> ())
    (Layers.of_dump payload)

(* The daemon's recent-span ring holds 64 roots: drain it every
   [drain_every] completions, on the connection [c]. *)
let traced_completion p c hex rtt =
  p.rtt_sum <- p.rtt_sum +. rtt;
  p.rtt_n <- p.rtt_n + 1;
  match hex with
  | None -> ()
  | Some hex ->
    Hashtbl.replace p.rtt hex rtt;
    p.since_drain <- p.since_drain + 1;
    if p.since_drain >= p.drain_every then begin
      p.since_drain <- 0;
      Loadgen.send c "trace dump recent" (fun r _ -> absorb p r.P.payload);
      Loadgen.send c "trace clear" (fun _ _ -> ())
    end

(* Send one generated op; [due] is when it was due (latency runs from
   there), [k] continues after the answer is checked. *)
let issue p ~drain_conn c (op : Gen.op) ~due ~k =
  let ctx = if p.tracing then Some (Obs.Trace_context.generate ()) else None in
  let sent = now () in
  p.attempted <- p.attempted + 1;
  if Gen.starts_with ~prefix:"derive " op.Gen.line then p.derives <- p.derives + 1;
  p.late <- (sent -. due) :: p.late;
  Loadgen.send ?ctx:(Option.map Obs.Trace_context.encode ctx) c op.Gen.line (fun r t ->
      let lat = t -. due in
      p.all <- (t, lat) :: p.all;
      if op.Gen.write then p.writes <- lat :: p.writes else p.reads <- lat :: p.reads;
      if not (r.P.ok && Gen.check op.Gen.expect r.P.payload) then
        fail p (Printf.sprintf "%s -> %S" op.Gen.line r.P.payload)
      else if op.Gen.write then
        Option.iter (fun d -> p.acked <- d :: p.acked) (Gen.decision_of_answer r.P.payload);
      traced_completion p drain_conn (Option.map Obs.Trace_context.trace_hex ctx) (t -. sent);
      k t)

let finish_tracing p c =
  if p.tracing then begin
    absorb p (Loadgen.request c "trace dump recent");
    ignore (Loadgen.request c "trace off")
  end

(* The per-layer metrics of a server pass: span self times joined to
   the round trips by trace id, and registry counters over the load. *)
let server_layers p ~before ~after ~decisions =
  let l = Layers.create () in
  Hashtbl.iter
    (fun hex rtt -> Option.iter (Layers.add_op l ~total:rtt) (Hashtbl.find_opt p.spans hex))
    p.rtt;
  if p.tracing then print_string (Layers.report l);
  Layers.metrics l
  @ registry_layers ~before ~after ~decisions ~derives:p.derives
  @ trace_coverage l ~ops:p.rtt_n ~total_s:p.rtt_sum

(* Closed loop: each connection keeps [window] requests in flight and
   sends its next op when one is answered. *)
let closed_loop p conns ~window ops =
  let queues = Array.map (fun _ -> Queue.create ()) conns in
  Array.iter (fun (op : Gen.op) -> Queue.push op queues.(op.Gen.conn)) ops;
  let rec next ci =
    match Queue.take_opt queues.(ci) with
    | None -> ()
    | Some op -> issue p ~drain_conn:conns.(0) conns.(ci) op ~due:(now ()) ~k:(fun _ -> next ci)
  in
  let start = now () in
  Array.iteri (fun ci _ -> for _ = 1 to window do next ci done) conns;
  Loadgen.run (Array.to_list conns) ~finished:(fun () ->
      Array.for_all Queue.is_empty queues
      && Array.for_all (fun c -> Loadgen.outstanding c = 0) conns);
  p.ops_s <- Stats.sliced_rate ~start (Array.of_list (List.map fst p.all))

(* Open loop: ops leave at their due times whatever is in flight;
   [k t finish] runs after each checked answer (at [t]) and calls
   [finish] when the op's work is done.  Returns the run's length. *)
let open_loop p conns ~drain_conn ~due ~ops ~route ~k =
  let n = Array.length ops in
  let next = ref 0 and pending = ref 0 in
  let t0 = now () +. 0.05 in
  let step () =
    while !next < n && t0 +. due.(!next) <= now () do
      let op = ops.(!next) in
      incr pending;
      issue p ~drain_conn (route op) op ~due:(t0 +. due.(!next)) ~k:(fun t ->
          k t (fun () -> decr pending));
      incr next
    done
  in
  Loadgen.run conns ~step
    ~next_due:(fun () -> if !next < n then t0 +. due.(!next) else infinity)
    ~finished:(fun () -> !next >= n && !pending = 0);
  now () -. t0

(* Recover [dir], hand the result to [check] and return the time the
   recovery took. *)
let timed_recovery ~dir check =
  let t0 = now () in
  let repo, report = ok (Gkbms.Durable.recover ~dir ()) in
  let dt = now () -. t0 in
  check repo report;
  dt

let recovery_layers ~recover_s ~wal_records =
  [
    ("recover.s", recover_s);
    ("recover.wal_records", wal_records);
    ("recover.us_per_record", 1e6 *. ratio recover_s wal_records);
  ]

(* After the load: peak memory and WAL size, then SIGKILL and recovery
   in a fresh child, which must find the live state ([stats]) and
   every acknowledged decision.  With [follower_dir] (its daemon already
   killed) the follower's journal must recover to the same canonical
   snapshot as the leader's. *)
let crash_and_recover ?follower_dir p ~pid ~dir ~stats =
  p.peak_rss_mb <- Proc.peak_rss_mb pid;
  p.disk_mb <- float_of_int (Proc.dir_bytes dir) /. 1048576.;
  Proc.kill pid;
  let acked = p.acked and tracing = p.tracing in
  let rpid, fd =
    Proc.spawn (fun w ->
        let recover_s =
          timed_recovery ~dir (fun repo report ->
              Proc.send w "wal_records" (string_of_int report.Gkbms.Durable.wal_records);
              let got = Gkbms.Shell.eval (Gkbms.Shell.session repo) "stats" in
              if got <> stats then failwith (Printf.sprintf "recovered %S, live %S" got stats);
              let log = Hashtbl.create 4096 in
              List.iter
                (fun d -> Hashtbl.replace log (Kernel.Symbol.name d) ())
                (Repo.decision_log repo);
              List.iter
                (fun d ->
                  if not (Hashtbl.mem log d) then failwith ("acknowledged decision lost: " ^ d))
                acked;
              Option.iter
                (fun fdir ->
                  let follower, _ = ok (Gkbms.Durable.recover ~dir:fdir ()) in
                  if
                    Gkbms.Persist.save_repository_canonical follower
                    <> Gkbms.Persist.save_repository_canonical repo
                  then failwith "the follower diverged from the leader")
                follower_dir)
        in
        Proc.send w "recover_s" (fstr recover_s);
        if tracing then begin
          let t0 = now () in
          ignore (ok (Gkbms.Persist.load_from_file (Gkbms.Durable.checkpoint_path dir)));
          Proc.send w "checkpoint_load_s" (fstr (now () -. t0))
        end;
        Proc.send w "done" "")
  in
  let report = Proc.read_until ~timeout:150. fd "done" in
  Unix.close fd;
  Proc.kill rpid;
  p.recover_s <- Proc.float_of report "recover_s";
  p.layer <-
    p.layer
    @ recovery_layers ~recover_s:p.recover_s ~wal_records:(Proc.float_of report "wal_records")
    @ (if tracing then [ ("recover.checkpoint_load_s", Proc.float_of report "checkpoint_load_s") ] else [])

let ms xs = Array.of_list (List.map (fun s -> s *. 1e3) xs)

(* Latency summary lines: median, p90, and the highest percentile with
   ten samples beyond it. *)
let summarize name xs =
  let a = Stats.sorted (ms xs) in
  let n = Array.length a in
  let tail =
    match Stats.tail_percentile n with
    | Some pc when pc > 90. ->
      [ (Printf.sprintf "%s_p%g_ms" name pc, Stats.quantile_sorted a (pc /. 100.)) ]
    | _ -> []
  in
  [ (name ^ "_mean_ms", Stats.mean a); (name ^ "_p50_ms", Stats.quantile_sorted a 0.5);
    (name ^ "_p90_ms", Stats.quantile_sorted a 0.9) ]
  @ tail
  @ [ (name ^ "_samples", float_of_int n) ]

(* ---- server workloads ----------------------------------------------- *)

type ctx = {
  run_dir : string;
  seed : int;
  seconds : int;
  setups : int;  (** set-ups per run; [setup_s] is their median *)
}

(* Set-ups per run: many where one takes milliseconds, few where it
   takes a second.  A 25 ms set-up jitters by 2x from one fork to the
   next, so its median needs many samples. *)
let setups = function "edit" -> 25 | "replicate" -> 15 | "evolve" -> 11 | _ -> 5

let wal_dir ctx = Filename.concat ctx.run_dir "wal"
let sock ctx name = Filename.concat ctx.run_dir name

let with_conns path n f =
  let conns = Array.init n (fun _ -> Loadgen.connect path) in
  Fun.protect ~finally:(fun () -> Array.iter Loadgen.close conns) (fun () -> f conns)

let start_tracing p conns =
  if p.tracing then begin
    ignore (Loadgen.request conns.(0) "trace on");
    ignore (Loadgen.request conns.(0) "trace slow 0");
    ignore (Loadgen.request conns.(0) "trace clear")
  end

(* One server pass: set up, [drive] the load, collect, crash, recover. *)
let server_pass ctx p ~plan ~drive =
  let dir = wal_dir ctx and path = sock ctx "s.sock" in
  let pid, setup = start_daemon ~reps:ctx.setups ~plan ~dir ~sock:path ~leader:false in
  p.setup <- setup;
  let stats =
    with_conns path 2 (fun conns ->
        start_tracing p conns;
        let before = counters_of_json (Loadgen.request conns.(0) "metrics json") in
        drive conns;
        finish_tracing p conns.(0);
        let after = counters_of_json (Loadgen.request conns.(0) "metrics json") in
        p.layer <- server_layers p ~before ~after ~decisions:(List.length p.writes);
        Loadgen.request conns.(0) "stats")
  in
  crash_and_recover p ~pid ~dir ~stats

let edit ctx p =
  let count = edit_per_s * ctx.seconds in
  let plan = { scenario = true; docs = edit_docs; setup = [||] } in
  let ops = Gen.edit_stream ~seed:ctx.seed ~count ~docs:edit_docs in
  server_pass ctx p ~plan ~drive:(fun conns ->
      closed_loop p conns ~window:pipeline_window ops);
  p.primary <- p.all;
  p.extra <- summarize "write" p.writes

(* [browse]: two blocking connections, each waiting for its answer. *)
let browse ctx p =
  let count = browse_per_s * ctx.seconds in
  let d, setup = Gen.setup_edits ~seed:ctx.seed ~docs:browse_docs ~edits:browse_setup_edits in
  let plan = { scenario = false; docs = browse_docs; setup } in
  let ops = Gen.browse_stream ~seed:ctx.seed ~count d ~decisions:browse_setup_edits in
  server_pass ctx p ~plan ~drive:(fun conns -> closed_loop p conns ~window:1 ops);
  p.primary <- p.all;
  p.extra <- summarize "read" p.reads

let mixed ctx p =
  let count = int_of_float mixed_rate * ctx.seconds in
  let d, setup = Gen.setup_edits ~seed:ctx.seed ~docs:mixed_docs ~edits:mixed_setup_edits in
  let plan = { scenario = false; docs = mixed_docs; setup } in
  let due, ops = Gen.mixed_stream ~seed:ctx.seed ~count ~rate:mixed_rate d in
  server_pass ctx p ~plan ~drive:(fun conns ->
      let dt =
        open_loop p (Array.to_list conns) ~drain_conn:conns.(0) ~due ~ops
          ~route:(fun op -> conns.(op.Gen.conn))
          ~k:(fun _ finish -> finish ())
      in
      p.ops_s <- float_of_int count /. dt);
  p.primary <- p.all;
  p.extra <-
    summarize "read" p.reads @ summarize "write" p.writes
    @ [ ("gen.late_p99_ms", Stats.quantile (ms p.late) 0.99) ]

(* [replicate]: a leader and a follower child; after each acknowledged
   write, [repl token] on the leader, then [wait] on the follower.  The
   read-your-writes latency runs from the ack to the wait's answer. *)
let replicate ctx p =
  let count = int_of_float replicate_rate * ctx.seconds in
  let plan = { scenario = true; docs = replicate_docs; setup = [||] } in
  let due, ops = Gen.replicate_stream ~seed:ctx.seed ~count ~rate:replicate_rate ~docs:replicate_docs in
  let dir = wal_dir ctx and fdir = Filename.concat ctx.run_dir "fwal" in
  let lsock = sock ctx "l.sock" and fsock = sock ctx "f.sock" in
  (* each set-up is a leader build plus a follower bootstrap from it *)
  let rec setups r acc =
    let pid, lsetup = start_daemon ~reps:1 ~plan ~dir ~sock:lsock ~leader:true in
    (* the leader reports before it listens; the follower must not race it *)
    Loadgen.close (Loadgen.connect lsock);
    Proc.rm_rf fdir;
    let fpid, fd = Proc.spawn (follower_child ~dir:fdir ~sock:fsock ~leader_sock:lsock) in
    let fsetup = Proc.float_of (Proc.read_until fd "setup_s") "setup_s" in
    Unix.close fd;
    let total = List.hd lsetup +. fsetup in
    if r = ctx.setups then (pid, fpid, List.rev (total :: acc))
    else begin
      Proc.kill fpid;
      Proc.kill pid;
      setups (r + 1) (total :: acc)
    end
  in
  let pid, fpid, setup = setups 1 [] in
  p.setup <- setup;
  (* the follower's long polls also fill the leader's span ring *)
  p.drain_every <- 4;
  let ryw = ref [] and tokens = ref 0. and waits = ref 0. in
  let stats =
    with_conns lsock 1 (fun lc ->
        with_conns fsock 1 (fun fc ->
            let leader = lc.(0) and follower = fc.(0) in
            start_tracing p lc;
            let before = counters_of_json (Loadgen.request leader "metrics json") in
            let fbefore = counters_of_json (Loadgen.request follower "metrics json") in
            let dt =
              open_loop p [ leader; follower ] ~drain_conn:leader ~due ~ops
                ~route:(fun _ -> leader)
                ~k:(fun acked finish ->
                  Loadgen.send leader Replication.Wire.token (fun r token_at ->
                      tokens := !tokens +. (token_at -. acked);
                      match Replication.Wire.parse_token r.P.payload with
                      | Error e ->
                        fail p ("repl token: " ^ e);
                        finish ()
                      | Ok tok ->
                        Loadgen.send follower
                          (Replication.Wire.wait ~epoch:tok.Replication.Wire.t_epoch
                             ~version:tok.Replication.Wire.t_version ~timeout_ms:5000)
                          (fun r t ->
                            if not r.P.ok then fail p ("wait: " ^ r.P.payload);
                            ryw := (t, t -. acked) :: !ryw;
                            waits := !waits +. (t -. token_at);
                            finish ())))
            in
            p.ops_s <- float_of_int count /. dt;
            finish_tracing p leader;
            let after = counters_of_json (Loadgen.request leader "metrics json") in
            let fafter = counters_of_json (Loadgen.request follower "metrics json") in
            let lag = delta ~before:fbefore ~after:fafter "gkbms_repl_visibility_lag_seconds.sum" in
            let lagged = delta ~before:fbefore ~after:fafter "gkbms_repl_visibility_lag_seconds.count" in
            let per_write x = ratio x (float_of_int count) in
            p.layer <-
              server_layers p ~before ~after ~decisions:count
              @ [
                  ("repl.token_us", 1e6 *. per_write !tokens);
                  ("repl.wait_us", 1e6 *. per_write !waits);
                  ("repl.visibility_lag_ms", 1e3 *. ratio lag lagged);
                  ("repl.frames_per_write", per_write (delta ~before ~after "gkbms_repl_frames_shipped_total"));
                  ("follower.peak_rss_mb", Proc.peak_rss_mb fpid);
                ];
            let lstats = Loadgen.request leader "stats" in
            let fstats = Loadgen.request follower "stats" in
            if lstats <> fstats then fail p (Printf.sprintf "follower %S, leader %S" fstats lstats);
            lstats))
  in
  Proc.kill fpid;
  crash_and_recover p ~follower_dir:fdir ~pid ~dir ~stats;
  p.primary <- !ryw;
  p.extra <- summarize "write" p.writes @ summarize "ryw" (List.map snd !ryw)

(* ---- evolve ---------------------------------------------------------- *)

let clean_audit =
  "consistency: ok\nmethodology: conforms\nsupport: all design objects supported"

(* The evolution cycle in one child, no server: chains of edits on a
   fresh document, each retracted from its first decision; then the
   audit and a recovery, compared with the live state. *)
let evolve_child ~plan ~chains ~dir ~tracing ~serve w =
  Proc.watch_parent ();
  let send k v = Proc.send w k (fstr v) in
  let t0 = now () in
  let repo = build plan in
  let durable = ok (Gkbms.Durable.attach ~fsync:true ~dir repo) in
  send "setup_s" (now () -. t0);
  if serve then begin
    let before = counters_in_process () in
    let layers = Layers.create () in
    let drain () =
      List.iter
        (fun sp ->
          let root = Layers.of_trace sp in
          Layers.add_op layers ~total:root.Layers.dur_s root)
        (Obs.Trace.recent ());
      Obs.Trace.clear ()
    in
    Obs.Trace.set_enabled tracing;
    let since = ref 0 and op_total = ref 0. and op_n = ref 0 in
    let op name f =
      let t = now () in
      let r = Obs.Trace.with_span name f in
      let dt = now () -. t in
      op_total := !op_total +. dt;
      incr op_n;
      incr since;
      if tracing && !since >= 32 then (
        drain ();
        since := 0);
      (r, dt)
    in
    let retracts = ref [] and edits = ref [] and per_decision = ref [] and closure = ref 0 in
    let start = now () in
    Array.iteri
      (fun j k ->
        let doc =
          ok
            (Repo.new_object repo ~name:(Printf.sprintf "Evo%dx" j)
               ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0"))
        in
        let tip = ref doc and first = ref None in
        for e = 1 to k do
          let executed, dt =
            op "gkbench.edit" (fun () ->
                ok
                  (Gkbms.Decision.execute repo ~decision_class:Gkbms.Metamodel.dec_manual_edit
                     ~tool:Gkbms.Mapping.editor_tool ~inputs:[ ("object", !tip) ]
                     ~params:[ ("text", Printf.sprintf "c%d.%d" j e) ]
                     ~rationale:"evolve" ()))
          in
          edits := dt :: !edits;
          if !first = None then first := Some executed.Gkbms.Decision.decision;
          tip := List.assoc "edited" executed.Gkbms.Decision.outputs
        done;
        let report, dt =
          op "gkbench.retract" (fun () -> ok (Gkbms.Backtrack.retract repo (Option.get !first) ()))
        in
        let removed = List.length report.Gkbms.Backtrack.retracted_decisions in
        if removed <> k then
          failwith (Printf.sprintf "retracting a chain of %d removed %d decisions" k removed);
        closure := !closure + removed;
        retracts := (now () -. start, dt) :: !retracts;
        per_decision := (dt /. float_of_int k) :: !per_decision)
      chains;
    if tracing then drain ();
    Obs.Trace.set_enabled false;
    let after = counters_in_process () in
    Proc.send w "retract_samples"
      (String.concat "," (List.map (fun (t, l) -> fstr t ^ ":" ^ fstr l) !retracts));
    List.iter (fun (k, v) -> send k v) (summarize "edit" !edits);
    send "peak_rss_mb" (Proc.peak_rss_mb 0);
    let t = now () in
    let audit = Gkbms.Shell.eval (Gkbms.Shell.session repo) "check" in
    send "audit_s" (now () -. t);
    if audit <> clean_audit then failwith ("audit not clean: " ^ audit);
    let live = Gkbms.Persist.save_repository_canonical repo in
    Gkbms.Durable.close durable;
    send "disk_mb" (float_of_int (Proc.dir_bytes dir) /. 1048576.);
    let wal_records = ref 0. in
    let recover_s =
      timed_recovery ~dir (fun recovered report ->
          if Gkbms.Persist.save_repository_canonical recovered <> live then
            failwith "recovered state differs from the live state";
          wal_records := float_of_int report.Gkbms.Durable.wal_records)
    in
    if tracing then begin
      let t = now () in
      ignore (ok (Gkbms.Persist.load_from_file (Gkbms.Durable.checkpoint_path dir)));
      send "recover.checkpoint_load_s" (now () -. t)
    end;
    (* retract cost per removed decision, last quarter of the cycles
       over the first: 1 when it does not grow with history *)
    let costs = Array.of_list (List.rev !per_decision) in
    let q = max 1 (Array.length costs / 4) in
    let avg a = Stats.mean a in
    let retract_s = List.fold_left (fun acc (_, dt) -> acc +. dt) 0. !retracts in
    List.iter (fun (k, v) -> send k v)
      (recovery_layers ~recover_s ~wal_records:!wal_records
      @ [
          ( "backtrack.cost_growth",
            ratio (avg (Array.sub costs (Array.length costs - q) q)) (avg (Array.sub costs 0 q)) );
          ("backtrack.closure_size", ratio (float_of_int !closure) (float_of_int (Array.length chains)));
          ("backtrack.retract_us_per_decision", 1e6 *. ratio retract_s (float_of_int !closure));
        ]
      @ Layers.metrics layers
      @ registry_layers ~before ~after ~decisions:(List.length !edits) ~derives:0
      @ trace_coverage layers ~ops:!op_n ~total_s:!op_total);
    if tracing then Proc.send w "layer_report" (String.escaped (Layers.report layers));
    Proc.send w "attempted" (string_of_int !op_n);
    Proc.send w "done" ""
  end

let evolve ctx p =
  let count = evolve_chains_per_s * ctx.seconds in
  let _, setup = Gen.setup_edits ~seed:ctx.seed ~docs:evolve_docs ~edits:evolve_setup_edits in
  let plan = { scenario = false; docs = evolve_docs; setup } in
  let chains = Gen.evolve_chains ~seed:ctx.seed ~count in
  let dir = wal_dir ctx in
  let rec go r acc =
    Proc.rm_rf dir;
    let serve = r = ctx.setups in
    let pid, fd =
      Proc.spawn
        (evolve_child ~plan ~chains ~dir ~tracing:p.tracing ~serve)
    in
    let report = Proc.read_until ~timeout:170. fd (if serve then "done" else "setup_s") in
    Unix.close fd;
    Proc.kill pid;
    let acc = Proc.float_of report "setup_s" :: acc in
    if serve then (List.rev acc, report) else go (r + 1) acc
  in
  let setup, report = go 1 [] in
  let f = Proc.float_of report in
  p.setup <- setup;
  p.attempted <- int_of_string (List.assoc "attempted" report);
  p.peak_rss_mb <- f "peak_rss_mb";
  p.disk_mb <- f "disk_mb";
  p.recover_s <- f "recover.s";
  p.primary <-
    List.map
      (fun s -> Scanf.sscanf s "%f:%f" (fun t l -> (t, l)))
      (String.split_on_char ',' (List.assoc "retract_samples" report));
  (* a chain ends with its retraction: the retraction rate is the cycle rate *)
  p.ops_s <- Stats.sliced_rate ~start:0. (Array.of_list (List.map fst p.primary));
  let nums =
    List.filter_map (fun (k, v) -> Option.map (fun f -> (k, f)) (float_of_string_opt v)) report
  in
  p.extra <-
    summarize "retract" (List.map snd p.primary)
    @ List.filter (fun (k, _) -> Gen.starts_with ~prefix:"edit_" k || k = "audit_s") nums;
  p.layer <- List.filter (fun (k, _) -> List.mem_assoc k Spec.per_layer) nums;
  Option.iter (fun s -> print_string (Scanf.unescaped s)) (List.assoc_opt "layer_report" report)
