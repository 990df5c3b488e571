(* The experiment harness: regenerates the paper's figures' content as
   "shape" tables and measures every efficiency question the paper raises
   (deductive querying, consistency checking, selective backtracking,
   configuration, the time calculi, reason maintenance).  Experiment ids
   E1..E12 index into DESIGN.md / EXPERIMENTS.md.

   Run with: dune exec bench/main.exe            (everything)
             dune exec bench/main.exe -- shapes  (tables only, fast) *)

open Bechamel
open Toolkit
module Tdl = Langs.Taxis_dl
module Repo = Gkbms.Repository
module Dec = Gkbms.Decision
module Term = Logic.Term
module W = Workloads

let ok = function Ok v -> v | Error e -> failwith e

let section title =
  Printf.printf "\n==== %s ====\n%!" title

(* key numbers from the shape tables, dumped as JSON for the CI smoke
   artifact (see --json below) *)
let json_metrics : (string * string) list ref = ref []
let metric_i name v = json_metrics := (name, string_of_int v) :: !json_metrics
let metric_f name v =
  json_metrics := (name, Printf.sprintf "%.3f" v) :: !json_metrics

let median a =
  let s = Array.copy a in
  Array.sort compare s;
  s.(Array.length s / 2)

let temp_dir () =
  let d = Filename.temp_file "gkbms_bench" "" in
  Sys.remove d;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let write_json path =
  let oc = open_out path in
  output_string oc "{\n";
  let rec emit = function
    | [] -> ()
    | (k, v) :: rest ->
      Printf.fprintf oc "  %S: %s%s\n" k v (if rest = [] then "" else ",");
      emit rest
  in
  emit (List.rev !json_metrics);
  output_string oc "}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" path

(* ------------------------------------------------------------------ *)
(* Shape tables: the paper-reproduction numbers                        *)
(* ------------------------------------------------------------------ *)

let shape_e2_mapping_strategies () =
  section "E2 (fig 2-2): mapping strategies — distribute vs move-down";
  Printf.printf "%-8s %-8s | %-22s | %-22s\n" "depth" "fanout"
    "distribute rel/cons" "move-down rel/cons";
  List.iter
    (fun (depth, fanout) ->
      let counts strategy =
        let design = W.hierarchy ~depth ~fanout in
        let repo = W.repo_with_design design in
        let outs = ok (strategy repo ~design ~root:"H") in
        let c role = List.length (List.filter (fun (r, _) -> r = role) outs) in
        (c "relation", c "constructor")
      in
      let dr, dc = counts Gkbms.Mapping.distribute in
      let mr, mc = counts Gkbms.Mapping.move_down in
      Printf.printf "%-8d %-8d | %10d / %-9d | %10d / %-9d\n" depth fanout dr
        dc mr mc)
    [ (1, 2); (2, 2); (2, 3); (3, 2); (3, 3) ];
  Printf.printf
    "expected shape: distribute = one relation per class, no views;\n\
     move-down = relations only at the leaves, views for the inner nodes.\n"

let shape_e4_selective_backtracking () =
  section "E4 (fig 2-4): selective backtracking vs chronological undo";
  Printf.printf "%-12s | %-20s | %-26s\n" "decisions" "selective removes"
    "chronological would undo";
  List.iter
    (fun w ->
      let repo, decisions = W.independent_edits w in
      let target = List.hd decisions in
      let report = ok (Gkbms.Backtrack.retract repo target ()) in
      let removed = List.length report.Gkbms.Backtrack.retracted_decisions in
      (* chronological backtracking rolls back to before the first
         decision, losing every later (independent) one *)
      Printf.printf "%-12d | %20d | %26d\n" w removed w)
    [ 8; 16; 32; 64 ];
  Printf.printf
    "expected shape: the dependency-based closure touches exactly the one\n\
     dependent decision; chronological undo would redo all the others.\n\
     (a dependent chain behaves like the chronological column: retracting\n\
     decision k of an n-chain removes its n-k+1 consequences, no more)\n"

let shape_e9_deduction () =
  section "E9: deductive query engines on transitive closure (chain graph)";
  Printf.printf "%-8s | %-12s | %-14s %-14s\n" "edges" "semi-tuples"
    "resolutions" "lemmas";
  List.iter
    (fun n ->
      let d1 = W.chain_program n in
      ok (Logic.Datalog.solve d1);
      let semi = Logic.Datalog.derived_count d1 in
      let d2 = W.chain_program n in
      let p = Logic.Prover.make d2 in
      ignore (Logic.Prover.solve p [ Term.atom "path" [ Term.sym "n0"; Term.var "Y" ] ]);
      Printf.printf "%-8d | %-12d | %-14d %-14d\n" n semi
        (Logic.Prover.stats p).Logic.Prover.resolutions
        (Logic.Prover.lemma_count p))
    [ 16; 32; 64 ];
  Printf.printf
    "expected shape: bottom-up materializes the whole closure; the tabled\n\
     prover touches only the goal-relevant subgoals.\n"

let shape_e10_consistency () =
  section "E10: consistency checking — full pass vs set-oriented delta";
  Printf.printf "%-10s | %-16s %-16s\n" "objects" "full-violations"
    "delta-violations";
  List.iter
    (fun n ->
      let kb = W.populated_kb n in
      (* inject one dangling reference *)
      let bad =
        Kernel.Prop.make
          ~id:(Kernel.Prop.fresh_id ())
          ~source:(Kernel.Symbol.intern "obj0")
          ~label:(Kernel.Symbol.intern "broken")
          ~dest:(Kernel.Symbol.intern "missing-object")
          ()
      in
      ignore (Store.Base.insert (Cml.Kb.base kb) bad);
      let full = List.length (Cml.Consistency.check_all kb) in
      let delta =
        List.length (Cml.Consistency.check_delta kb [ Store.Base.Added bad ])
      in
      Printf.printf "%-10d | %-16d %-16d\n" n full delta)
    [ 100; 400; 1600 ];
  Printf.printf
    "expected shape: both find the injected violation; the delta check\n\
     looks only at the touched neighborhood (see timings below).\n"

let shape_e8_configuration () =
  section "E8 (fig 3-4): configuration picks current versions only";
  Printf.printf "%-12s | %-10s %-12s\n" "revisions" "members" "superseded";
  List.iter
    (fun n ->
      let repo, _ = W.edit_chain n in
      let config = Gkbms.Version.configure repo ~level:Gkbms.Metamodel.dbpl_object in
      Printf.printf "%-12d | %-10d %-12d\n" n
        (List.length config.Gkbms.Version.members)
        (List.length config.Gkbms.Version.superseded))
    [ 4; 16; 64 ];
  Printf.printf
    "expected shape: one current member regardless of how many superseded\n\
     versions accumulated — projection scales with the slice, not history.\n"

let shape_e1_menu () =
  section "E1 (fig 2-1): tool selection menu for a focus object";
  let design = W.hierarchy ~depth:2 ~fanout:3 in
  let repo = W.repo_with_design design in
  let menu = Dec.applicable repo (Kernel.Symbol.intern "H_1") in
  List.iter
    (fun (e : Dec.menu_entry) ->
      Printf.printf "  %s (role %s) via %s\n" e.Dec.decision_class e.Dec.role
        (String.concat ", " e.Dec.tools))
    menu;
  Printf.printf
    "expected shape: the specialized mapping decisions first, the generic\n\
     TDL_MappingDec last; tools resolved through the decision classes.\n"

(* E16: the Kb closure memos downstream of a change feed. *)
let shape_e16_incremental_maintenance () =
  section "E16: incremental maintenance — Kb closure memos";
  (* 400 individuals of one class with a generalization *)
  let kb = W.populated_kb 400 in
  ignore (ok (Cml.Kb.declare kb "Entity"));
  ignore (ok (Cml.Kb.add_isa kb ~sub:"Thing" ~super:"Entity"));
  for _round = 1 to 2 do
    for i = 0 to 399 do
      ignore
        (Cml.Kb.all_classes_of kb
           (Kernel.Symbol.intern (Printf.sprintf "obj%d" i)))
    done
  done;
  let cs = Cml.Kb.cache_stats kb in
  Printf.printf
    "kb closure cache over 2x400 classifications: %d hits / %d misses / %d invalidations, %d entries\n"
    cs.Cml.Kb.hits cs.Cml.Kb.misses cs.Cml.Kb.invalidations cs.Cml.Kb.entries;
  Printf.printf
    "expected shape: the kb memos answer every classification from one\n\
     class-level entry.\n"

(* E17 measures wall-clock I/O costs, so it is timed manually. *)
let shape_e17_durability () =
  section "E17: durability — O(delta) WAL commit vs O(repo) snapshot";
  let edit repo target =
    let executed =
      ok
        (Dec.execute repo ~decision_class:Gkbms.Metamodel.dec_manual_edit
           ~tool:Gkbms.Mapping.editor_tool
           ~inputs:[ ("object", target) ]
           ~params:[ ("text", "revised") ]
           ())
    in
    match List.assoc_opt "edited" executed.Dec.outputs with
    | Some o -> o
    | None -> failwith "E17: edit produced no output"
  in
  (* --- commit cost: one decision's WAL record set vs a full snapshot --- *)
  let repo = W.large_repo 1200 in
  let props = Store.Base.cardinal (Cml.Kb.base (Repo.kb repo)) in
  let dir = temp_dir () in
  let d = ok (Gkbms.Durable.attach ~checkpoint_every:max_int ~dir repo) in
  let doc =
    ok
      (Repo.new_object repo ~name:"E17Doc" ~cls:Gkbms.Metamodel.dbpl_object
         (Repo.Text "v0"))
  in
  let before = Gkbms.Durable.wal_records d
  and bytes_before = Gkbms.Durable.wal_bytes d in
  ignore (edit repo doc);
  let delta_records = Gkbms.Durable.wal_records d - before in
  let decision_bytes = Gkbms.Durable.wal_bytes d - bytes_before in
  Gkbms.Durable.sync d;
  let scan = ok (Durability.Wal.read_file (Gkbms.Durable.wal_path dir)) in
  let decision_records =
    (* the edit's records are the log tail *)
    let drop = List.length scan.Durability.Wal.records - delta_records in
    List.filteri (fun i _ -> i >= drop) scan.Durability.Wal.records
  in
  Gkbms.Durable.close d;
  rm_rf dir;
  let commit_runs = 200 in
  let wal_file = Filename.temp_file "gkbms_e17" ".wal" in
  let w = Durability.Wal.writer (Durability.Wal.file_sink wal_file) in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to commit_runs do
    List.iter (Durability.Wal.append w) decision_records;
    Durability.Wal.sync w
  done;
  let t_commit = (Unix.gettimeofday () -. t0) /. float_of_int commit_runs in
  Durability.Wal.close w;
  Sys.remove wal_file;
  let snap_file = Filename.temp_file "gkbms_e17" ".repo" in
  let snap_runs = 20 in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to snap_runs do
    ok (Gkbms.Persist.save_to_file repo snap_file)
  done;
  let t_snap = (Unix.gettimeofday () -. t1) /. float_of_int snap_runs in
  let snap_bytes = (Unix.stat snap_file).Unix.st_size in
  Sys.remove snap_file;
  Printf.printf
    "repository: %d propositions\n\
     single-decision WAL record set: %d records, %d framed bytes\n\
     single-decision WAL commit (append+sync):             %8.1f us\n\
     full repository snapshot (atomic temp+rename):        %8.1f us  (%d bytes)\n\
     -> WAL commit is %.0fx cheaper; the gap grows with the repository\n"
    props delta_records decision_bytes (t_commit *. 1e6) (t_snap *. 1e6)
    snap_bytes (t_snap /. t_commit);
  metric_i "e17_propositions" props;
  metric_i "e17_decision_records" delta_records;
  metric_i "e17_decision_bytes" decision_bytes;
  metric_f "e17_wal_commit_us" (t_commit *. 1e6);
  metric_f "e17_snapshot_us" (t_snap *. 1e6);
  metric_i "e17_snapshot_bytes" snap_bytes;
  metric_f "e17_commit_speedup" (t_snap /. t_commit);
  (* --- recovery: full-log replay vs checkpoint + suffix ---
     The log records history, the state only its outcome: a document
     rewritten n times leaves one artifact in the snapshot but n records
     in the log, so a mid-history checkpoint halves the replay work. *)
  let history ~checkpoint_at n =
    let dir = temp_dir () in
    let repo = Repo.create () in
    Gkbms.Mapping.register_tools repo;
    let doc =
      ok
        (Repo.new_object repo ~name:"Doc" ~cls:Gkbms.Metamodel.dbpl_object
           (Repo.Text "v0"))
    in
    let d = ok (Gkbms.Durable.attach ~checkpoint_every:max_int ~dir repo) in
    let current = ref doc in
    for _ = 1 to 8 do
      current := edit repo !current
    done;
    for i = 1 to n do
      Repo.set_artifact repo doc (Repo.Text (Printf.sprintf "revision %d" i));
      if checkpoint_at = Some i then ok (Gkbms.Durable.checkpoint d)
    done;
    Gkbms.Durable.close d;
    dir
  in
  let time_recover dir =
    let reps = 3 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (ok (Gkbms.Durable.recover ~dir ()))
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps
  in
  Printf.printf "\n%-10s | %-22s | %-22s\n" "rewrites" "full-log replay"
    "checkpoint@n/2 + suffix";
  List.iter
    (fun n ->
      let full_dir = history ~checkpoint_at:None n in
      let ckpt_dir = history ~checkpoint_at:(Some (n / 2)) n in
      let t_full = time_recover full_dir in
      let t_ckpt = time_recover ckpt_dir in
      rm_rf full_dir;
      rm_rf ckpt_dir;
      Printf.printf "%-10d | %19.1f ms | %19.1f ms\n" n (t_full *. 1e3)
        (t_ckpt *. 1e3);
      metric_f (Printf.sprintf "e17_recover_full_ms_n%d" n) (t_full *. 1e3);
      metric_f (Printf.sprintf "e17_recover_ckpt_ms_n%d" n) (t_ckpt *. 1e3))
    [ 1000; 2000; 4000 ];
  Printf.printf
    "expected shape: a decision commit appends its delta (a handful of\n\
     checksummed records) instead of serializing all propositions, so the\n\
     commit-vs-snapshot ratio is >=10x at 5k propositions; recovery from a\n\
     mid-history checkpoint replays only the log suffix of a rewrite-heavy\n\
     history and beats replaying the full log from the initial snapshot.\n"

(* E18 exercises the concurrent server across domains, so it is timed
   manually: each connection (client loop + its server handler thread)
   lives in its own domain, giving real parallelism for the lock-free
   cached-read path while Shell evaluation stays serialized. *)
(* one in-process connection, whose server thread belongs to the calling
   domain (E18 and E22 run each client on a domain of its own) *)
let session daemon f =
  let client = Server.Client.of_transport (Server.Daemon.connect daemon) in
  f client;
  Server.Client.close client

let shape_e18_server () =
  section "E18: concurrent server — read scaling, response cache, writes";
  let cores = Domain.recommended_domain_count () in
  let build_daemon ?(cache = true) ~docs () =
    let st = ok (Gkbms.Scenario.setup ()) in
    ignore (ok (Gkbms.Scenario.map_move_down st));
    ignore (ok (Gkbms.Scenario.normalize_invitations st));
    ignore (ok (Gkbms.Scenario.substitute_key st));
    let repo = st.Gkbms.Scenario.repo in
    for i = 0 to docs - 1 do
      ignore
        (ok
           (Repo.new_object repo
              ~name:(Printf.sprintf "E18Doc%d" i)
              ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")))
    done;
    let config = { Server.Daemon.default_config with cache } in
    Server.Daemon.create ~config repo
  in
  let request client line =
    match Server.Client.request client line with
    | Ok s -> s
    | Error e -> failwith (Printf.sprintf "E18: %s failed: %s" line e)
  in
  let read_lines =
    [| "stats"; "unmapped"; "focus InvitationRel2"; "check"; "help" |]
  in
  let read_op client k =
    ignore (request client read_lines.(k mod Array.length read_lines))
  in
  (* an edit names its successor in the response; track the version tip *)
  let write_op tip client k =
    let resp =
      request client
        (Printf.sprintf "run DecManualEdit Editor object=%s text=w%d" !tip k)
    in
    match String.rindex_opt resp '>' with
    | Some i when i + 1 < String.length resp ->
      tip := String.trim (String.sub resp (i + 1) (String.length resp - i - 1))
    | _ -> ()
  in
  let timed_fanout daemon ~clients per_client =
    let t0 = Unix.gettimeofday () in
    let doms =
      List.init clients (fun ci ->
          Domain.spawn (fun () -> session daemon (per_client ci)))
    in
    List.iter Domain.join doms;
    Unix.gettimeofday () -. t0
  in
  let hit_rate daemon =
    match Server.Daemon.cache_stats daemon with
    | Some cs ->
      let total = cs.Server.Cache.hits + cs.Server.Cache.misses in
      if total = 0 then 0.
      else float_of_int cs.Server.Cache.hits /. float_of_int total
    | None -> 0.
  in
  (* --- read-only scaling ------------------------------------------- *)
  let read_ops = 4000 in
  let read_run ?cache clients =
    let daemon = build_daemon ?cache ~docs:0 () in
    let dt =
      timed_fanout daemon ~clients (fun _ci client ->
          for k = 1 to read_ops do
            read_op client k
          done)
    in
    (float_of_int (clients * read_ops) /. dt, hit_rate daemon)
  in
  Printf.printf "cores available: %d\n" cores;
  let r1, _ = read_run 1 in
  let r2, _ = read_run 2 in
  let r4, hits4 = read_run 4 in
  let r4_nocache, _ = read_run ~cache:false 4 in
  Printf.printf
    "read-only (ops/s): 1 client %8.0f | 2 clients %8.0f | 4 clients %8.0f\n\
     scaling 4v1: %.2fx; cache hit rate at 4 clients: %.3f\n\
     4 clients with cache disabled: %8.0f ops/s (%.2fx slower)\n"
    r1 r2 r4 (r4 /. r1) hits4 r4_nocache (r4 /. r4_nocache);
  metric_i "e18_cores" cores;
  metric_f "e18_read_ops_r1" r1;
  metric_f "e18_read_ops_r2" r2;
  metric_f "e18_read_ops_r4" r4;
  metric_f "e18_read_scaling_4v1" (r4 /. r1);
  metric_f "e18_cache_hit_rate" hits4;
  metric_f "e18_read_ops_r4_nocache" r4_nocache;
  (* --- write-heavy: serialized decision commits --------------------- *)
  let write_clients = 2 and write_ops = 120 in
  let daemon = build_daemon ~docs:write_clients () in
  let dt =
    timed_fanout daemon ~clients:write_clients (fun ci client ->
        let tip = ref (Printf.sprintf "E18Doc%d" ci) in
        for k = 1 to write_ops do
          write_op tip client k
        done)
  in
  let w = float_of_int (write_clients * write_ops) /. dt in
  Printf.printf "write-heavy (%d clients, own version chains): %8.0f ops/s\n"
    write_clients w;
  metric_f "e18_write_ops_per_s" w;
  (* --- mixed 80/20 -------------------------------------------------- *)
  let mixed_clients = 4 and mixed_ops = 400 in
  let daemon = build_daemon ~docs:mixed_clients () in
  let dt =
    timed_fanout daemon ~clients:mixed_clients (fun ci client ->
        let tip = ref (Printf.sprintf "E18Doc%d" ci) in
        for k = 1 to mixed_ops do
          if k mod 5 = 0 then write_op tip client k else read_op client k
        done)
  in
  let m = float_of_int (mixed_clients * mixed_ops) /. dt in
  Printf.printf
    "mixed 80/20 (%d clients): %8.0f ops/s; cache hit rate %.3f\n\
     expected shape: cached reads bypass both the repository lock and the\n\
     shell, so read throughput scales with client count (given cores) while\n\
     writes serialize in decision-log order and invalidate by version.\n"
    mixed_clients m (hit_rate daemon);
  metric_f "e18_mixed_ops_per_s" m;
  metric_f "e18_mixed_hit_rate" (hit_rate daemon)

(* Allocation growth: each browsing verb on a fixed target at H = 512
   and 4H = 2,048 tip-edited decisions (the harness and its gates live
   in bench/scaling; test/test_scaling.ml applies the gates under dune
   runtest). *)
let shape_scaling () =
  section "scaling: words per call at H and 4H decisions";
  Printf.printf "%-8s %12s %12s %7s  gate\n" "op" "words@H" "words@4H" "4H/H";
  let rows = Scaling.run () in
  metric_i "scaling_h" Scaling.h;
  List.iter
    (fun (r : Scaling.row) ->
      Format.printf "%a@." Scaling.pp_row r;
      metric_f ("scaling_" ^ r.op ^ "_words_h") r.words_h;
      metric_f ("scaling_" ^ r.op ^ "_words_4h") r.words_4h;
      metric_f ("scaling_" ^ r.op ^ "_ratio") (Scaling.ratio r);
      Option.iter (metric_f ("scaling_" ^ r.op ^ "_bound")) r.bound)
    rows;
  let failed = List.filter (fun r -> not (Scaling.passes r)) rows in
  if failed <> [] then
    Printf.printf "gates failed: %s\n"
      (String.concat ", " (List.map (fun (r : Scaling.row) -> r.op) failed))

(* E25: group commit + pipelining.  The write path of E18 pays one
   client round trip per decision and — with a WAL in fsync mode — one
   disk sync per decision.  Group commit amortizes the sync across every
   write that arrives while the previous batch commits; pipelining
   removes the round-trip wait.  Three configurations over the same
   write workload (each client round-robins edits across its own pool
   of documents, so a wave of [docs_per_client] writes is dependency
   free and can ride one pipeline window):

     blocking, no WAL        — the E18-equivalent baseline
     blocking, fsync each    — the per-decision-fsync ablation (CI gate):
                               batches capped at one decision
     grouped + pipelined     — group commit, fsync on, K in flight

   The fsync counter confirms batches actually formed: syncs must come
   out far below decisions. *)
let shape_e25_group_commit () =
  section "E25: group commit + pipelined writes — one-core write throughput";
  let clients = 3 and docs_per_client = 16 and waves = 8 in
  let total_writes = clients * docs_per_client * waves in
  let build ~wal ~fsync ~group () =
    let st = ok (Gkbms.Scenario.setup ()) in
    ignore (ok (Gkbms.Scenario.map_move_down st));
    ignore (ok (Gkbms.Scenario.normalize_invitations st));
    ignore (ok (Gkbms.Scenario.substitute_key st));
    let repo = st.Gkbms.Scenario.repo in
    for i = 0 to (clients * docs_per_client) - 1 do
      ignore
        (ok
           (Repo.new_object repo
              ~name:(Printf.sprintf "E25Doc%d" i)
              ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")))
    done;
    let config =
      { Server.Daemon.default_config with
        wal_fsync = fsync;
        group_commit = group;
      }
    in
    let daemon = Server.Daemon.create ~config repo in
    let dir =
      if wal then begin
        let dir = temp_dir () in
        ok (Server.Daemon.attach_wal daemon ~dir);
        Some dir
      end
      else None
    in
    (daemon, dir)
  in
  let counter name =
    match Obs.Registry.find Obs.Registry.default name with
    | Some { Obs.Registry.value = Obs.Registry.Counter_v n; _ } -> n
    | _ -> 0
  in
  (* raw cost of one fsync on this box's filesystem: the speedup of
     group commit over the per-decision-fsync ablation is bounded by
     (fsync + eval) / eval, so the achievable ratio has to be read
     against this number — ~0.4 ms on a local SSD caps it around 3x,
     the multi-ms fsyncs of cloud CI runners push it past 10x. *)
  let fsync_raw_ms =
    let path = Filename.temp_file "gkbms_e25_fsync" ".probe" in
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o600 in
    let probe () =
      let t0 = Unix.gettimeofday () in
      ignore (Unix.write_substring fd "x" 0 1);
      Unix.fsync fd;
      Unix.gettimeofday () -. t0
    in
    for _ = 1 to 5 do ignore (probe ()) done;
    let n = 20 in
    let total = ref 0. in
    for _ = 1 to n do total := !total +. probe () done;
    Unix.close fd;
    Sys.remove path;
    !total /. float_of_int n *. 1e3
  in
  (* every edit targets one of the client's base documents directly —
     the Editor allocates the successor version name itself — so the
     whole op stream is dependency free and rides one continuous
     pipeline with no client-side barrier between waves.  All three
     configurations replay exactly this stream; only the window size
     (1 = blocking request/response) differs. *)
  let client_loop ~window client ci =
    let lines =
      List.concat
        (List.init waves (fun wave ->
             List.init docs_per_client (fun d ->
                 Printf.sprintf
                   "run DecManualEdit Editor object=E25Doc%d text=w%dd%d"
                   ((ci * docs_per_client) + d) wave d)))
    in
    List.iter
      (fun r ->
        match r with
        | Ok resp ->
          if not (String.contains resp '>') then
            failwith ("E25: unparseable run response: " ^ resp)
        | Error e -> failwith ("E25: pipelined write failed: " ^ e))
      (Server.Client.pipeline ~window client lines)
  in
  let timed_clients daemon ~window =
    let t0 = Unix.gettimeofday () in
    let threads =
      List.init clients (fun ci ->
          Thread.create
            (fun () ->
              let client =
                Server.Client.of_transport (Server.Daemon.connect daemon)
              in
              client_loop ~window client ci;
              Server.Client.close client)
            ())
    in
    List.iter Thread.join threads;
    Unix.gettimeofday () -. t0
  in
  let finish daemon dir =
    Server.Daemon.stop daemon;
    Option.iter rm_rf dir
  in
  (* batches of one decision: the blocking arms commit, and with a WAL
     sync, once per write *)
  let single = (1, 0) in
  (* blocking, no WAL: the E18-equivalent write baseline *)
  let daemon, dir = build ~wal:false ~fsync:false ~group:single () in
  let dt = timed_clients daemon ~window:1 in
  finish daemon dir;
  let e18_equiv = float_of_int total_writes /. dt in
  (* blocking, fsync per decision: the ablation the CI gate compares to *)
  let daemon, dir = build ~wal:true ~fsync:true ~group:single () in
  let dt = timed_clients daemon ~window:1 in
  finish daemon dir;
  let ablation = float_of_int total_writes /. dt in
  (* group commit + pipelining, fsync on.  The pipeline window is the
     server's limit of unacked writes per session (half of each
     client's op stream): the server stays saturated, so batches form
     by natural accumulation while the previous batch commits, instead
     of stalling on ack round trips. *)
  let deep = Server.Protocol.pipeline_limit in
  let daemon, dir =
    build ~wal:true ~fsync:true ~group:(docs_per_client * clients, 1_000) ()
  in
  let fsyncs0 = counter "gkbms_wal_fsyncs_total" in
  let dt = timed_clients daemon ~window:deep in
  let fsyncs = counter "gkbms_wal_fsyncs_total" - fsyncs0 in
  finish daemon dir;
  let grouped = float_of_int total_writes /. dt in
  Printf.printf
    "write-heavy, %d clients x %d docs x %d waves = %d decisions:\n\
    \  blocking, no WAL (E18-equivalent):   %8.0f ops/s\n\
    \  blocking, fsync per decision:        %8.0f ops/s\n\
    \  group commit + pipelining (fsync):   %8.0f ops/s (%.1fx ablation, %.1fx E18)\n\
    \  WAL syncs during the grouped run: %d for %d decisions (%.1f decisions/sync)\n\
    \  raw fsync on this box: %.2f ms (bounds the achievable ablation ratio)\n"
    clients docs_per_client waves total_writes e18_equiv ablation grouped
    (grouped /. ablation) (grouped /. e18_equiv) fsyncs total_writes
    (float_of_int total_writes /. float_of_int (max 1 fsyncs))
    fsync_raw_ms;
  metric_i "e25_decisions" total_writes;
  metric_f "e25_fsync_raw_ms" fsync_raw_ms;
  metric_f "e25_write_blocking_nowal_ops" e18_equiv;
  metric_f "e25_write_blocking_fsync_ops" ablation;
  metric_f "e25_write_grouped_ops" grouped;
  metric_i "e25_fsyncs_grouped" fsyncs;
  metric_f "e25_speedup_vs_fsync" (grouped /. ablation);
  metric_f "e25_durability_cost_vs_nowal" (e18_equiv /. grouped)

(* E19: cost of the observability layer itself.  Each workload runs
   three ways — registry disabled (the uninstrumented baseline),
   registry on with tracing off (the default production setting), and
   full tracing — and reports the percentage overhead.  The tracing-off
   overhead is the number the <3% budget in ISSUE/EXPERIMENTS refers
   to. *)
let shape_e19_observability () =
  section "E19: observability overhead — registry on/off, tracing on";
  (* [Kb.derive] of every design object's classes on the scenario KB:
     a fresh tabled prover per goal, its counters published per call *)
  let derive_workload =
    let st = ok (Gkbms.Scenario.setup ()) in
    ignore (ok (Gkbms.Scenario.map_move_down st));
    let repo = st.Gkbms.Scenario.repo in
    let goals =
      List.map
        (fun o -> Term.atom "in" [ Term.symbol o; Term.var "C" ])
        (Repo.all_design_objects repo)
    in
    fun () ->
      for _ = 1 to 60 do
        List.iter
          (fun g -> ignore (ok (Cml.Kb.derive (Repo.kb repo) g)))
          goals
      done
  in
  let decision_workload () = ignore (W.edit_chain 25) in
  let run_modes name workload =
    workload ();
    (* warm-up *)
    let modes =
      [|
        (fun () ->
          Obs.Runtime.set_enabled false;
          Obs.Trace.set_enabled false);
        (fun () ->
          Obs.Runtime.set_enabled true;
          Obs.Trace.set_enabled false);
        (fun () ->
          Obs.Runtime.set_enabled true;
          Obs.Trace.set_slow_threshold_s 0.;
          Obs.Trace.set_enabled true);
      |]
    in
    (* modes are interleaved with a rotated order each round and scored
       by their median, so GC/allocator drift and position-in-round
       effects hit all three alike instead of biasing whichever ran
       first *)
    let rounds = 21 in
    let samples = Array.make_matrix 3 rounds 0. in
    for round = 0 to rounds - 1 do
      for k = 0 to 2 do
        let i = (k + round) mod 3 in
        modes.(i) ();
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        workload ();
        samples.(i).(round) <- Unix.gettimeofday () -. t0
      done
    done;
    Obs.Runtime.set_enabled true;
    Obs.Trace.set_enabled false;
    Obs.Trace.set_slow_threshold_s 0.1;
    Obs.Trace.clear ();
    let t_base = median samples.(0)
    and t_registry = median samples.(1)
    and t_trace = median samples.(2) in
    (* overhead from per-round ratios: the three modes of one round run
       adjacent in time and share whatever load the machine is under,
       so their ratio is far more stable than the ratio of medians *)
    let pct_of mode =
      let ratios =
        Array.init rounds (fun r -> samples.(mode).(r) /. samples.(0).(r))
      in
      (median ratios -. 1.) *. 100.
    in
    let pct_registry = pct_of 1 and pct_trace = pct_of 2 in
    Printf.printf
      "%-10s baseline %.2f ms; registry %.2f ms (%+.1f%%); tracing %.2f ms \
       (%+.1f%%)\n"
      name (t_base *. 1e3) (t_registry *. 1e3) pct_registry (t_trace *. 1e3)
      pct_trace;
    metric_f (Printf.sprintf "e19_%s_base_ms" name) (t_base *. 1e3);
    metric_f (Printf.sprintf "e19_%s_registry_ms" name) (t_registry *. 1e3);
    metric_f (Printf.sprintf "e19_%s_registry_overhead_pct" name) pct_registry;
    metric_f (Printf.sprintf "e19_%s_trace_ms" name) (t_trace *. 1e3);
    metric_f (Printf.sprintf "e19_%s_trace_overhead_pct" name) pct_trace
  in
  run_modes "derive" derive_workload;
  run_modes "decisions" decision_workload;
  Printf.printf
    "expected shape: with tracing off the instrumented build stays within a\n\
     few percent of the disabled-registry baseline (diff-publishing keeps\n\
     hot paths on plain field updates); full tracing adds span bookkeeping\n\
     on every decision and request but no per-resolution cost.\n"

(* E24: cost of end-to-end tracing on the replicated write path.  The
   E18 write workload (manual-edit decisions through a live server
   session) runs three ways — registry disabled, registry on with
   tracing off (the production default), and full tracing with the
   client attaching a trace context to every request.  Modes are
   interleaved in palindromic rounds; each mode is scored by its mean
   pass time over all rounds, and its overhead by the ratio of its mean
   to the baseline's. *)
let shape_e24_tracing () =
  section "E24: distributed tracing overhead — traced writes vs off";
  let st = ok (Gkbms.Scenario.setup ()) in
  ignore (ok (Gkbms.Scenario.map_move_down st));
  ignore (ok (Gkbms.Scenario.normalize_invitations st));
  ignore (ok (Gkbms.Scenario.substitute_key st));
  let repo = st.Gkbms.Scenario.repo in
  for i = 0 to 2 do
    ignore
      (ok
         (Repo.new_object repo
            ~name:(Printf.sprintf "E24Doc%d" i)
            ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")))
  done;
  let daemon = Server.Daemon.create repo in
  let client = Server.Client.of_transport (Server.Daemon.connect daemon) in
  let write_op ~traced tip k =
    let line =
      Printf.sprintf "run DecManualEdit Editor object=%s text=w%d" !tip k
    in
    let res =
      if traced then fst (Server.Client.request_traced client line)
      else Server.Client.request client line
    in
    let resp =
      match res with
      | Ok s -> s
      | Error e -> failwith (Printf.sprintf "E24: %s failed: %s" line e)
    in
    match String.rindex_opt resp '>' with
    | Some i when i + 1 < String.length resp ->
      tip := String.trim (String.sub resp (i + 1) (String.length resp - i - 1))
    | _ -> ()
  in
  (* mode 0: uninstrumented baseline; mode 1: production default
     (metrics on, tracing off, untraced clients); mode 2: full tracing,
     context attached by the client on every request *)
  let modes =
    [|
      ( (fun () ->
          Obs.Runtime.set_enabled false;
          Obs.Trace.set_enabled false),
        false );
      ( (fun () ->
          Obs.Runtime.set_enabled true;
          Obs.Trace.set_enabled false),
        false );
      ( (fun () ->
          Obs.Runtime.set_enabled true;
          Obs.Trace.set_enabled true),
        true );
    |]
  in
  let rounds = 9 and batch = 15 in
  let samples = Array.make_matrix 3 rounds 0. in
  let tips = Array.init 3 (fun i -> ref (Printf.sprintf "E24Doc%d" i)) in
  let next_k = ref 0 in
  let timed_batch i =
    let set, traced = modes.(i) in
    set ();
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      incr next_k;
      write_op ~traced tips.(i) !next_k
    done;
    Unix.gettimeofday () -. t0
  in
  (* warm-up: one untimed batch per mode *)
  for i = 0 to 2 do
    ignore (timed_batch i)
  done;
  (* each decision grows the repository, so later batches in a round
     are systematically slower; a palindromic double pass (rotated
     order, then its mirror) puts every mode at the same summed
     position, cancelling that linear drift exactly *)
  for round = 0 to rounds - 1 do
    let order = Array.init 3 (fun j -> (j + round) mod 3) in
    Array.iter
      (fun i -> samples.(i).(round) <- samples.(i).(round) +. timed_batch i)
      order;
    for j = 2 downto 0 do
      let i = order.(j) in
      samples.(i).(round) <- samples.(i).(round) +. timed_batch i
    done
  done;
  Obs.Runtime.set_enabled true;
  Obs.Trace.set_enabled false;
  Obs.Trace.set_slow_threshold_s 0.1;
  Obs.Trace.clear ();
  Server.Client.close client;
  (* means over the whole run, not medians: every mode occupies every
     within-round position equally often, so its total sees the same
     drift, and 18 batches per mode average scheduler noise that would
     dominate any single-round ratio *)
  let mean i = Array.fold_left ( +. ) 0. samples.(i) /. float_of_int rounds in
  let t_base = mean 0 and t_off = mean 1 and t_on = mean 2 in
  let pct_off = (t_off /. t_base -. 1.) *. 100.
  and pct_on = (t_on /. t_base -. 1.) *. 100. in
  let ops t = float_of_int (2 * batch) /. t in
  Printf.printf
    "write pass (%d ops): baseline %.2f ms; tracing off %.2f ms (%+.1f%%); \
     tracing on %.2f ms (%+.1f%%)\n\
     throughput: baseline %8.0f ops/s | tracing off %8.0f | tracing on %8.0f\n\
     expected shape: with tracing off the only cost is counter updates, so\n\
     overhead sits at the noise floor; tracing on adds a 35-byte context per\n\
     request, span bookkeeping per decision and the WAL commit-stamp note,\n\
     all O(1) per operation.\n"
    (2 * batch) (t_base *. 1e3) (t_off *. 1e3) pct_off (t_on *. 1e3) pct_on
    (ops t_base) (ops t_off) (ops t_on);
  metric_f "e24_base_ms" (t_base *. 1e3);
  metric_f "e24_off_ms" (t_off *. 1e3);
  metric_f "e24_off_overhead_pct" pct_off;
  metric_f "e24_on_ms" (t_on *. 1e3);
  metric_f "e24_trace_overhead_pct" pct_on;
  metric_f "e24_off_ops_s" (ops t_off);
  metric_f "e24_on_ops_s" (ops t_on)

(* E22: replicated reads.  A leader daemon ships committed WAL decision
   frames to followers, each serving reads from its own repository at
   its applied version.  With the response cache disabled every read
   evaluates in the shell, which serializes per daemon — so aggregate
   read throughput is expected to scale with the number of replicas the
   reader pool fans out over, while writes stay on the leader.  The lag
   phase measures read-your-writes freshness: after each leader commit,
   how long until a follower's applied (epoch, version) token covers
   it. *)
(* ------------------------------------------------------------------ *)
(* E23: bound-argument queries over a 1M-fact EDB, on the tabled prover *)
(* ------------------------------------------------------------------ *)

let shape_e23_bound () =
  section "E23: bound queries over a 1M-fact EDB — tabled prover vs. materialization";
  (* 200k disjoint chains of length 5: 1M edge facts, 3M closure
     tuples.  A bound query path(sK_0, Y) touches one chain; bottom-up
     evaluation materializes all 200k. *)
  let segments = 200_000 and len = 5 in
  let t0 = Unix.gettimeofday () in
  let d = W.segmented_chain_program ~segments ~len in
  let t_load = Unix.gettimeofday () -. t0 in
  let facts = Logic.Datalog.fact_count d (Kernel.Symbol.intern "edge") in
  Printf.printf "EDB: %d edge facts (loaded in %.1f s)\n%!" facts t_load;
  let goal s =
    Term.atom "path" [ Term.sym (Printf.sprintf "s%d_0" s); Term.var "Y" ]
  in
  (* a fresh prover per query, as [Kb.derive] runs one *)
  let solve g = Logic.Prover.solve (Logic.Prover.make d) [ g ] in
  let queries = 20 in
  let seg_of i = i * (segments / (queries + 1)) in
  (* warm-up: interning, first-call costs *)
  ignore (solve (goal (seg_of 0)));
  let t0 = Unix.gettimeofday () in
  let bound = Array.init queries (fun i -> solve (goal (seg_of (i + 1)))) in
  let t_bound = (Unix.gettimeofday () -. t0) /. float_of_int queries in
  Printf.printf "tabled prover: %.3f ms/query, %d answers each\n%!"
    (t_bound *. 1e3)
    (List.length bound.(0));
  (* ablation: one bound query pays full bottom-up materialization *)
  let t0 = Unix.gettimeofday () in
  let materialized = ok (Logic.Datalog.query d (goal (seg_of 1))) in
  let t_materialized = Unix.gettimeofday () -. t0 in
  let closure = Logic.Datalog.derived_count d in
  Printf.printf "materialized: %.1f ms (%d closure tuples)\n%!"
    (t_materialized *. 1e3) closure;
  (* answer invariance on the measured query *)
  let canon substs =
    List.sort_uniq String.compare
      (List.map (Format.asprintf "%a" Term.Subst.pp) substs)
  in
  if canon bound.(0) <> canon materialized then
    failwith "E23: prover and bottom-up answers differ";
  let speedup = t_materialized /. t_bound in
  Printf.printf "speedup: %.0fx\n%!" speedup;
  metric_i "e23_edb_facts" facts;
  metric_i "e23_closure_tuples" closure;
  metric_i "e23_queries" queries;
  metric_f "e23_bound_ms_mean" (t_bound *. 1e3);
  metric_f "e23_materialized_ms" (t_materialized *. 1e3);
  metric_f "e23_speedup" speedup

let shape_e22_replication () =
  section "E22: replication — read fan-out across followers, session lag";
  let cores = Domain.recommended_domain_count () in
  Printf.printf "cores available: %d%s\n" cores
    (if cores < 4 then " (read fan-out cannot scale without cores)" else "");
  let config = { Server.Daemon.default_config with Server.Daemon.cache = false } in
  let build_leader dir =
    let st = ok (Gkbms.Scenario.setup ()) in
    ignore (ok (Gkbms.Scenario.map_move_down st));
    ignore (ok (Gkbms.Scenario.normalize_invitations st));
    ignore (ok (Gkbms.Scenario.substitute_key st));
    let repo = st.Gkbms.Scenario.repo in
    ignore
      (ok
         (Repo.new_object repo ~name:"E22Doc" ~cls:Gkbms.Metamodel.dbpl_object
            (Repo.Text "v0")));
    let daemon = Server.Daemon.create ~config repo in
    ok (Server.Daemon.attach_wal daemon ~dir);
    ignore (ok (Replication.Leader.attach daemon));
    daemon
  in
  let connect leader () =
    Ok (Server.Client.of_transport (Server.Daemon.connect leader))
  in
  let make_follower leader i =
    let dir = temp_dir () in
    let f =
      ok
        (Replication.Follower.create ~config
           ~name:(Printf.sprintf "bench-f%d" i)
           ~leader:"leader" ~connect:(connect leader) ~dir ())
    in
    ok (Replication.Follower.catch_up f);
    (f, dir)
  in
  let request client line =
    match Server.Client.request client line with
    | Ok s -> s
    | Error e -> failwith (Printf.sprintf "E22: %s failed: %s" line e)
  in
  let read_lines =
    [| "stats"; "unmapped"; "focus InvitationRel2"; "check"; "help" |]
  in
  let readers = 6 and read_ops = 800 in
  (* the reader pool is fixed; only the set of daemons it fans out over
     changes, so ops/s isolates the replication win *)
  let aggregate daemons =
    let n = Array.length daemons in
    let t0 = Unix.gettimeofday () in
    let doms =
      List.init readers (fun ri ->
          Domain.spawn (fun () ->
              session daemons.(ri mod n) (fun client ->
                  for k = 1 to read_ops do
                    ignore
                      (request client read_lines.(k mod Array.length read_lines))
                  done)))
    in
    List.iter Domain.join doms;
    float_of_int (readers * read_ops) /. (Unix.gettimeofday () -. t0)
  in
  let leader_dir = temp_dir () in
  let leader = build_leader leader_dir in
  let f1, f1_dir = make_follower leader 1 in
  let f2, f2_dir = make_follower leader 2 in
  Fun.protect
    ~finally:(fun () ->
      Replication.Follower.stop f1;
      Replication.Follower.stop f2;
      Server.Daemon.stop leader;
      List.iter rm_rf [ f1_dir; f2_dir; leader_dir ])
  @@ fun () ->
  let r_single = aggregate [| leader |] in
  let r_f1 = aggregate [| leader; Replication.Follower.daemon f1 |] in
  let r_f2 =
    aggregate
      [| leader;
         Replication.Follower.daemon f1;
         Replication.Follower.daemon f2
      |]
  in
  Printf.printf
    "uncached reads, %d reader domains (ops/s):\n\
    \  leader only %8.0f | +1 follower %8.0f | +2 followers %8.0f\n\
    \  scaling with 2 followers: %.2fx\n"
    readers r_single r_f1 r_f2 (r_f2 /. r_single);
  metric_i "e22_cores" cores;
  metric_i "e22_readers" readers;
  metric_f "e22_read_ops_s_single" r_single;
  metric_f "e22_read_ops_s_f1" r_f1;
  metric_f "e22_read_ops_s_f2" r_f2;
  metric_f "e22_scaling_f2" (r_f2 /. r_single);
  (* --- read-your-writes lag ----------------------------------------- *)
  Replication.Follower.start ~wait_ms:200 f1;
  Replication.Follower.start ~wait_ms:200 f2;
  let writes = 40 and lag_timeout_ms = 5000 in
  let lags = ref [] in
  session leader (fun client ->
      let tip = ref "E22Doc" in
      for k = 1 to writes do
        let resp =
          request client
            (Printf.sprintf "run DecManualEdit Editor object=%s text=r%d" !tip k)
        in
        (match String.rindex_opt resp '>' with
        | Some i when i + 1 < String.length resp ->
          tip :=
            String.trim (String.sub resp (i + 1) (String.length resp - i - 1))
        | _ -> ());
        let epoch, version =
          match Replication.Wire.parse_token (request client "repl token") with
          | Ok t -> (t.Replication.Wire.t_epoch, t.Replication.Wire.t_version)
          | Error e -> failwith e
        in
        List.iter
          (fun f ->
            let t0 = Unix.gettimeofday () in
            if
              Replication.Follower.wait_for f ~epoch ~version
                ~timeout_ms:lag_timeout_ms
            then lags := ((Unix.gettimeofday () -. t0) *. 1e3) :: !lags
            else lags := float_of_int lag_timeout_ms :: !lags)
          [ f1; f2 ]
      done);
  let samples = Array.of_list !lags in
  Array.sort compare samples;
  let pct p =
    samples.(min
               (Array.length samples - 1)
               (int_of_float (p *. float_of_int (Array.length samples))))
  in
  Printf.printf
    "read-your-writes lag over %d leader commits x 2 followers:\n\
    \  p50 %.1f ms | p95 %.1f ms | max %.1f ms\n\
     expected shape: each daemon serializes uncached evaluation, so fanning\n\
     the same reader pool over leader+followers multiplies aggregate read\n\
     throughput, and followers adopt a commit's (epoch, version) token within\n\
     one pull round (bounded by the long-poll interval), keeping\n\
     --min-version reads fresh.\n"
    writes (pct 0.50) (pct 0.95) samples.(Array.length samples - 1);
  metric_f "e22_lag_p50_ms" (pct 0.50);
  metric_f "e22_lag_p95_ms" (pct 0.95);
  metric_f "e22_lag_max_ms" samples.(Array.length samples - 1)

(* ------------------------------------------------------------------ *)
(* Bechamel timing benches                                             *)
(* ------------------------------------------------------------------ *)

let tests : (string * (unit -> unit) Staged.t) list ref = ref []

let bench name (f : unit -> unit) = tests := (name, Staged.stage f) :: !tests

let setup_benches () =
  (* E1: menu latency against KB size *)
  let repo_small = W.repo_with_design (W.hierarchy ~depth:2 ~fanout:2) in
  let repo_large = W.repo_with_design (W.hierarchy ~depth:3 ~fanout:4) in
  bench "E1 tool-selection kb=small" (fun () ->
      ignore (Dec.applicable repo_small (Kernel.Symbol.intern "H_1")));
  bench "E1 tool-selection kb=large" (fun () ->
      ignore (Dec.applicable repo_large (Kernel.Symbol.intern "H_1")));
  (* E2/E5: decision execution (includes fresh repository) *)
  let design = W.hierarchy ~depth:2 ~fanout:2 in
  bench "E2 mapping distribute d2f2" (fun () ->
      let repo = W.repo_with_design design in
      ignore (ok (Gkbms.Mapping.distribute repo ~design ~root:"H")));
  bench "E2 mapping move-down d2f2" (fun () ->
      let repo = W.repo_with_design design in
      ignore (ok (Gkbms.Mapping.move_down repo ~design ~root:"H")));
  bench "E5 decision-execution (manual edit)" (fun () ->
      ignore (W.edit_chain 1));
  (* E3: the full normalization step on the meeting scenario *)
  bench "E3 normalize (scenario step)" (fun () ->
      let st = ok (Gkbms.Scenario.setup ()) in
      ignore (ok (Gkbms.Scenario.map_move_down st));
      ignore (ok (Gkbms.Scenario.normalize_invitations st)));
  ();
  (* E6: object transformer *)
  let kb_frames = Cml.Kb.create () in
  ignore (ok (Cml.Kb.declare kb_frames "C"));
  let frame64 =
    Cml.Object_processor.frame ~classes:[ "C" ]
      ~attrs:(List.init 64 (fun i -> (Printf.sprintf "a%d" i, "C")))
      "Big"
  in
  let big = ok (Cml.Object_processor.store kb_frames frame64) in
  bench "E6 object-transformer retrieve 64-attr frame" (fun () ->
      ignore (ok (Cml.Object_processor.retrieve kb_frames big)));
  (* E8: configuration over accumulated versions *)
  let repo_versions, _ = W.edit_chain 64 in
  bench "E8 configuration n=64 versions" (fun () ->
      ignore
        (Gkbms.Version.configure repo_versions ~level:Gkbms.Metamodel.dbpl_object));
  (* E9: deduction strategies *)
  let d_semi = W.chain_program 64 in
  let d_tabled = W.chain_program 64 in
  bench "E9 datalog seminaive n=64" (fun () ->
      Logic.Datalog.invalidate d_semi;
      ok (Logic.Datalog.solve d_semi));
  bench "E9 tabled bound-goal n=64" (fun () ->
      let p = Logic.Prover.make d_tabled in
      ignore
        (Logic.Prover.solve p [ Term.atom "path" [ Term.sym "n0"; Term.var "Y" ] ]));
  bench "E9 lemma-reuse (warm table) n=64" (fun () ->
      let p = Logic.Prover.make d_tabled in
      ignore
        (Logic.Prover.solve p [ Term.atom "path" [ Term.sym "n0"; Term.var "Y" ] ]);
      ignore
        (Logic.Prover.solve p [ Term.atom "path" [ Term.sym "n1"; Term.var "Y" ] ]));
  (* E10: consistency full vs delta *)
  let kb_cons = W.populated_kb 800 in
  let delta_prop =
    Kernel.Prop.make
      ~id:(Kernel.Prop.fresh_id ())
      ~source:(Kernel.Symbol.intern "obj0")
      ~label:(Kernel.Symbol.intern "extra")
      ~dest:(Kernel.Symbol.intern "obj1")
      ()
  in
  ignore (Store.Base.insert (Cml.Kb.base kb_cons) delta_prop);
  bench "E10 consistency full kb=800" (fun () ->
      ignore (Cml.Consistency.check_all kb_cons));
  bench "E10 consistency delta kb=800" (fun () ->
      ignore (Cml.Consistency.check_delta kb_cons [ Store.Base.Added delta_prop ]));
  (* E11: time calculi *)
  bench "E11 allen path-consistency n=16" (fun () ->
      ignore (Temporal.Allen.Network.propagate (W.allen_chain 16)));
  bench "E11 allen path-consistency n=32" (fun () ->
      ignore (Temporal.Allen.Network.propagate (W.allen_chain 32)));
  let ec = Temporal.Event_calculus.create () in
  let act = Kernel.Symbol.intern "act" and fl = Kernel.Symbol.intern "fl" in
  Temporal.Event_calculus.declare_initiates ec act fl;
  for i = 0 to 255 do
    Temporal.Event_calculus.record ec ~time:i act
  done;
  bench "E11 event-calculus holds_at 256 events" (fun () ->
      ignore (Temporal.Event_calculus.holds_at ec fl 200));
  (* E12: reason maintenance *)
  bench "E12 jtms ladder n=64" (fun () -> ignore (W.jtms_ladder 64));
  bench "E12 atms ladder n=64" (fun () -> ignore (W.atms_ladder 64));
  (* the per-decision abstraction the paper proposes: one JTMS node per
     decision (8 decisions here) instead of one per proposition (64) *)
  bench "E12 jtms per-decision n=8 (abstracted)" (fun () ->
      ignore (W.jtms_ladder 8));
  (* E13: ATMS version contexts over the conflict history *)
  let conflict_state =
    match Gkbms.Scenario.run_through_conflict () with
    | Ok st -> st
    | Error e -> failwith e
  in
  bench "E13 context build (conflict history)" (fun () ->
      ignore (Gkbms.Context.build conflict_state.Gkbms.Scenario.repo));
  let ctx = Gkbms.Context.build conflict_state.Gkbms.Scenario.repo in
  bench "E13 context alternatives" (fun () ->
      ignore (Gkbms.Context.alternatives ctx));
  (* E14: formal obligation verification *)
  let verify_state =
    let st = ok (Gkbms.Scenario.setup ()) in
    ignore (ok (Gkbms.Scenario.map_move_down st));
    let norm =
      ok
        (Dec.execute st.Gkbms.Scenario.repo
           ~decision_class:Gkbms.Metamodel.dec_normalize
           ~tool:Gkbms.Mapping.normalize_tool
           ~inputs:[ ("relation", st.Gkbms.Scenario.invitation_rel) ]
           ())
    in
    (st.Gkbms.Scenario.repo, norm.Dec.decision)
  in
  let vrepo, vdec = verify_state in
  bench "E14 verify lossless pop=8" (fun () ->
      ignore
        (ok
           (Gkbms.Verify.check_obligation vrepo ~decision:vdec
              ~obligation:"reconstruction-constructor-lossless" ())));
  bench "E14 verify lossless pop=64" (fun () ->
      ignore
        (ok
           (Gkbms.Verify.check_obligation vrepo ~decision:vdec
              ~obligation:"reconstruction-constructor-lossless" ~population:64
              ())));
  (* E15: whole-repository persistence *)
  let snapshot = Gkbms.Persist.save_repository conflict_state.Gkbms.Scenario.repo in
  bench "E15 persist save (conflict history)" (fun () ->
      ignore (Gkbms.Persist.save_repository conflict_state.Gkbms.Scenario.repo));
  bench "E15 persist load (conflict history)" (fun () ->
      ignore (ok (Gkbms.Persist.load_repository snapshot)));
  (* ablation: store indexes, against a full scan of the same base *)
  let base = W.fill_store 2000 in
  let src = Kernel.Symbol.intern "src7" in
  bench "ablation store-query mem-indexed n=2000" (fun () ->
      ignore (Store.Base.by_source base src));
  bench "ablation store-query log-scan n=2000" (fun () ->
      ignore
        (Store.Base.fold base
           (fun acc (p : Kernel.Prop.t) ->
             if Kernel.Symbol.equal p.source src then p :: acc else acc)
           []))

(* E4 mutates its repository, so it cannot loop over one state: time it
   manually across a pool of identically prepared repositories. *)
let bench_e4_manual () =
  section "E4 timings (manual, mean over 48 prepared repositories)";
  let w = 32 in
  let runs = 48 in
  let pool =
    List.init runs (fun _ ->
        let repo, decisions = W.independent_edits w in
        (repo, List.hd decisions))
  in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (repo, target) -> ignore (ok (Gkbms.Backtrack.retract repo target ())))
    pool;
  let selective = (Unix.gettimeofday () -. t0) /. float_of_int runs in
  let t1 = Unix.gettimeofday () in
  for _ = 1 to runs do
    ignore (W.independent_edits w)
  done;
  let redo = (Unix.gettimeofday () -. t1) /. float_of_int runs in
  Printf.printf "%-48s %14.0f ns/run\n" "E4 selective-backtrack w=32 (1 dependent)"
    (selective *. 1e9);
  Printf.printf "%-48s %14.0f ns/run\n"
    "E4 chronological-redo w=32 (re-execute all)" (redo *. 1e9);
  Printf.printf "speedup: %.1fx (scales with consequences, not history)\n"
    (redo /. selective)

let run_benches () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ()
  in
  section "timings (ns/run, OLS estimate)";
  List.iter
    (fun (name, fn) ->
      let test = Test.make ~name fn in
      let raw = Benchmark.all cfg instances test in
      let results =
        List.map (fun instance -> Analyze.all ols instance raw) instances
      in
      let merged = Analyze.merge ols instances results in
      Hashtbl.iter
        (fun _measure tbl ->
          Hashtbl.iter
            (fun test_name olsr ->
              match Analyze.OLS.estimates olsr with
              | Some (est :: _) ->
                Printf.printf "%-48s %14.0f ns/run\n%!" test_name est
              | Some [] | None ->
                Printf.printf "%-48s %14s\n%!" test_name "n/a")
            tbl)
        merged)
    (List.rev !tests)

let modes =
  [ "shapes"; "server"; "obs"; "repl"; "bound"; "trace"; "group"; "scaling" ]

let usage () =
  Printf.eprintf
    "usage: main.exe [%s] [--json PATH]\n\
     no mode runs every shape and the timed benchmarks (minutes)\n"
    (String.concat "|" modes);
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec check = function
    | [] -> ()
    | "--json" :: _ :: rest -> check rest
    | a :: rest when List.mem a modes -> check rest
    | _ -> usage ()
  in
  check args;
  let shapes_only = List.mem "shapes" args in
  let server_only = List.mem "server" args in
  let obs_only = List.mem "obs" args in
  let repl_only = List.mem "repl" args in
  let bound_only = List.mem "bound" args in
  let trace_only = List.mem "trace" args in
  let group_only = List.mem "group" args in
  let scaling_only = List.mem "scaling" args in
  let json_path =
    let rec find = function
      | "--json" :: path :: _ -> Some path
      | _ :: rest -> find rest
      | [] -> None
    in
    find args
  in
  if server_only then shape_e18_server ()
  else if obs_only then shape_e19_observability ()
  else if repl_only then shape_e22_replication ()
  else if bound_only then shape_e23_bound ()
  else if trace_only then shape_e24_tracing ()
  else if group_only then shape_e25_group_commit ()
  else if scaling_only then shape_scaling ()
  else begin
    shape_e1_menu ();
    shape_e2_mapping_strategies ();
    shape_e4_selective_backtracking ();
    shape_e8_configuration ();
    shape_e9_deduction ();
    shape_e10_consistency ();
    shape_e16_incremental_maintenance ();
    shape_e17_durability ();
    if not shapes_only then begin
      shape_e18_server ();
      shape_e25_group_commit ();
      shape_e19_observability ();
      shape_e24_tracing ();
      bench_e4_manual ();
      setup_benches ();
      run_benches ()
    end
  end;
  Option.iter write_json json_path;
  Printf.printf "\ndone.\n"
