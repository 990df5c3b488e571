(* Leader → follower WAL shipping: wire codecs, the leader's repl
   command family, follower bootstrap/catch-up, read-your-writes
   session tokens, write refusal, and the convergence differential
   (leader and follower canonical snapshots must be byte-identical,
   including across checkpoints, restarts and simulated crashes). *)

module Daemon = Server.Daemon
module Client = Server.Client
module Repo = Gkbms.Repository
module Scn = Gkbms.Scenario
module Durable = Gkbms.Durable
module Wal = Durability.Wal
module Wire = Replication.Wire
module Applier = Replication.Applier
module Leader = Replication.Leader
module Follower = Replication.Follower

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

open Helpers

let req_ok client line =
  match Client.request client line with
  | Ok s -> s
  | Error e -> Alcotest.failf "request %S failed: %s" line e

let req_err client line =
  match Client.request client line with
  | Ok s -> Alcotest.failf "request %S unexpectedly succeeded: %s" line s
  | Error e -> e

let canonical repo = Gkbms.Persist.save_repository_canonical repo

let decisions repo = List.map Kernel.Symbol.name (Repo.decision_log repo)

(* wire codecs ----------------------------------------------------------- *)

let test_wire_roundtrips () =
  (match Wire.parse_hello (Wire.format_hello ~generation:3 ~version:41) with
  | Ok h ->
    check int "hello gen" 3 h.Wire.h_generation;
    check int "hello version" 41 h.Wire.h_version
  | Error e -> Alcotest.fail e);
  (match Wire.parse_hello "gkbms-repl 99 0 0" with
  | Error e -> check bool "version mismatch reported" true (contains "version" e)
  | Ok _ -> Alcotest.fail "foreign protocol version accepted");
  (* version 1 predates the compact [Put] records: builds on either
     side of the bump refuse to pair *)
  (match Wire.parse_hello "gkbms-repl 1 0 0" with
  | Error e -> check bool "version-1 leader refused" true (contains "speaks 1" e)
  | Ok _ -> Alcotest.fail "version-1 leader accepted");
  (* version 2 predates the binary checkpoint, the snapshot body *)
  (match Wire.parse_hello "gkbms-repl 2 0 0" with
  | Error e -> check bool "version-2 leader refused" true (contains "speaks 2" e)
  | Ok _ -> Alcotest.fail "version-2 leader accepted");
  (match Wire.parse_token (Wire.format_token ~epoch:2 ~version:7) with
  | Ok t ->
    check int "token epoch" 2 t.Wire.t_epoch;
    check int "token version" 7 t.Wire.t_version
  | Error e -> Alcotest.fail e);
  (* chunks are binary: newlines and NULs must survive *)
  let chunk = "bin\x00ary\nwith\nnewlines" in
  (match
     Wire.parse_snapshot
       (Wire.format_snapshot ~generation:1 ~offset:8 ~total:999 ~chunk)
   with
  | Ok s ->
    check int "snap gen" 1 s.Wire.s_generation;
    check int "snap offset" 8 s.Wire.s_offset;
    check int "snap total" 999 s.Wire.s_total;
    check string "snap chunk intact" chunk s.Wire.s_chunk
  | Error e -> Alcotest.fail e);
  (match
     Wire.parse_frames
       (Wire.format_frames ~next_gen:2 ~next_offset:1234 ~caught_up:true
          ~epoch:2 ~version:56 ~chunk)
   with
  | Ok f ->
    check int "frames next gen" 2 f.Wire.f_next_gen;
    check int "frames next offset" 1234 f.Wire.f_next_offset;
    check bool "frames caught up" true f.Wire.f_caught_up;
    check int "frames epoch" 2 f.Wire.f_epoch;
    check int "frames version" 56 f.Wire.f_version;
    check string "frames chunk intact" chunk f.Wire.f_chunk
  | Error e -> Alcotest.fail e);
  (match Wire.parse_frames "1 2 garbage 4 5\nx" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage header parsed")

let test_session_tokens () =
  check bool "parse roundtrip" true
    (Wire.parse_session_token (Wire.format_session_token ~epoch:4 ~version:17)
    = Ok (4, 17));
  (match Wire.parse_session_token "nonsense" with
  | Error e -> check bool "parse error mentions shape" true (contains "EPOCH" e)
  | Ok _ -> Alcotest.fail "nonsense token parsed");
  (* lexicographic: a later epoch dominates any version *)
  check bool "same epoch by version" true (Wire.token_le (1, 5) (1, 5));
  check bool "version strictly less" true (Wire.token_le (1, 4) (1, 5));
  check bool "version greater" false (Wire.token_le (1, 6) (1, 5));
  check bool "epoch dominates" true (Wire.token_le (1, 999) (2, 0));
  check bool "epoch dominates reverse" false (Wire.token_le (2, 0) (1, 999));
  check bool "resync error recognized" true
    (Wire.is_resync_error "error: resync: cursor unservable");
  check bool "other errors not resync" false
    (Wire.is_resync_error "error: something else")

(* a leader daemon journaling a scenario repository ----------------------- *)

type leader_rig = {
  l_dir : string;
  l_st : Scn.state;
  mutable l_daemon : Daemon.t;
}

let make_leader ?(config = Daemon.default_config) dir =
  let st = ok (Scn.setup ()) in
  let daemon = Daemon.create ~config st.Scn.repo in
  ok (Daemon.attach_wal daemon ~dir);
  ignore (ok (Leader.attach daemon));
  { l_dir = dir; l_st = st; l_daemon = daemon }

let leader_client rig = Client.of_transport (Daemon.connect rig.l_daemon)

let leader_token rig =
  let d = Option.get (Daemon.durable rig.l_daemon) in
  (Durable.generation d, Repo.version (Daemon.repo rig.l_daemon))

let connect_to rig () = Ok (Client.of_transport (Daemon.connect rig.l_daemon))

let make_follower ?name rig dir =
  Follower.create ?name ~leader:"leader.sock" ~connect:(connect_to rig) ~dir ()

let converged rig follower =
  check Alcotest.(list string) "decision logs equal"
    (decisions (Daemon.repo rig.l_daemon))
    (decisions (Follower.repo follower));
  check string "canonical snapshots byte-identical"
    (canonical (Daemon.repo rig.l_daemon))
    (canonical (Follower.repo follower))

(* leader command family -------------------------------------------------- *)

let test_leader_frames_basic () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let rig = make_leader dir in
  ignore (ok (Scn.map_move_down rig.l_st));
  let c = leader_client rig in
  (match Wire.parse_hello (req_ok c "repl hello") with
  | Ok h -> check int "initial generation" 0 h.Wire.h_generation
  | Error e -> Alcotest.fail e);
  let frames =
    match Wire.parse_frames (req_ok c (Wire.frames ~gen:0 ~offset:0
                                         ~max_bytes:(1 lsl 20) ~wait_ms:0))
    with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  check bool "caught up" true frames.Wire.f_caught_up;
  check bool "chunk has bytes" true (String.length frames.Wire.f_chunk > 0);
  (* the chunk is exactly the framed log: scan it headerless *)
  let scan =
    ok (Wal.scan_from ~expect_header:false frames.Wire.f_chunk ~offset:0)
  in
  check bool "chunk scans clean" true (scan.Wal.truncated = None);
  check int "chunk fully consumed" (String.length frames.Wire.f_chunk)
    scan.Wal.valid_bytes;
  check bool "contains the decision commit" true
    (List.exists (function Wal.Decision_commit _ -> true | _ -> false)
       (Wal.records scan));
  (* re-request at the returned cursor: empty and still caught up *)
  (match
     Wire.parse_frames
       (req_ok c
          (Wire.frames ~gen:frames.Wire.f_next_gen
             ~offset:frames.Wire.f_next_offset ~max_bytes:(1 lsl 20) ~wait_ms:0))
   with
  | Ok f2 ->
    check int "no new bytes" 0 (String.length f2.Wire.f_chunk);
    check bool "still caught up" true f2.Wire.f_caught_up
  | Error e -> Alcotest.fail e);
  (* unservable cursors demand a resync *)
  check bool "future generation is resync" true
    (Wire.is_resync_error
       (req_err c (Wire.frames ~gen:99 ~offset:0 ~max_bytes:4096 ~wait_ms:0)));
  check bool "offset past head is resync" true
    (Wire.is_resync_error
       (req_err c
          (Wire.frames ~gen:0 ~offset:99_999_999 ~max_bytes:4096 ~wait_ms:0)));
  (* leader answers wait trivially at its own state *)
  let e, v = leader_token rig in
  (match Wire.parse_token (req_ok c (Printf.sprintf "wait %d %d 1000" e v)) with
  | Ok t -> check bool "wait token covers request" true
              (Wire.token_le (e, v) (t.Wire.t_epoch, t.Wire.t_version))
  | Error err -> Alcotest.fail err);
  Client.close c;
  Daemon.stop rig.l_daemon

(* bootstrap, catch-up, read-your-writes --------------------------------- *)

let test_follower_bootstrap_and_catch_up () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let rig = make_leader ldir in
  ignore (ok (Scn.map_move_down rig.l_st));
  ignore (ok (Scn.normalize_invitations rig.l_st));
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  converged rig f;
  (* the applied token covers the leader's *)
  let e, v = leader_token rig in
  check bool "applied covers leader token" true
    (Wire.token_le (e, v) (Follower.applied f));
  (* new work on the leader flows through a later catch-up *)
  ignore (ok (Scn.substitute_key rig.l_st));
  ok (Follower.catch_up f);
  converged rig f;
  (* read-your-writes: the new token is immediately waitable *)
  let e2, v2 = leader_token rig in
  check bool "wait_for succeeds" true
    (Follower.wait_for f ~epoch:e2 ~version:v2 ~timeout_ms:1000);
  check bool "wait_for a future token times out" false
    (Follower.wait_for f ~epoch:e2 ~version:(v2 + 1000) ~timeout_ms:60);
  Daemon.stop rig.l_daemon

(* A leader whose checkpoint spans several 1 MiB snapshot chunks: the
   ~49k-proposition edited repository and 600 more edits (its checkpoint
   after the first 2,000 is ~0.96 MB, one chunk). *)
let big_leader dir =
  let repo = Test_durability.edited_repo () in
  let sh = Gkbms.Shell.session repo in
  for i = 2000 to 2599 do
    Test_durability.edit sh i
  done;
  let daemon = Daemon.create repo in
  ok (Daemon.attach_wal daemon ~dir);
  ignore (ok (Leader.attach daemon));
  daemon

(* each snapshot answer is the checkpoint's bytes at the requested
   offset, read from the file per request *)
let test_snapshot_chunks_are_file_ranges () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let daemon = big_leader dir in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) @@ fun () ->
  let file = Test_durability.read_file (Durable.checkpoint_path dir) in
  let c = Client.of_transport (Daemon.connect daemon) in
  let rec go from chunks =
    match Wire.parse_snapshot (req_ok c (Wire.snapshot ~from)) with
    | Error e -> Alcotest.fail e
    | Ok r ->
      check int "total is the file size" (String.length file) r.Wire.s_total;
      let len = String.length r.Wire.s_chunk in
      check bool (Printf.sprintf "chunk at %d is the file's bytes" from) true
        (r.Wire.s_chunk = String.sub file from len);
      if from + len < r.Wire.s_total && len > 0 then go (from + len) (chunks + 1)
      else chunks + 1
  in
  let chunks = go 0 0 in
  check bool (Printf.sprintf "%d chunks" chunks) true (chunks >= 2);
  (* a chunk can start anywhere, and the end of the file answers empty *)
  (match Wire.parse_snapshot (req_ok c (Wire.snapshot ~from:12345)) with
  | Ok r -> check bool "odd offset" true (r.Wire.s_chunk = String.sub file 12345 (1 lsl 20))
  | Error e -> Alcotest.fail e);
  (match Wire.parse_snapshot (req_ok c (Wire.snapshot ~from:(String.length file))) with
  | Ok r -> check string "at the end" "" r.Wire.s_chunk
  | Error e -> Alcotest.fail e);
  ignore (req_err c (Wire.snapshot ~from:(String.length file + 1)));
  Client.close c

let test_bootstrap_from_chunked_checkpoint () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let daemon = big_leader ldir in
  Fun.protect ~finally:(fun () -> Daemon.stop daemon) @@ fun () ->
  check bool "checkpoint spans two chunks" true
    ((Unix.stat (Durable.checkpoint_path ldir)).Unix.st_size > 1 lsl 20);
  let f =
    ok
      (Follower.create ~name:"big" ~leader:"leader.sock"
         ~connect:(fun () -> Ok (Client.of_transport (Daemon.connect daemon)))
         ~dir:fdir ())
  in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  check string "canonical snapshots byte-identical"
    (canonical (Daemon.repo daemon))
    (canonical (Follower.repo f))

let test_follower_refuses_writes () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let rig = make_leader ldir in
  ignore (ok (Scn.map_move_down rig.l_st));
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  let c = Client.of_transport (Daemon.connect (Follower.daemon f)) in
  List.iter
    (fun line ->
      let refusal = req_err c line in
      check bool "names the follower role" true (contains "read-only follower" refusal);
      check bool "redirects to the leader" true (contains "leader.sock" refusal))
    [ "normalize"; "retract dec1" ];
  (* reads are served normally, at the applied version *)
  check bool "reads still served" true
    (contains "decisions: 1" (req_ok c "stats"));
  (* the protocol wait command works through the follower daemon *)
  let e, v = leader_token rig in
  ignore (req_ok c (Printf.sprintf "wait %d %d 2000" e v));
  check bool "wait timeout reported" true
    (contains "timeout" (req_err c (Printf.sprintf "wait %d %d 50" e (v + 999))));
  (* applied/status introspection *)
  (match Wire.parse_token (req_ok c "repl applied") with
  | Ok t -> check bool "repl applied covers leader" true
              (Wire.token_le (e, v) (t.Wire.t_epoch, t.Wire.t_version))
  | Error err -> Alcotest.fail err);
  check bool "repl status names follower" true
    (contains "follower f1" (req_ok c "repl status"));
  Client.close c;
  Daemon.stop rig.l_daemon

(* checkpoints rotate the generation; followers cross the boundary ------- *)

let test_generation_boundary () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let rig = make_leader ldir in
  ignore (ok (Scn.map_move_down rig.l_st));
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  let durable = Option.get (Daemon.durable rig.l_daemon) in
  let gen_before = Durable.generation durable in
  ok (Durable.checkpoint durable);
  check int "checkpoint rotated the generation" (gen_before + 1)
    (Durable.generation durable);
  ignore (ok (Scn.normalize_invitations rig.l_st));
  ok (Follower.catch_up f);
  converged rig f;
  let g, _ = Follower.cursor f in
  check int "follower crossed into the new generation" (gen_before + 1) g;
  (* epochs grew with the rotation, so fresh tokens still compare greater *)
  let e, v = leader_token rig in
  check bool "post-rotation token waitable" true
    (Follower.wait_for f ~epoch:e ~version:v ~timeout_ms:1000);
  Daemon.stop rig.l_daemon

(* Only a leader's rotation keeps the rotated logs, its last
   [Leader.retained_generations], across which a follower behind it
   still streams; a cursor in a deleted generation gets [`Resync], and
   the follower's own directory keeps none. *)
let test_only_a_leader_keeps_archives () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let rig = make_leader ldir in
  Fun.protect ~finally:(fun () -> Daemon.stop rig.l_daemon) @@ fun () ->
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  let durable = Option.get (Daemon.durable rig.l_daemon) in
  let first = Durable.generation durable in
  let kept = Leader.retained_generations in
  let last_kept () =
    let g = Durable.generation durable in
    List.init (min kept (g - first)) (fun i -> g - min kept (g - first) + i)
  in
  ignore (ok (Scn.map_move_down rig.l_st));
  for _ = 1 to kept do
    ok (Durable.checkpoint durable)
  done;
  check (Alcotest.list int) "the leader keeps every generation so far" (last_kept ())
    (Test_durability.archives ldir);
  ok (Follower.catch_up f);
  converged rig f;
  ignore (ok (Scn.normalize_invitations rig.l_st));
  for _ = 1 to 2 do
    ok (Durable.checkpoint durable)
  done;
  check (Alcotest.list int) "and then its last 8" (last_kept ()) (Test_durability.archives ldir);
  check bool "a deleted generation is unservable" true
    (Durable.ship durable ~gen:first ~offset:0 ~max_bytes:1024 = Error `Resync);
  ok (Follower.catch_up f);
  converged rig f;
  let own = Option.get (Daemon.durable (Follower.daemon f)) in
  ok (Durable.checkpoint own);
  check (Alcotest.list int) "the follower keeps none" [] (Test_durability.archives fdir)

(* follower restart: warm recovery resumes at the persisted cursor ------- *)

let test_follower_restart_resumes () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let rig = make_leader ldir in
  ignore (ok (Scn.map_move_down rig.l_st));
  let f1 = ok (make_follower ~name:"f1" rig fdir) in
  ok (Follower.catch_up f1);
  let cursor_before = Follower.cursor f1 in
  Follower.stop f1;
  (* leader keeps writing while the follower is down *)
  ignore (ok (Scn.normalize_invitations rig.l_st));
  ignore (ok (Scn.substitute_key rig.l_st));
  (* restart from the same directory: local recovery, not a re-bootstrap *)
  let snaps_before =
    Obs.Registry.Counter.get
      (Obs.Registry.counter Obs.Registry.default "gkbms_repl_bootstraps_total")
  in
  let f2 = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f2) @@ fun () ->
  check bool "restart did not re-bootstrap" true
    (Obs.Registry.Counter.get
       (Obs.Registry.counter Obs.Registry.default "gkbms_repl_bootstraps_total")
    = snaps_before);
  check bool "cursor resumed where it left off" true
    (Follower.cursor f2 = cursor_before);
  ok (Follower.catch_up f2);
  converged rig f2;
  Daemon.stop rig.l_daemon

(* a shipped record this build cannot decode ------------------------------ *)

(* A whole frame that passes its checksum but whose record does not
   decode fails the follower's pull with the scan's error: it is not a
   frame larger than the request window *)
let test_follower_refuses_undecodable_frame () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let rig = make_leader ldir in
  Fun.protect ~finally:(fun () -> Daemon.stop rig.l_daemon) @@ fun () ->
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  let gen, start = Follower.cursor f in
  ignore (ok (Scn.map_move_down rig.l_st));
  (* the rotation archives the log holding the decision as [gen] *)
  ok (Durable.checkpoint (Option.get (Daemon.durable rig.l_daemon)));
  let archive = Durable.archived_wal_path ldir gen in
  Test_durability.(write_file archive (retag (read_file archive) start));
  match Follower.step f with
  | Ok _ -> Alcotest.fail "the follower applied an undecodable frame"
  | Error e ->
    check bool ("the pull names the frame: " ^ e) true
      (contains "frame at byte 0 passes its checksum" e
      && contains (Printf.sprintf "generation %d from byte %d" gen start) e)

(* leader restart: epochs stay monotone, followers reconnect ------------- *)

let test_leader_restart_epoch_monotone () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let rig = make_leader ldir in
  ignore (ok (Scn.map_move_down rig.l_st));
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  let epoch_before, _ = leader_token rig in
  (* "restart" the leader: stop the daemon (closes the WAL), recover the
     directory, rebuild the daemon around the recovered repository *)
  Daemon.stop rig.l_daemon;
  let durable, _report = ok (Durable.open_ ~dir:ldir ()) in
  let daemon = Daemon.create (Durable.repo durable) in
  ok (Daemon.attach_durable daemon durable);
  ignore (ok (Leader.attach daemon));
  rig.l_daemon <- daemon;
  check bool "generation grew across the restart" true
    (Durable.generation durable > epoch_before);
  (* the follower's first pull fails on the dead connection, then
     reconnects and converges *)
  (match Follower.step f with Ok _ -> () | Error _ -> ());
  ok (Follower.catch_up f);
  converged rig f;
  let e, v = leader_token rig in
  check bool "post-restart token waitable" true
    (Follower.wait_for f ~epoch:e ~version:v ~timeout_ms:1000);
  Daemon.stop daemon

(* the full storyline, including retraction, replicates ------------------ *)

let test_full_scenario_replicates () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let rig = make_leader ldir in
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ignore (ok (Scn.map_move_down rig.l_st));
  ignore (ok (Scn.normalize_invitations rig.l_st));
  ok (Follower.catch_up f);
  ignore (ok (Scn.substitute_key rig.l_st));
  ignore (ok (Scn.introduce_minutes rig.l_st));
  (* resolve_conflict retracts a decision: the unlog note must replicate *)
  ignore (ok (Scn.resolve_conflict rig.l_st));
  ok (Follower.catch_up f);
  converged rig f;
  (* artifacts (design sources) came across, not just propositions *)
  List.iter
    (fun obj ->
      check bool
        (Kernel.Symbol.name obj ^ " artifact replicated")
        true
        (Repo.source_text (Daemon.repo rig.l_daemon) obj
        = Repo.source_text (Follower.repo f) obj))
    (Repo.all_design_objects (Daemon.repo rig.l_daemon));
  Daemon.stop rig.l_daemon

(* randomized convergence differential ----------------------------------- *)

(* a manual-edit decision on [obj] *)
let edit repo obj text =
  Gkbms.Decision.execute repo ~decision_class:Gkbms.Metamodel.dec_manual_edit
    ~tool:Gkbms.Mapping.editor_tool ~inputs:[ ("object", obj) ]
    ~params:[ ("text", text) ] ()

(* a random mutation on the leader: a manual-edit decision on a random
   version tip (each success is one WAL decision frame; editing an
   object that already has a successor aborts the decision — also worth
   shipping, so those are kept in the mix and tolerated) *)
let random_edit rng tips st =
  let i = Random.State.int rng (Array.length !tips) in
  match
    edit st.Scn.repo !tips.(i)
      (Printf.sprintf "edit %d" (Random.State.int rng 1_000_000))
  with
  | Ok executed -> (
    (* keep editing the new version next time *)
    match List.assoc_opt "edited" executed.Gkbms.Decision.outputs with
    | Some obj -> !tips.(i) <- obj
    | None -> ())
  | Error _ -> ()

let scenario_steps =
  [|
    (fun st -> ignore (ok (Scn.map_move_down st)));
    (fun st -> ignore (ok (Scn.normalize_invitations st)));
    (fun st -> ignore (ok (Scn.substitute_key st)));
    (fun st -> ignore (ok (Scn.introduce_minutes st)));
    (fun st -> ignore (ok (Scn.resolve_conflict st)));
  |]

let run_differential ~seed ~rounds () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let rng = Random.State.make [| seed |] in
  let rig = make_leader ldir in
  (* dedicated version chains for the random edits, so they never
     collide with names the storyline steps want to create *)
  let tips =
    ref
      (Array.init 4 (fun i ->
           ok
             (Repo.new_object rig.l_st.Scn.repo
                ~name:(Printf.sprintf "ReplDoc%d" i)
                ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0"))))
  in
  let follower = ref (ok (make_follower ~name:"f1" rig fdir)) in
  let next_step = ref 0 in
  Fun.protect ~finally:(fun () ->
      Follower.stop !follower;
      Daemon.stop rig.l_daemon)
  @@ fun () ->
  for _ = 1 to rounds do
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      (* advance the storyline, or fall back to random edits *)
      if !next_step < Array.length scenario_steps then begin
        scenario_steps.(!next_step) rig.l_st;
        incr next_step
      end
      else random_edit rng tips rig.l_st
    | 4 | 5 | 6 -> random_edit rng tips rig.l_st
    | 7 ->
      (* leader checkpoint: rotates the generation mid-stream *)
      ok (Durable.checkpoint (Option.get (Daemon.durable rig.l_daemon)))
    | 8 ->
      (* follower crash/restart: resume from the persisted cursor *)
      Follower.stop !follower;
      follower := ok (make_follower ~name:"f1" rig fdir)
    | _ -> ());
    (* pull with probability ~1/2, so the follower is often behind *)
    if Random.State.bool rng then
      match Follower.step !follower with Ok _ -> () | Error _ -> ()
  done;
  ok (Follower.catch_up !follower);
  converged rig !follower

let test_differential_seed_1 () = run_differential ~seed:11 ~rounds:60 ()
let test_differential_seed_2 () = run_differential ~seed:22 ~rounds:60 ()
let test_differential_seed_3 () = run_differential ~seed:33 ~rounds:60 ()

(* the design-object count and the instance memos ≡ from scratch -------- *)

(* A class's instances, recomputed from the base: the sources of
   [instanceof] links into the class or any class below it. *)
let scratch_instances kb cls =
  let base = Cml.Kb.base kb in
  let into label c =
    List.filter_map
      (fun (p : Kernel.Prop.t) ->
        if Kernel.Symbol.equal p.label label && not (Kernel.Prop.is_individual p)
        then Some p.source
        else None)
      (Store.Base.by_dest base c)
  in
  let rec below seen = function
    | [] -> seen
    | c :: rest ->
      let subs =
        List.filter
          (fun s -> not (List.exists (Kernel.Symbol.equal s) seen))
          (into Cml.Axioms.isa c)
      in
      below (subs @ seen) (subs @ rest)
  in
  List.sort_uniq Kernel.Symbol.compare
    (List.concat_map (into Cml.Axioms.instanceof) (below [ cls ] [ cls ]))

let scratch_design_objects kb =
  let classes =
    scratch_instances kb (Kernel.Symbol.intern Gkbms.Metamodel.design_object)
  in
  List.sort_uniq Kernel.Symbol.compare
    (List.concat_map (scratch_instances kb) classes)

(* The maintained count (read first, before anything can recount it)
   and every memoized instance set agree with the base.  The reads at
   the end keep the memos of every design object class and of [cls]
   live, so the next step meets them: neither the count nor the
   listing reads a memo. *)
let census_agrees what repo cls =
  let kb = Repo.kb repo in
  let names l = String.concat " " (List.map Kernel.Symbol.name l) in
  let count = Repo.design_object_count repo in
  let scratch = scratch_design_objects kb in
  if count <> List.length scratch then
    Alcotest.failf "%s: design-object count %d, from scratch %d" what count
      (List.length scratch);
  List.iter
    (fun (c, members) ->
      let expected = scratch_instances kb c in
      if members <> expected then
        Alcotest.failf "%s: memoized instances of %s [%s], from scratch [%s]" what
          (Kernel.Symbol.name c) (names members) (names expected))
    (Cml.Kb.instance_memos kb);
  if Repo.all_design_objects repo <> scratch then
    Alcotest.failf "%s: all_design_objects differs from scratch" what;
  List.iter
    (fun c -> ignore (Cml.Kb.all_instances_of kb c))
    (cls :: scratch_instances kb (Kernel.Symbol.intern Gkbms.Metamodel.design_object))

type census_step =
  | Edit of int  (** a decision: edit a document's tip *)
  | Abort  (** a decision whose tool creates an object, then fails *)
  | Retract of int  (** retract one of the script's logged edits *)
  | Classify of int  (** an older document joins the script's class *)
  | Specialize  (** the script's class becomes a DBPL_Object: an isa link *)
  | Join  (** a new class with instances joins DesignObject *)
  | Reload  (** save and reload the leader; restart the follower *)

let pp_census_step = function
  | Edit i -> Printf.sprintf "Edit %d" i
  | Abort -> "Abort"
  | Retract i -> Printf.sprintf "Retract %d" i
  | Classify i -> Printf.sprintf "Classify %d" i
  | Specialize -> "Specialize"
  | Join -> "Join"
  | Reload -> "Reload"

let census_script =
  let open QCheck.Gen in
  let step =
    frequency
      [
        (6, map (fun i -> Edit i) small_nat);
        (1, return Abort);
        (2, map (fun i -> Retract i) small_nat);
        (1, map (fun i -> Classify i) small_nat);
        (1, return Specialize);
        (1, return Join);
        (1, return Reload);
      ]
  in
  QCheck.make
    ~print:(fun steps -> String.concat "; " (List.map pp_census_step steps))
    ~shrink:QCheck.Shrink.list
    (list_size (int_range 4 16) step)

let census_runs = ref 0

(* One script on a leader journaling to its WAL, with a follower that
   catches up after every step: both must keep the count and their
   memos equal to a from-scratch computation. *)
let run_census steps =
  incr census_runs;
  (* names of this run's own, so new versions are the newest symbols *)
  let name fmt = Printf.sprintf ("Census%d" ^^ fmt) !census_runs in
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let rig = make_leader ldir in
  let repo = rig.l_st.Scn.repo in
  let kb = Repo.kb repo in
  let docs =
    Array.init 3 (fun i ->
        ok
          (Repo.new_object repo ~name:(name "Doc%dx" i)
             ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")))
  in
  (* a class whose instances are not design objects until it
     specializes one *)
  let cls = name "Cls" in
  ignore (ok (Cml.Kb.declare kb cls));
  for i = 0 to 1 do
    ignore (ok (Cml.Kb.declare kb (name "Inst%d" i)));
    ignore (ok (Cml.Kb.add_instanceof kb ~inst:(name "Inst%d" i) ~cls))
  done;
  let cls_sym = Kernel.Symbol.intern cls in
  let failer = name "Failer" and aborts = ref 0 in
  Repo.register_tool repo
    {
      Repo.tool_name = failer;
      executes = Gkbms.Metamodel.dec_manual_edit;
      automation = `Manual;
      guarantees = [];
      run =
        (fun repo ~inputs:_ ~params:_ ->
          incr aborts;
          match
            Repo.new_object repo ~name:(name "Aborted%d" !aborts)
              ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "x")
          with
          | Ok _ -> Error "the tool failed"
          | Error e -> Error e);
    };
  let follower = ref (ok (make_follower ~name:"f1" rig fdir)) in
  Fun.protect ~finally:(fun () ->
      Follower.stop !follower;
      Daemon.stop rig.l_daemon)
  @@ fun () ->
  let tip i = List.hd (List.rev (Gkbms.Version.version_chain repo docs.(i mod 3))) in
  let edit repo obj =
    Gkbms.Decision.execute repo ~decision_class:Gkbms.Metamodel.dec_manual_edit
      ~tool:Gkbms.Mapping.editor_tool ~inputs:[ ("object", obj) ]
      ~params:[ ("text", "w") ] ()
  in
  let edits = ref [] in
  let specialized = ref false and joined = ref false in
  let agree what =
    census_agrees ("leader " ^ what) repo cls_sym;
    ok (Follower.catch_up !follower);
    census_agrees ("follower " ^ what) (Follower.repo !follower) cls_sym
  in
  agree "set-up";
  List.iter
    (fun step ->
      (match step with
      | Edit i -> (
        match edit repo (tip i) with
        | Ok ex -> edits := ex.Gkbms.Decision.decision :: !edits
        | Error e -> Alcotest.failf "edit: %s" e)
      | Abort -> (
        match
          Gkbms.Decision.execute repo ~decision_class:Gkbms.Metamodel.dec_manual_edit
            ~tool:failer ~inputs:[ ("object", tip 0) ] ()
        with
        | Error e -> check string "the decision aborts" "the tool failed" e
        | Ok _ -> Alcotest.fail "a failing tool committed")
      | Retract i -> (
        match List.filter (Repo.is_logged repo) !edits with
        | [] -> ()
        | logged ->
          ignore
            (ok (Gkbms.Backtrack.retract repo (List.nth logged (i mod List.length logged)) ())))
      | Classify i ->
        ignore
          (ok (Cml.Kb.add_instanceof kb ~inst:(Kernel.Symbol.name docs.(i mod 3)) ~cls))
      | Specialize ->
        if not !specialized then begin
          specialized := true;
          ignore (ok (Cml.Kb.add_isa kb ~sub:cls ~super:Gkbms.Metamodel.dbpl_object))
        end
      | Join ->
        if not !joined then begin
          joined := true;
          let level = name "Level" in
          let inst i =
            ignore (ok (Cml.Kb.declare kb (name "Lvl%d" i)));
            ignore (ok (Cml.Kb.add_instanceof kb ~inst:(name "Lvl%d" i) ~cls:level))
          in
          ignore (ok (Cml.Kb.declare kb level));
          inst 0;
          ignore
            (ok (Cml.Kb.add_instanceof kb ~inst:level ~cls:Gkbms.Metamodel.design_object));
          agree "join";
          inst 1
        end
      | Reload ->
        let copy = ok (Gkbms.Persist.load_repository (Gkbms.Persist.save_repository repo)) in
        census_agrees "reloaded" copy cls_sym;
        ignore (ok (edit copy (tip 1)));
        census_agrees "edited after reload" copy cls_sym;
        Follower.stop !follower;
        follower := ok (make_follower ~name:"f1" rig fdir));
      agree (pp_census_step step))
    steps;
  true

let prop_census_differential =
  QCheck.Test.make ~count:30
    ~name:"design-object count and instance memos ≡ from scratch (leader, follower)"
    census_script run_census

(* group commit feeds replication multi-decision batches --------------- *)

let test_grouped_batches_replicate () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir) @@ fun () ->
  let n = 12 in
  (* a wide window, so the pipelined burst lands in few batches *)
  let rig =
    make_leader
      ~config:{ Daemon.default_config with group_commit = (n, 50_000) }
      ldir
  in
  let docs =
    List.init n (fun i ->
        ok
          (Repo.new_object rig.l_st.Scn.repo
             ~name:(Printf.sprintf "BatchDoc%d" i)
             ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")))
  in
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  let c = leader_client rig in
  let edit i doc = Printf.sprintf "run DecManualEdit Editor object=%s text=b%d" doc i in
  (* one edit first, retracted at the end of the burst, after the
     burst's edit of its output *)
  let first, tip = edit_ack (req_ok c (edit n (Kernel.Symbol.name (List.hd docs)))) in
  let writes =
    List.mapi
      (fun i doc -> edit i (if i = 0 then tip else Kernel.Symbol.name doc))
      docs
    @ [ "retract " ^ first ]
  in
  (* hold commits until every write is queued, so the flusher finds
     them waiting however the threads are scheduled *)
  let results = ref [] and pipeliner = ref None in
  (* [first]'s ack can reach the client before the gauge counts it out *)
  let g0 = settled_inflight () in
  with_commits_held rig.l_daemon (fun () ->
      pipeliner :=
        Some
          (Thread.create
             (fun () -> results := Client.pipeline ~window:(n + 1) c writes)
             ());
      check int "every write queued" (n + 1) (inflight_rise ~g0 (n + 1)));
  Option.iter Thread.join !pipeliner;
  List.iter2
    (fun line r ->
      match r with
      | Ok out ->
        check bool line true
          (contains "run executed" out
          || String.starts_with ~prefix:("retracted decisions: " ^ first ^ ", ") out)
      | Error e -> Alcotest.failf "pipelined write %S failed: %s" line e)
    writes !results;
  (* the shipped log brackets the decisions in batch markers, and at
     least one batch holds several decisions *)
  let chunk =
    match
      Wire.parse_frames
        (req_ok c (Wire.frames ~gen:0 ~offset:0 ~max_bytes:(1 lsl 24) ~wait_ms:0))
    with
    | Ok fr -> fr.Wire.f_chunk
    | Error e -> Alcotest.fail e
  in
  let records =
    Wal.records (ok (Wal.scan_from ~expect_header:false chunk ~offset:0))
  in
  let batch_sizes =
    List.fold_left
      (fun (open_, sizes) r ->
        match (r, open_) with
        | Wal.Note (k, _), _ when k = Durability.Journal.batch_begin_key ->
          (Some 0, sizes)
        | Wal.Note (k, _), Some m when k = Durability.Journal.batch_end_key ->
          (None, m :: sizes)
        | Wal.Decision_commit _, Some m -> (Some (m + 1), sizes)
        | _ -> (open_, sizes))
      (None, []) records
    |> snd
  in
  check int "every decision shipped inside a batch" (n + 2)
    (List.fold_left ( + ) 0 batch_sizes);
  check bool "a batch held several decisions" true
    (List.exists (fun m -> m > 1) batch_sizes);
  ok (Follower.catch_up f);
  let e, v = leader_token rig in
  check bool "follower reaches the leader's token" true
    (Follower.wait_for f ~epoch:e ~version:v ~timeout_ms:2000);
  converged rig f;
  Client.close c;
  Daemon.stop rig.l_daemon

(* group commit × crash × follower: a torn batch ----------------------- *)

(* A leader killed before a batch's end marker reached the disk leaves
   the batch's first records in its log; its restart rolls the batch
   back and archives the log as a generation that a follower then
   streams.  The follower must roll the batch back too.  [kill -9] is
   modelled by a copy of the leader's directory taken while the batch
   is open: the bytes the log has flushed so far, which is what a
   killed process leaves on disk.  The old daemon writes only to the
   original, so it is then stopped normally. *)

let copy_dir src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun f ->
      Test_durability.write_file (Filename.concat dst f)
        (Test_durability.read_file (Filename.concat src f)))
    (Sys.readdir src)

let edited repo obj text =
  List.assoc "edited" (ok (edit repo obj text)).Gkbms.Decision.outputs

let torn_batch_converges ~prepare ~in_batch =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir ()
  and crashed = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> List.iter Scratch.rm_rf [ ldir; fdir; crashed ])
  @@ fun () ->
  let rig = make_leader ldir in
  let doc =
    ok
      (Repo.new_object rig.l_st.Scn.repo ~name:"TornDoc"
         ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0"))
  in
  prepare rig.l_st;
  let f = ok (make_follower ~name:"f1" rig fdir) in
  ok (Follower.catch_up f);
  let durable = Option.get (Daemon.durable rig.l_daemon) in
  Durable.begin_batch durable;
  in_batch rig.l_st doc durable;
  copy_dir ldir crashed;
  Follower.stop f;
  Daemon.stop rig.l_daemon;
  let durable, report = ok (Durable.open_ ~dir:crashed ()) in
  check bool "the crash tore the batch" true (report.Durable.dangling_frames >= 1);
  let daemon = Daemon.create (Durable.repo durable) in
  ok (Daemon.attach_durable daemon durable);
  ignore (ok (Leader.attach daemon));
  rig.l_daemon <- daemon;
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () ->
      Follower.stop f;
      Daemon.stop daemon)
  @@ fun () ->
  ok (Follower.catch_up f);
  converged rig f;
  (* the restarted leader reissues the torn batch's decision ids *)
  let c = leader_client rig in
  check bool "edit after the restart" true
    (contains "run executed"
       (req_ok c "run DecManualEdit Editor object=TornDoc text=after"));
  Client.close c;
  ok (Follower.catch_up f);
  converged rig f

(* a retraction, then a sync mid-batch: the batch's frames so far, the
   retraction's with its [unlog] notes, reach the disk *)
let test_torn_batch_retraction_synced () =
  torn_batch_converges
    ~prepare:(fun st ->
      ignore (ok (Scn.map_move_down st));
      ignore (ok (Scn.normalize_invitations st));
      ignore (ok (Scn.substitute_key st));
      ignore (ok (Scn.introduce_minutes st)))
    ~in_batch:(fun st doc durable ->
      ignore (edited st.Scn.repo doc "torn");
      ignore (ok (Scn.resolve_conflict st));
      Durable.sync durable)

(* ~95 kB of edits: the log's 64 KiB channel buffer flushes by itself *)
let test_torn_batch_buffer_flush () =
  torn_batch_converges ~prepare:ignore ~in_batch:(fun st doc _ ->
      let tip = ref doc in
      for i = 1 to 192 do
        tip := edited st.Scn.repo !tip (Printf.sprintf "torn %d" i)
      done)

(* applier unit behavior -------------------------------------------------- *)

let test_applier_skips_logged_decisions () =
  let ldir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir) @@ fun () ->
  let rig = make_leader ldir in
  ignore (ok (Scn.map_move_down rig.l_st));
  let c = leader_client rig in
  let frames =
    match
      Wire.parse_frames
        (req_ok c (Wire.frames ~gen:0 ~offset:0 ~max_bytes:(1 lsl 20) ~wait_ms:0))
    with
    | Ok f -> f
    | Error e -> Alcotest.fail e
  in
  let records =
    Wal.records (ok (Wal.scan_from ~expect_header:false frames.Wire.f_chunk ~offset:0))
  in
  Client.close c;
  (* apply the same stream twice into a fresh repository: the second
     pass must be a no-op (idempotent overlap replay) *)
  let target = ok (Gkbms.Persist.load_repository
                     (Gkbms.Persist.save_repository (ok (Scn.setup ())).Scn.repo))
  in
  let applier = Applier.create target in
  let feed_all () = List.iter (fun r -> ok (Applier.feed applier r)) records in
  feed_all ();
  check int "depth back to zero" 0 (Applier.depth applier);
  let snap = canonical target in
  let decisions_after = Applier.decisions_applied applier in
  feed_all ();
  check string "second replay changed nothing" snap (canonical target);
  check int "no decision re-applied" decisions_after
    (Applier.decisions_applied applier);
  Daemon.stop rig.l_daemon

(* trace propagation across the replication stream ------------------------ *)

let lag_count () =
  match
    Obs.Registry.find Obs.Registry.default "gkbms_repl_visibility_lag_seconds"
  with
  | Some { Obs.Registry.value = Obs.Registry.Histogram_v s; _ } ->
    s.Obs.Histogram.total
  | _ -> 0

let test_trace_spans_replication () =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () ->
      Scratch.rm_rf ldir;
      Scratch.rm_rf fdir)
  @@ fun () ->
  let rig = make_leader ldir in
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  let before = lag_count () in
  Obs.Recorder.clear ();
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Obs.Trace.set_slow_threshold_s 10.;
  Fun.protect ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.set_slow_threshold_s 0.1;
      Daemon.stop rig.l_daemon)
  @@ fun () ->
  let c = leader_client rig in
  let res, trace = Client.request_traced c "map" in
  let out = ok res in
  check bool "decision executed" true (contains "executed: decision" out);
  (* "map executed: decision decN -> ..." *)
  let dec =
    match String.split_on_char ' ' out with
    | _ :: _ :: _ :: d :: _ -> d
    | _ -> Alcotest.failf "cannot parse decision id from %S" out
  in
  ok (Follower.catch_up f);
  converged rig f;
  (* the commit-stamp note crossed the stream and fed the lag histogram *)
  check bool "visibility lag observed" true (lag_count () > before);
  (* the follower's flight recorder saw the apply, under the same trace *)
  let applied =
    List.exists
      (fun ev ->
        ev.Obs.Recorder.decision = dec
        && ev.Obs.Recorder.trace = Some trace
        &&
        match ev.Obs.Recorder.kind with
        | Obs.Recorder.Applied lag -> lag >= 0.
        | _ -> false)
      (Obs.Recorder.events ())
  in
  check bool "recorder holds the traced apply" true applied;
  (* and the apply span itself is stitched into the same trace *)
  let apply_span =
    List.exists
      (fun sp ->
        sp.Obs.Trace.span_name = "follower.apply"
        && List.mem ("trace", trace) sp.Obs.Trace.attrs
        && List.mem ("decision", dec) sp.Obs.Trace.attrs)
      (Obs.Trace.recent ())
  in
  check bool "follower.apply span carries the trace id" true apply_span

(* one repository lock ----------------------------------------------------- *)

let fsyncs () = Test_server.counter_value "gkbms_wal_fsyncs_total"

(* with a leader and a follower bootstrapped from it, both stopped after *)
let with_pair ?config f =
  let ldir = Scratch.temp_dir () and fdir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf ldir; Scratch.rm_rf fdir)
  @@ fun () ->
  let rig = make_leader ?config ldir in
  ignore (ok (Scn.map_move_down rig.l_st));
  Fun.protect ~finally:(fun () -> Daemon.stop rig.l_daemon) @@ fun () ->
  f rig fdir

(* A caught-up follower's long poll captures the leader's log every
   10 ms; with nothing appended, none of those captures syncs it. *)
let test_idle_leader_does_not_sync () =
  with_pair ~config:{ Daemon.default_config with wal_fsync = true }
  @@ fun rig fdir ->
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  let syncs0 = fsyncs () in
  for _ = 1 to 3 do
    check int "a caught-up round applies nothing" 0
      (ok (Follower.step ~wait_ms:100 f))
  done;
  check int "no sync while the leader is idle" syncs0 (fsyncs ());
  (* a write still syncs, and the next round ships it *)
  let c = leader_client rig in
  check bool "write" true
    (contains "run executed"
       (req_ok c "run DecManualEdit Editor object=InvitationRel text=idle"));
  check bool "the write synced" true (fsyncs () > syncs0);
  ok (Follower.catch_up f);
  converged rig f;
  Client.close c

(* One [wait] verb: at the same token, a leader and a follower answer
   every [wait] line alike, up to the role word. *)
let test_wait_answers_agree () =
  with_pair @@ fun rig fdir ->
  let f = ok (make_follower ~name:"f1" rig fdir) in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  let e, v = leader_token rig in
  check Alcotest.(pair int int) "same token on both ends" (e, v)
    (Follower.applied f);
  let token = Ok (Wire.format_token ~epoch:e ~version:v) in
  let usage = Error "error: usage: wait EPOCH VERSION [TIMEOUT_MS]" in
  let expected role =
    [
      (Printf.sprintf "wait %d %d 1000" e v, token);
      (Printf.sprintf "wait %d %d" e v, token);
      ( Printf.sprintf "wait %d %d 30" e (v + 5),
        Error
          (Printf.sprintf "error: wait: %s at %d:%d, needed %d:%d (timeout)"
             role e v e (v + 5)) );
      ("wait x 1", usage);
      ("wait 1", usage);
      (Printf.sprintf "wait %d %d 30 4" e v, usage);
    ]
  in
  List.iter
    (fun (role, daemon) ->
      let c = Client.of_transport (Daemon.connect daemon) in
      List.iter
        (fun (line, want) ->
          check
            Alcotest.(result string string)
            (role ^ ": " ^ line) want (Client.request c line))
        (expected role);
      Client.close c)
    [ ("leader", rig.l_daemon); ("follower", Follower.daemon f) ]

(* The interleaving the one lock makes stricter: a leader's capture now
   waits for an evaluating read as well as for a write batch.  A client
   whose reads the cache cannot answer, a writing client and a
   bootstrapping follower run at once; all three finish, every answer
   is right, and the follower converges. *)
let test_reads_writes_and_captures_interleave () =
  with_pair @@ fun rig fdir ->
  List.iter
    (fun name ->
      ignore
        (ok
           (Repo.new_object rig.l_st.Scn.repo ~name
              ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0"))))
    [ "LockReadDoc"; "LockWriteDoc" ];
  let reader = leader_client rig and writer = leader_client rig in
  (* an object no write touches explains itself alike throughout *)
  let why = req_ok reader "why InvitationRel" in
  (* [trace decision] of a logged decision: a read that is never cached *)
  let trace = "trace decision " ^ List.hd (decisions rig.l_st.Scn.repo) in
  let rounds = 20 in
  let failures = ref [] and fm = Mutex.create () in
  let expect what good = function
    | Ok s when good s -> ()
    | Ok s | Error s ->
      Mutex.protect fm (fun () -> failures := (what ^ ": " ^ s) :: !failures)
  in
  let edit c obj i =
    let line =
      Printf.sprintf "run DecManualEdit Editor object=%s text=t%d" obj i
    in
    expect line (contains "run executed") (Client.request c line)
  in
  let finished = Atomic.make 0 in
  let spawn body =
    Thread.create
      (fun () ->
        (try body ()
         with exn ->
           expect "raised" (fun _ -> false) (Error (Printexc.to_string exn)));
        Atomic.incr finished)
      ()
  in
  let follower = ref None in
  let threads =
    [
      spawn (fun () ->
          for i = 1 to rounds do
            edit reader "LockReadDoc" i;
            expect "why" (String.equal why)
              (Client.request reader "why InvitationRel");
            expect "config"
              (String.starts_with ~prefix:"configuration over DBPL_Object")
              (Client.request reader "config DBPL_Object");
            expect "trace" (contains "decision") (Client.request reader trace)
          done);
      spawn (fun () -> for i = 1 to rounds do edit writer "LockWriteDoc" i done);
      spawn (fun () ->
          let f = ok (make_follower ~name:"f1" rig fdir) in
          follower := Some f;
          ok (Follower.catch_up f));
    ]
  in
  let deadline = Unix.gettimeofday () +. 60. in
  while Atomic.get finished < 3 && Unix.gettimeofday () < deadline do
    Thread.delay 0.01
  done;
  check int "all three finish before the deadline" 3 (Atomic.get finished);
  List.iter Thread.join threads;
  check Alcotest.(list string) "every answer is right" [] !failures;
  let f = Option.get !follower in
  Fun.protect ~finally:(fun () -> Follower.stop f) @@ fun () ->
  ok (Follower.catch_up f);
  converged rig f;
  Client.close reader;
  Client.close writer

let suite =
  [
    ("wire roundtrips", `Quick, test_wire_roundtrips);
    ("session tokens", `Quick, test_session_tokens);
    ("leader frames basics", `Quick, test_leader_frames_basic);
    ("follower bootstrap and catch-up", `Quick, test_follower_bootstrap_and_catch_up);
    ("snapshot chunks are file ranges", `Quick, test_snapshot_chunks_are_file_ranges);
    ("bootstrap from a multi-chunk checkpoint", `Quick,
     test_bootstrap_from_chunked_checkpoint);
    ("follower refuses writes", `Quick, test_follower_refuses_writes);
    ("generation boundary crossed", `Quick, test_generation_boundary);
    ("follower restart resumes", `Quick, test_follower_restart_resumes);
    ("leader restart keeps epochs monotone", `Quick, test_leader_restart_epoch_monotone);
    ("follower refuses a frame it cannot decode", `Quick,
     test_follower_refuses_undecodable_frame);
    ("full scenario replicates", `Quick, test_full_scenario_replicates);
    ("convergence differential (seed 11)", `Quick, test_differential_seed_1);
    ("convergence differential (seed 22)", `Quick, test_differential_seed_2);
    ("convergence differential (seed 33)", `Quick, test_differential_seed_3);
    ("grouped batches replicate", `Quick, test_grouped_batches_replicate);
    ("torn batch: a retraction, synced", `Quick, test_torn_batch_retraction_synced);
    ("torn batch: a buffer flush mid-batch", `Quick, test_torn_batch_buffer_flush);
    ("applier skips already-logged decisions", `Quick, test_applier_skips_logged_decisions);
    QCheck_alcotest.to_alcotest prop_census_differential;
    ("trace spans the replication stream", `Quick, test_trace_spans_replication);
    ("an idle leader does not sync its log", `Quick, test_idle_leader_does_not_sync);
    ("leader and follower answer wait alike", `Quick, test_wait_answers_agree);
    ("reads, writes and captures interleave under one lock", `Quick,
     test_reads_writes_and_captures_interleave);
    ("only a leader keeps archives", `Quick, test_only_a_leader_keeps_archives);
  ]
