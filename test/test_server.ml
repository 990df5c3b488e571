(* The concurrent GKBMS server: wire protocol, sessions, scheduler,
   version-keyed cache, and the concurrency differential test (N clients
   against the server must equal a sequential Shell replay). *)

module Protocol = Server.Protocol
module Daemon = Server.Daemon
module Client = Server.Client
module Repo = Gkbms.Repository
module Sym = Kernel.Symbol

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

open Helpers

let req_ok client line =
  match Client.request client line with
  | Ok s -> s
  | Error e -> Alcotest.failf "request %S failed: %s" line e

(* a scenario repository advanced to the keyed stage, plus seed docs *)
let keyed_repo ?(docs = 0) () =
  let st = ok (Gkbms.Scenario.setup ()) in
  ignore (ok (Gkbms.Scenario.map_move_down st));
  ignore (ok (Gkbms.Scenario.normalize_invitations st));
  ignore (ok (Gkbms.Scenario.substitute_key st));
  let repo = st.Gkbms.Scenario.repo in
  for i = 0 to docs - 1 do
    ignore
      (ok
         (Repo.new_object repo
            ~name:(Printf.sprintf "Doc%d" i)
            ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")))
  done;
  repo

(* protocol ------------------------------------------------------------- *)

let roundtrip frame =
  let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let client = Protocol.fd_transport a and server = Protocol.fd_transport b in
  Fun.protect ~finally:(fun () ->
      client.Protocol.close ();
      server.Protocol.close ())
  @@ fun () ->
  ignore (Protocol.write_frame client frame);
  let r = Protocol.reader server in
  match Protocol.next_frame r with
  | Ok f -> f
  | Error `Eof -> Alcotest.fail "unexpected eof"
  | Error (`Corrupt e) -> Alcotest.failf "unexpected corruption: %s" e

(* A transport whose reads return [chunks] in order, each cut to the
   reader's buffer, then end-of-stream: a whole stream a peer wrote and
   closed, with no socket buffer that would have to hold it. *)
let chunked_transport chunks =
  let rest = ref chunks in
  let read b pos len =
    match !rest with
    | [] -> 0
    | c :: cs ->
      let n = min len (String.length c) in
      Bytes.blit_string c 0 b pos n;
      rest :=
        if n = String.length c then cs
        else String.sub c n (String.length c - n) :: cs;
      n
  in
  { Protocol.read; write = ignore; shutdown = ignore; close = ignore }

let test_protocol_roundtrip () =
  (match roundtrip (Protocol.Request { id = 42; line = "focus Papers"; ctx = None }) with
  | Protocol.Request r ->
    check int "id" 42 r.Protocol.id;
    check string "line" "focus Papers" r.Protocol.line
  | _ -> Alcotest.fail "wrong frame kind");
  match
    roundtrip (Protocol.Response { id = 7; ok = false; payload = "error: x" })
  with
  | Protocol.Response r ->
    check int "id" 7 r.Protocol.id;
    check bool "ok" false r.Protocol.ok;
    check string "payload" "error: x" r.Protocol.payload
  | _ -> Alcotest.fail "wrong frame kind"

let test_protocol_pipelined_and_partial () =
  let wire =
    Protocol.encode (Protocol.Request { id = 1; line = "a"; ctx = None })
    ^ Protocol.encode (Protocol.Request { id = 2; line = "b"; ctx = None })
  in
  (* deliver byte by byte: the reader must reassemble frames *)
  let bytes = List.init (String.length wire) (fun i -> String.make 1 wire.[i]) in
  let r = Protocol.reader (chunked_transport bytes) in
  (match Protocol.next_frame r with
  | Ok (Protocol.Request q) -> check int "first" 1 q.Protocol.id
  | _ -> Alcotest.fail "first frame");
  (match Protocol.next_frame r with
  | Ok (Protocol.Request q) -> check int "second" 2 q.Protocol.id
  | _ -> Alcotest.fail "second frame");
  check int "consumed everything" (String.length wire) (Protocol.bytes_consumed r)

let test_protocol_corruption () =
  let wire =
    Bytes.of_string (Protocol.encode (Protocol.Request { id = 3; line = "stats"; ctx = None }))
  in
  (* flip a payload byte: the CRC must catch it *)
  let last = Bytes.length wire - 1 in
  Bytes.set wire last (Char.chr (Char.code (Bytes.get wire last) lxor 0xff));
  let r = Protocol.reader (chunked_transport [ Bytes.to_string wire ]) in
  (match Protocol.next_frame r with
  | Error (`Corrupt reason) -> check bool "checksum" true (contains "checksum" reason)
  | _ -> Alcotest.fail "corruption undetected");
  (* truncated frame *)
  let wire = Protocol.encode (Protocol.Request { id = 4; line = "stats"; ctx = None }) in
  let r =
    Protocol.reader (chunked_transport [ String.sub wire 0 (String.length wire - 2) ])
  in
  match Protocol.next_frame r with
  | Error (`Corrupt _) -> ()
  | _ -> Alcotest.fail "truncation undetected"

(* the one decoder behind both entry points — [feed] on caller-read
   chunks, [next_frame] refilling 4 KiB at a time — must recover the
   frames however the stream is cut, compacting as it goes *)
let prop_decoders_any_chunking =
  QCheck.Test.make ~name:"frames survive any chunking (feed and reader)"
    ~count:100
    QCheck.(
      pair
        (list_of_size (Gen.int_range 1 20)
           (pair small_nat (string_gen_of_size (Gen.int_range 0 900) Gen.printable)))
        (list_of_size (Gen.int_range 1 8) (int_range 1 700)))
    (fun (reqs, cuts) ->
      let frames =
        List.map (fun (id, line) -> Protocol.Request { id; line; ctx = None }) reqs
      in
      let wire = String.concat "" (List.map Protocol.encode frames) in
      let rec split pos cs acc =
        if pos >= String.length wire then List.rev acc
        else
          let n = min (List.hd cs) (String.length wire - pos) in
          split (pos + n) (List.tl cs @ [ List.hd cs ]) (String.sub wire pos n :: acc)
      in
      let chunks = split 0 cuts [] in
      let f = Protocol.feeder () in
      let fed =
        List.concat_map
          (fun c ->
            match Protocol.feed f (Bytes.of_string c) (String.length c) with
            | Ok fs -> fs
            | Error e -> failwith e)
          chunks
      in
      let r = Protocol.reader (chunked_transport chunks) in
      let rec read acc =
        match Protocol.next_frame r with
        | Ok fr -> read (fr :: acc)
        | Error `Eof -> List.rev acc
        | Error (`Corrupt e) -> failwith e
      in
      fed = frames && read [] = frames)

(* scheduler ------------------------------------------------------------- *)

let test_scheduler_classify () =
  List.iter
    (fun line -> check bool line true (Server.Scheduler.classify line = `Write))
    [ "run DecNormalize Normalizer relation=X"; "map"; "normalize"; "key";
      "minutes"; "resolve"; "load f" ];
  List.iter
    (fun line -> check bool line true (Server.Scheduler.classify line = `Read))
    [ "stats"; "focus Papers"; "why X"; "check"; "ask p"; "metrics" ];
  (* the daemon looks up the line Shell.resolve made explicit, so a bare
     form reaches the cache only when the session has no cursor, whose
     answer is the same error in every session *)
  check bool "why X cacheable" true (Server.Scheduler.cacheable "why X");
  check bool "bare why cacheable" true (Server.Scheduler.cacheable "why");
  check bool "stats cacheable" true (Server.Scheduler.cacheable "stats");
  (* a hit replays the cursor move through Shell.observe *)
  check bool "focus cacheable" true (Server.Scheduler.cacheable "focus X");
  check bool "config cacheable" true (Server.Scheduler.cacheable "config X");
  check bool "save not cacheable" false (Server.Scheduler.cacheable "save f");
  check bool "news not cacheable" false (Server.Scheduler.cacheable "news")

(* cache ----------------------------------------------------------------- *)

let test_cache_versioning () =
  let c = Server.Cache.create ~capacity:8 () in
  check bool "miss" true (Server.Cache.find c ~version:1 "stats" = None);
  Server.Cache.store c ~version:1 "stats" "s1";
  check bool "hit" true (Server.Cache.find c ~version:1 "stats" = Some "s1");
  (* a newer version invalidates the whole generation *)
  check bool "newer version misses" true (Server.Cache.find c ~version:2 "stats" = None);
  check bool "old entry gone" true (Server.Cache.find c ~version:2 "stats" = None);
  Server.Cache.store c ~version:2 "stats" "s2";
  check bool "new generation hit" true
    (Server.Cache.find c ~version:2 "stats" = Some "s2");
  (* a stale computation must not be stored over a newer generation *)
  Server.Cache.store c ~version:1 "stats" "stale";
  check bool "stale store dropped" true
    (Server.Cache.find c ~version:2 "stats" = Some "s2");
  let st = Server.Cache.stats c in
  check bool "invalidations counted" true (st.Server.Cache.invalidations >= 1);
  check bool "hits counted" true (st.Server.Cache.hits >= 2)

let test_cache_capacity () =
  let c = Server.Cache.create ~capacity:2 () in
  Server.Cache.store c ~version:1 "a" "1";
  Server.Cache.store c ~version:1 "b" "2";
  Server.Cache.store c ~version:1 "c" "3";
  let st = Server.Cache.stats c in
  check bool "bounded" true (st.Server.Cache.entries <= 2);
  check bool "eviction counted" true (st.Server.Cache.evictions >= 1)

(* metrics ---------------------------------------------------------------- *)

module Reg = Obs.Registry

let command_calls cmd =
  let labels = [ ("cmd", cmd) ] in
  match Reg.find Reg.default ~labels "gkbms_server_command_us" with
  | Some { Reg.value = Reg.Histogram_v h; _ } -> h.Obs.Histogram.total
  | _ -> 0

let counter ?labels name =
  match Reg.find Reg.default ?labels name with
  | Some { Reg.value = Reg.Counter_v n; _ } -> Some n
  | _ -> None

let command_errors cmd =
  counter ~labels:[ ("cmd", cmd) ] "gkbms_server_command_errors_total"

(* A daemon accounts every answered request on the process-wide
   registry, under its verb: the latency histogram counts calls, the
   error counter (registered with the histogram, at zero) counts error
   answers; bytes and sessions have their own counters, and the
   [metrics] report carries them all in its registry dump. *)
let test_metrics () =
  let total name = Option.value (counter name) ~default:0 in
  let errors cmd = Option.value (command_errors cmd) ~default:0 in
  let repo = keyed_repo ~docs:1 () in
  let daemon = Daemon.create repo in
  let stats0 = command_calls "stats" and stats_err0 = errors "stats" in
  let run0 = command_calls "run" and run_err0 = errors "run" in
  let opened0 = total "gkbms_server_sessions_opened_total" in
  let in0 = total "gkbms_server_bytes_in_total" in
  let out0 = total "gkbms_server_bytes_out_total" in
  let client = Client.of_transport (Daemon.connect daemon) in
  ignore (req_ok client "stats");
  check bool "stats with an operand is an error" true
    (Result.is_error (Client.request client "stats extra"));
  ignore (req_ok client "run DecManualEdit Editor object=Doc0 text=v1");
  ignore (req_ok client "version");
  check int "stats calls" (stats0 + 2) (command_calls "stats");
  check int "stats errors" (stats_err0 + 1) (errors "stats");
  check int "run calls" (run0 + 1) (command_calls "run");
  check int "run errors" run_err0 (errors "run");
  check (Alcotest.option int) "error counter registered at zero" (Some 0)
    (command_errors "version");
  let report = req_ok client "metrics" in
  List.iter
    (fun needle ->
      check bool ("metrics shows " ^ needle) true (contains needle report))
    [
      "cache: "; "repository version: "; "-- registry --";
      "gkbms_server_command_us{cmd=stats}";
      "gkbms_server_command_errors_total{cmd=run}";
    ];
  check bool "session opened" true
    (total "gkbms_server_sessions_opened_total" > opened0);
  check bool "bytes in" true (total "gkbms_server_bytes_in_total" > in0);
  check bool "bytes out" true (total "gkbms_server_bytes_out_total" > out0);
  Client.close client;
  Daemon.stop daemon

(* A client cannot mint series: every verb outside the scheduler's
   table is accounted as cmd="other".  Only the first unknown verb may
   register series; a breach counter registers on a request's first
   breach, which timing decides, so it is left out of the count. *)
let test_unknown_verbs_bounded () =
  let keys () =
    List.filter_map
      (fun (s : Reg.sample) ->
        if s.Reg.name = "gkbms_slo_breaches_total" then None
        else Some (s.Reg.name, s.Reg.labels))
      (Reg.snapshot Reg.default)
  in
  let repo = keyed_repo () in
  let daemon = Daemon.create repo in
  let client = Client.of_transport (Daemon.connect daemon) in
  ignore (Client.request client "warmupverb");
  let before = keys () in
  for i = 1 to 500 do
    match Client.request client (Printf.sprintf "mintedverb%d" i) with
    | Error e ->
      check bool "unknown verb refused" true (contains "unknown command" e)
    | Ok _ -> Alcotest.fail "an unknown verb was answered"
  done;
  let after = keys () in
  Client.close client;
  Daemon.stop daemon;
  check int "no series added" (List.length before) (List.length after);
  let minted v = contains "mintedverb" v || contains "warmupverb" v in
  check bool "no label names a minted verb" false
    (List.exists (fun (_, labels) -> List.exists (fun (_, v) -> minted v) labels) after);
  check bool "unknown verbs counted as other" true (command_calls "other" >= 501)

(* end-to-end over an in-process connection -------------------------------- *)

let test_in_process_session () =
  let repo = keyed_repo ~docs:1 () in
  let daemon = Daemon.create repo in
  let client = Client.of_transport (Daemon.connect daemon) in
  check string "ping" "pong" (req_ok client "ping");
  check bool "stats" true (contains "propositions" (req_ok client "stats"));
  let v0 = int_of_string (req_ok client "version") in
  (* a cacheable read twice: second one must hit *)
  ignore (req_ok client "stats");
  ignore (req_ok client "stats");
  let cs = Option.get (Daemon.cache_stats daemon) in
  check bool "cache hits" true (cs.Server.Cache.hits >= 1);
  (* a write bumps the version and lands in the news feed *)
  let out = req_ok client "run DecManualEdit Editor object=Doc0 text=v1" in
  check bool "write ok" true (contains "run executed" out);
  let v1 = int_of_string (req_ok client "version") in
  check bool "version bumped" true (v1 > v0);
  check bool "news" true (contains "committed" (req_ok client "news"));
  check string "news drained" "no news." (req_ok client "news");
  (* errors come back as error responses, not disconnects *)
  (match Client.request client "frobnicate" with
  | Error e -> check bool "error payload" true (contains "unknown command" e)
  | Ok _ -> Alcotest.fail "expected an error response");
  let m = req_ok client "metrics" in
  check bool "metrics has commands" true (contains "ping" m);
  check bool "metrics has cache" true (contains "cache:" m);
  Client.close client;
  (* the session drains and deregisters *)
  let rec wait n =
    if n > 0 && Daemon.session_count daemon > 0 then (
      Thread.delay 0.01;
      wait (n - 1))
  in
  wait 100;
  check int "sessions drained" 0 (Daemon.session_count daemon);
  Daemon.stop daemon

(* focus and config through the response cache: the key is the line
   Shell.resolve makes explicit, and a hit moves the session's cursor
   or level as a computed answer does *)
let test_cache_answers_focus_and_config () =
  let repo = keyed_repo ~docs:1 () in
  let daemon = Daemon.create repo in
  let a = Client.of_transport (Daemon.connect daemon) in
  let b = Client.of_transport (Daemon.connect daemon) in
  let stats () = Option.get (Daemon.cache_stats daemon) in
  let focus = req_ok a "focus InvitationRel3" in
  let h0 = (stats ()).Server.Cache.hits in
  check string "the hit answers as the computation did" focus
    (req_ok b "focus InvitationRel3");
  check int "a repeated focus is a hit" (h0 + 1) (stats ()).Server.Cache.hits;
  (* the hit moved b's cursor: a bare menu answers for the focus *)
  check string "bare menu after a hit" (req_ok a "menu InvitationRel3")
    (req_ok b "menu");
  (match Client.request b "focus NoSuchObject" with
  | Error e -> check bool "unknown object" true (contains "no object NoSuchObject" e)
  | Ok _ -> Alcotest.fail "focus on an unknown object answered");
  check string "an error leaves the cursor" focus (req_ok b "focus");
  (* a commit in between makes the next focus a miss *)
  ignore (req_ok a "run DecManualEdit Editor object=Doc0 text=v1");
  let m0 = (stats ()).Server.Cache.misses in
  check string "recomputed after the commit" focus (req_ok b "focus InvitationRel3");
  check int "a commit invalidates" (m0 + 1) (stats ()).Server.Cache.misses;
  (* bare config is config at the session's level *)
  let config = req_ok a "config DBPL_Object" in
  let h1 = (stats ()).Server.Cache.hits in
  check string "bare config" config (req_ok a "config");
  check int "bare config is a hit" (h1 + 1) (stats ()).Server.Cache.hits;
  Client.close a;
  Client.close b;
  Daemon.stop daemon

(* the daemon records news through one listener: sessions add none,
   and [stop] removes it *)
let test_session_listener_leak () =
  let repo = keyed_repo () in
  let before = Repo.event_listener_count repo in
  let daemon = Daemon.create repo in
  let idle = Repo.event_listener_count repo in
  let clients =
    List.init 3 (fun _ -> Client.of_transport (Daemon.connect daemon))
  in
  List.iter (fun c -> ignore (req_ok c "ping")) clients;
  check int "sessions add no listener" idle (Repo.event_listener_count repo);
  List.iter Client.close clients;
  Daemon.stop daemon;
  check int "listeners detached" before (Repo.event_listener_count repo)

(* [n] edits of Doc0 from one pipelining client, all acked *)
let commit_edits client n =
  List.iter
    (fun r -> ignore (ok r))
    (Client.pipeline ~window:64 client
       (List.init n (Printf.sprintf "run DecManualEdit Editor object=Doc0 text=v%d")))

(* What closing 4 idle sessions frees after [commits] commits by a fifth:
   only the sessions' own state, however long the history they
   watched. *)
let idle_sessions_hold ~commits =
  let daemon = Daemon.create (keyed_repo ~docs:1 ()) in
  let writer = Client.of_transport (Daemon.connect daemon) in
  let idle = List.init 4 (fun _ -> Client.of_transport (Daemon.connect daemon)) in
  List.iter (fun c -> ignore (req_ok c "ping")) (writer :: idle);
  commit_edits writer commits;
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let held = live () in
  List.iter Client.close idle;
  let rec wait n =
    if n > 0 && Daemon.session_count daemon > 1 then (
      Thread.delay 0.01;
      wait (n - 1))
  in
  wait 500;
  let freed = held - live () in
  Client.close writer;
  Daemon.stop daemon;
  freed

let test_idle_sessions_bounded () =
  let small = idle_sessions_hold ~commits:500 in
  let large = idle_sessions_hold ~commits:4000 in
  let bytes_per_session_commit =
    float_of_int ((large - small) * (Sys.word_size / 8)) /. (4. *. 3500.)
  in
  if bytes_per_session_commit >= 8. then
    Alcotest.failf
      "closing 4 idle sessions freed %d words after 500 commits, %d after \
       4,000: %.1f B per session per commit"
      small large bytes_per_session_commit

(* a session that fell more than 4,096 lines behind reads how many it
   missed, then the last 4,096 *)
let test_news_overflow () =
  let daemon = Daemon.create (keyed_repo ~docs:1 ()) in
  let writer = Client.of_transport (Daemon.connect daemon) in
  let reader = Client.of_transport (Daemon.connect daemon) in
  ignore (req_ok reader "ping");
  commit_edits writer 4100;
  (match String.split_on_char '\n' (req_ok reader "news") with
  | first :: lines ->
    check string "overflow line" "(4 earlier events not shown)" first;
    check int "the last 4,096 lines" 4096 (List.length lines);
    check bool "committed lines" true
      (List.for_all (String.starts_with ~prefix:"committed ") lines)
  | [] -> Alcotest.fail "empty news");
  check string "then nothing" "no news." (req_ok reader "news");
  check bool "the writer's news overflowed too" true
    (String.starts_with ~prefix:"(4 earlier" (req_ok writer "news"));
  Client.close writer;
  Client.close reader;
  Daemon.stop daemon

(* With commits held, a session reads at most one request past its 64
   unacknowledged writes; once they commit, every write is acked, in
   order. *)
let test_pipelined_writes_bounded () =
  let daemon = Daemon.create (keyed_repo ~docs:1 ()) in
  let conn = Daemon.connect daemon in
  let g0 = inflight () in
  with_commits_held daemon (fun () ->
      for id = 1 to 200 do
        let line =
          Printf.sprintf "run DecManualEdit Editor object=Doc0 text=v%d" id
        in
        ignore
          (Protocol.write_frame conn (Protocol.Request { id; line; ctx = None }))
      done;
      check int "one request past 64 unacked writes" 65 (inflight_rise ~g0 65));
  let r = Protocol.reader conn in
  let acked =
    List.init 200 (fun _ ->
        match Protocol.next_frame r with
        | Ok (Protocol.Response { id; ok = true; _ }) -> id
        | _ -> Alcotest.fail "a write was not acked")
  in
  check Alcotest.(list int) "acked in order" (List.init 200 succ) acked;
  conn.Protocol.close ();
  Daemon.stop daemon

(* With commits held, a client asking for a 200-wide window keeps the
   server's limit of requests in flight, not one more. *)
let test_client_window_capped () =
  let daemon = Daemon.create (keyed_repo ~docs:1 ()) in
  let client = Client.of_transport (Daemon.connect daemon) in
  let writes =
    List.init 200 (Printf.sprintf "run DecManualEdit Editor object=Doc0 text=v%d")
  in
  let results = ref [] and pipeliner = ref None in
  let g0 = inflight () in
  with_commits_held daemon (fun () ->
      pipeliner :=
        Some
          (Thread.create
             (fun () -> results := Client.pipeline ~window:200 client writes)
             ());
      check int "window capped at the limit" Protocol.pipeline_limit
        (inflight_rise ~g0 Protocol.pipeline_limit));
  Option.iter Thread.join !pipeliner;
  check int "every write acked" 200
    (List.length (List.filter Result.is_ok !results));
  Client.close client;
  Daemon.stop daemon

(* A client pipelining a burst of writes over a Unix socket with a
   window as wide as the burst (capped at the server's limit): every
   write is acked.  A client that wrote past the limit before reading
   would fill both socket buffers while its session waited for acks
   the flusher could not deliver; the socket timeouts turn such a stall
   into a failed write instead of a hung test. *)
let test_wide_window_over_socket () =
  let n = 2_000 and docs = 8 in
  let daemon = Daemon.create (keyed_repo ~docs ()) in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float a Unix.SO_SNDTIMEO 30.;
  Unix.setsockopt_float a Unix.SO_RCVTIMEO 30.;
  let handler =
    Thread.create (fun () -> Daemon.handle daemon (Protocol.fd_transport b)) ()
  in
  let client = Client.of_transport (Protocol.fd_transport a) in
  let writes =
    List.init n (fun i ->
        Printf.sprintf "run DecManualEdit Editor object=Doc%d text=w%d"
          (i mod docs) i)
  in
  let results = Client.pipeline ~window:n client writes in
  Client.close client;
  Thread.join handler;
  Daemon.stop daemon;
  check int "every write acked" n
    (List.length
       (List.filter
          (function Ok out -> contains "run executed" out | Error _ -> false)
          results))

(* A reply larger than the socket buffers, pipelined ahead of writes
   that outgrow them too, within the window: the session blocks sending
   the reply and reads nothing meanwhile, so the client must read while
   it writes.  Small send buffers make a few kilobytes enough. *)
let test_large_reply_over_socket () =
  let repo = keyed_repo ~docs:8 () in
  ignore
    (ok
       (Repo.new_object repo ~name:"BigDoc" ~cls:Gkbms.Metamodel.dbpl_object
          (Repo.Text (String.make 200_000 'x'))));
  let daemon = Daemon.create repo in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  List.iter (fun fd -> Unix.setsockopt_int fd Unix.SO_SNDBUF 8192) [ a; b ];
  Unix.setsockopt_float a Unix.SO_SNDTIMEO 30.;
  Unix.setsockopt_float a Unix.SO_RCVTIMEO 30.;
  let handler =
    Thread.create (fun () -> Daemon.handle daemon (Protocol.fd_transport b)) ()
  in
  let client = Client.of_transport (Protocol.fd_transport a) in
  let text = String.make 3_000 'y' in
  let writes =
    List.init 32 (fun i ->
        Printf.sprintf "run DecManualEdit Editor object=Doc%d text=%s%d"
          (i mod 8) text i)
  in
  let results = Client.pipeline ~window:33 client ("source BigDoc" :: writes) in
  Client.close client;
  Thread.join handler;
  Daemon.stop daemon;
  match results with
  | Ok source :: acks ->
    check int "the large reply" 200_000 (String.length source);
    check int "every write acked" 32
      (List.length
         (List.filter
            (function Ok out -> contains "run executed" out | Error _ -> false)
            acks))
  | Error e :: _ -> Alcotest.failf "source BigDoc failed: %s" e
  | [] -> Alcotest.fail "no responses"

let test_idle_timeout () =
  let repo = keyed_repo () in
  let daemon =
    Daemon.create
      ~config:{ Daemon.default_config with idle_timeout = Some 0.05 }
      repo
  in
  let client = Client.of_transport (Daemon.connect daemon) in
  check string "alive" "pong" (req_ok client "ping");
  let rec wait n =
    if n > 0 && Daemon.session_count daemon > 0 then (
      Thread.delay 0.05;
      wait (n - 1))
  in
  wait 40;
  check int "idle session reaped" 0 (Daemon.session_count daemon);
  (match Client.request client "ping" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request succeeded on a reaped session");
  Daemon.stop daemon

(* Idle means waiting on the socket: with a 50 ms idle timeout, a read
   that waits 300 ms for the repository lock is still answered. *)
let test_busy_session_not_idle () =
  let daemon =
    Daemon.create
      ~config:{ Daemon.default_config with idle_timeout = Some 0.05 }
      (keyed_repo ())
  in
  let holding = Atomic.make false in
  let g0 = inflight () in
  let holder =
    Thread.create
      (fun () ->
        Daemon.exclusive daemon (fun () ->
            Atomic.set holding true;
            (* hold on for 300 ms after the session has read the request *)
            ignore (inflight_rise ~g0 1);
            Thread.delay 0.3))
      ()
  in
  while not (Atomic.get holding) do
    Thread.delay 0.001
  done;
  let client = Client.of_transport (Daemon.connect daemon) in
  let t0 = Unix.gettimeofday () in
  let answer = Client.request client "stats" in
  let waited = Unix.gettimeofday () -. t0 in
  Thread.join holder;
  (match answer with
  | Ok out -> check bool "stats answered" true (contains "propositions" out)
  | Error e -> Alcotest.failf "stats failed after %.0f ms: %s" (waited *. 1e3) e);
  check bool "it waited for the lock" true (waited >= 0.3);
  Client.close client;
  Daemon.stop daemon

(* A client that never reads a multi-megabyte reply: once the socket
   buffers fill, the session's send makes no progress, and the send
   timeout ends the session within a few idle timeouts. *)
let test_unread_reply_ends_session () =
  let repo = keyed_repo () in
  ignore
    (ok
       (Repo.new_object repo ~name:"BigDoc" ~cls:Gkbms.Metamodel.dbpl_object
          (Repo.Text (String.make 4_000_000 'x'))));
  let timeout = 0.2 in
  let daemon =
    Daemon.create
      ~config:{ Daemon.default_config with idle_timeout = Some timeout }
      repo
  in
  let conn = Daemon.connect daemon in
  check string "alive" "pong" (req_ok (Client.of_transport conn) "ping");
  let t0 = Unix.gettimeofday () in
  ignore
    (Protocol.write_frame conn
       (Protocol.Request { id = 2; line = "source BigDoc"; ctx = None }));
  let rec wait n =
    if n > 0 && Daemon.session_count daemon > 0 then (
      Thread.delay 0.01;
      wait (n - 1))
  in
  wait 1000;
  let took = Unix.gettimeofday () -. t0 in
  check int "session ended" 0 (Daemon.session_count daemon);
  if took > 10. *. timeout then
    Alcotest.failf "the session outlived its %.1f s idle timeout by %.1f s"
      timeout (took -. timeout);
  conn.Protocol.close ();
  Daemon.stop daemon

let test_abrupt_disconnect () =
  let repo = keyed_repo () in
  let daemon = Daemon.create repo in
  let transport = Daemon.connect daemon in
  ignore (Protocol.write_frame transport (Protocol.Request { id = 1; line = "stats"; ctx = None }));
  (* drop the connection without a quit *)
  transport.Protocol.close ();
  let rec wait n =
    if n > 0 && Daemon.session_count daemon > 0 then (
      Thread.delay 0.01;
      wait (n - 1))
  in
  wait 100;
  check int "session cleaned up" 0 (Daemon.session_count daemon);
  (* the server still accepts new sessions *)
  let client = Client.of_transport (Daemon.connect daemon) in
  check string "still serving" "pong" (req_ok client "ping");
  Client.close client;
  Daemon.stop daemon

(* connection churn must not grow the daemon's thread bookkeeping *)
let test_worker_handles_dropped () =
  let repo = keyed_repo () in
  let daemon = Daemon.create repo in
  let settle live =
    let rec wait n =
      if n > 0 && Daemon.session_count daemon > live then (
        Thread.delay 0.01;
        wait (n - 1))
    in
    wait 500
  in
  let resident = List.init 3 (fun _ -> Client.of_transport (Daemon.connect daemon)) in
  List.iter (fun c -> ignore (req_ok c "ping")) resident;
  for _ = 1 to 500 do
    let client = Client.of_transport (Daemon.connect daemon) in
    ignore (req_ok client "ping");
    Client.close client
  done;
  settle 3;
  check int "resident sessions" 3 (Daemon.session_count daemon);
  check bool "no more handles than live sessions" true
    (Daemon.worker_count daemon <= Daemon.session_count daemon);
  List.iter Client.close resident;
  settle 0;
  check int "all handles dropped" 0 (Daemon.worker_count daemon);
  Daemon.stop daemon

(* end-to-end over a real Unix-domain socket ------------------------------ *)

(* serve [daemon] on a fresh Unix socket for the duration of [f] *)
let with_socket daemon f =
  let path = Filename.temp_file "gkbms_gc_srv" ".sock" in
  Sys.remove path;
  let listener =
    Thread.create (fun () -> ignore (Daemon.listen daemon ~path)) ()
  in
  let rec wait_sock n =
    if n > 0 && not (Sys.file_exists path) then (
      Thread.delay 0.01;
      wait_sock (n - 1))
  in
  wait_sock 200;
  f path;
  Daemon.stop daemon;
  Thread.join listener;
  check bool "socket unlinked" false (Sys.file_exists path)

let test_unix_socket () =
  let repo = keyed_repo ~docs:1 () in
  let daemon = Daemon.create repo in
  with_socket daemon (fun path ->
      let client = ok (Client.connect_unix path) in
      check string "ping over socket" "pong" (req_ok client "ping");
      check bool "write over socket" true
        (contains "run executed"
           (req_ok client "run DecManualEdit Editor object=Doc0 text=v1"));
      Client.close client)

(* A signal handler runs on whichever thread reaches a poll point, the
   daemon's own included: [interrupt] from a connection thread that holds
   the repository lock makes [listen] return, and [stop] from another
   thread then completes. *)
let test_interrupt_from_daemon_thread () =
  let daemon = Daemon.create (keyed_repo ()) in
  Daemon.set_extension daemon (function
    | "halt" ->
      Some
        (Daemon.exclusive daemon (fun () ->
             Daemon.interrupt daemon;
             "halting"))
    | _ -> None);
  let path = Filename.temp_file "gkbms_int_srv" ".sock" in
  Sys.remove path;
  let listened = Atomic.make None in
  let listener =
    Thread.create (fun () -> Atomic.set listened (Some (Daemon.listen daemon ~path))) ()
  in
  let within seconds cond =
    let rec go n = cond () || (n > 0 && (Thread.delay 0.01; go (n - 1))) in
    go (int_of_float (seconds *. 100.))
  in
  check bool "listening" true (within 10. (fun () -> Sys.file_exists path));
  let client = ok (Client.connect_unix path) in
  check string "halt answered" "halting" (req_ok client "halt");
  if not (within 10. (fun () -> Atomic.get listened <> None)) then
    Alcotest.fail "listen did not return within 10 s of the interrupt";
  Thread.join listener;
  check bool "listen returned Ok" true (Atomic.get listened = Some (Ok ()));
  let stopped = Atomic.make false in
  let stopper =
    Thread.create
      (fun () ->
        Daemon.stop daemon;
        Atomic.set stopped true)
      ()
  in
  if not (within 10. (fun () -> Atomic.get stopped)) then
    Alcotest.fail "stop did not complete within 10 s";
  Thread.join stopper;
  check bool "socket unlinked" false (Sys.file_exists path);
  Client.close client

(* WAL-backed server ------------------------------------------------------ *)

let test_wal_recovery () =
  let dir = Scratch.temp_dir () in
  let repo = keyed_repo ~docs:1 () in
  let decisions_before = List.length (Repo.decision_log repo) in
  let daemon = Daemon.create repo in
  ok (Daemon.attach_wal daemon ~dir);
  let client = Client.of_transport (Daemon.connect daemon) in
  check bool "journaled write" true
    (contains "run executed" (req_ok client "run DecManualEdit Editor object=Doc0 text=v1"));
  (* the WAL is synced before the response, so the decision is already
     durable here even if the process dies without Daemon.stop *)
  let recovered, _report = ok (Gkbms.Durable.recover ~dir ()) in
  check int "committed decision recovered without shutdown"
    (decisions_before + 1)
    (List.length (Repo.decision_log recovered));
  Client.close client;
  Daemon.stop daemon;
  Scratch.rm_rf dir

(* the concurrency differential test -------------------------------------- *)

(* normalize generated names (fresh proposition ids, decision counters)
   that legitimately differ between two runs with the same history *)
let normalize_name n =
  let numeric_suffix prefix =
    String.length n > String.length prefix
    && String.sub n 0 (String.length prefix) = prefix
    && String.for_all
         (fun c -> c >= '0' && c <= '9')
         (String.sub n (String.length prefix) (String.length n - String.length prefix))
  in
  if numeric_suffix "p" then "_p"
  else if numeric_suffix "dec" then "_dec"
  else n

let digest repo ~docs =
  let base = Cml.Kb.base (Repo.kb repo) in
  let triples =
    Store.Base.fold base
      (fun acc p ->
        (normalize_name (Sym.name p.Kernel.Prop.source),
         normalize_name (Sym.name p.Kernel.Prop.label),
         normalize_name (Sym.name p.Kernel.Prop.dest))
        :: acc)
      []
    |> List.sort compare
  in
  let decision_classes =
    List.map (fun (_, dc) -> dc) (Gkbms.Navigation.browse_process repo)
  in
  let chains =
    List.init docs (fun i ->
        List.map Sym.name
          (Gkbms.Version.version_chain repo (Sym.intern (Printf.sprintf "Doc%d" i))))
  in
  let tips =
    List.init docs (fun i ->
        match
          List.rev
            (Gkbms.Version.version_chain repo (Sym.intern (Printf.sprintf "Doc%d" i)))
        with
        | tip :: _ -> Option.value ~default:"" (Repo.source_text repo tip)
        | [] -> "")
  in
  let unsupported =
    List.map Sym.name (Gkbms.Backtrack.unsupported_objects repo)
    |> List.sort compare
  in
  (triples, decision_classes, chains, tips, unsupported)

(* recover the server's commit order from the decision rationales and
   replay it sequentially through a plain Shell on an identical seed;
   the two repositories must then be indistinguishable *)
let replay_and_compare repo ~docs ~writes =
  let shell_lines =
    List.filter_map
      (fun dec ->
        match Gkbms.Decision.rationale_of repo dec with
        | Some r when String.length r > 7 && String.sub r 0 7 = "shell: " ->
          Some (String.sub r 7 (String.length r - 7))
        | _ -> None)
      (Repo.decision_log repo)
  in
  check int "server committed all writes" writes (List.length shell_lines);
  let repo_seq = keyed_repo ~docs () in
  let shell = Gkbms.Shell.of_repository repo_seq in
  List.iter
    (fun line ->
      let out = Gkbms.Shell.eval shell line in
      if contains "error" out then
        Alcotest.failf "sequential replay failed on %S: %s" line out)
    shell_lines;
  let d_server = digest repo ~docs and d_seq = digest repo_seq ~docs in
  let t1, dc1, ch1, tip1, u1 = d_server and t2, dc2, ch2, tip2, u2 = d_seq in
  check int "same proposition count" (List.length t2) (List.length t1);
  check bool "same proposition triples" true (t1 = t2);
  check bool "same decision classes" true (dc1 = dc2);
  check bool "same version chains" true (ch1 = ch2);
  check bool "same artifact tips" true (tip1 = tip2);
  check bool "same unsupported objects" true (u1 = u2)

let differential ~cache () =
  let docs = 3 in
  let repo = keyed_repo ~docs () in
  let daemon =
    Daemon.create ~config:{ Daemon.default_config with cache } repo
  in
  let reads =
    [| "stats"; "check"; "focus InvitationRel3"; "derive in(InvitationRel, ?C)" |]
  in
  (* commuting writes: each client grows its own document's version chain *)
  let client_thread ci =
    let client = Client.of_transport (Daemon.connect daemon) in
    let tip = ref (Printf.sprintf "Doc%d" ci) in
    for k = 1 to 4 do
      ignore (req_ok client reads.((ci + k) mod Array.length reads));
      let resp =
        req_ok client
          (Printf.sprintf "run DecManualEdit Editor object=%s text=c%dk%d" !tip ci k)
      in
      (match String.rindex_opt resp '>' with
      | Some i when i + 1 < String.length resp ->
        tip := String.trim (String.sub resp (i + 1) (String.length resp - i - 1))
      | _ -> Alcotest.failf "unparseable run response: %s" resp);
      ignore (req_ok client reads.(k mod Array.length reads))
    done;
    Client.close client
  in
  let threads = List.init docs (fun ci -> Thread.create client_thread ci) in
  List.iter Thread.join threads;
  Daemon.stop daemon;
  replay_and_compare repo ~docs ~writes:(docs * 4)

let test_differential_cached () = differential ~cache:true ()
let test_differential_uncached () = differential ~cache:false ()

(* verb classification table ---------------------------------------------- *)

let test_classification_table () =
  (* every verb the shell dispatches on, plus the daemon's built-ins,
     must have an explicit entry in the scheduler's table — no verb may
     reach the unknown-verb fallback *)
  let daemon_verbs = [ "metrics"; "news"; "ping"; "version" ] in
  List.iter
    (fun v ->
      check bool ("explicitly classified: " ^ v) true
        (List.mem v Server.Scheduler.known_verbs))
    (Gkbms.Shell.verbs @ daemon_verbs);
  (* a cacheable command must be a read: caching a write would skip it *)
  List.iter
    (fun v ->
      if Server.Scheduler.cacheable v then
        check bool ("cacheable implies read: " ^ v) true
          (Server.Scheduler.classify v = `Read))
    Server.Scheduler.known_verbs;
  (* the write set is exactly the decision-committing verbs *)
  let writes =
    List.filter
      (fun v -> Server.Scheduler.classify v = `Write)
      Server.Scheduler.known_verbs
  in
  check
    Alcotest.(slist string compare)
    "write verbs"
    [ "run"; "map"; "normalize"; "key"; "minutes"; "resolve"; "load" ]
    writes

let test_batch_admission_model () =
  (* racing submitters against the single drainer: every accepted item
     comes out exactly once, in per-submitter FIFO order, and no drained
     batch exceeds [max] — the invariants group commit acks rely on *)
  let b = Server.Scheduler.Batch.create ~max:7 ~window_us:200 in
  let producers = 3 and per_producer = 200 in
  let accepted = Array.make producers [] in
  let batches = ref [] in
  let drainer =
    Thread.create
      (fun () ->
        let continue_ = ref true in
        while !continue_ do
          match Server.Scheduler.Batch.drain b with
          | [] -> continue_ := false
          | xs -> batches := xs :: !batches
        done)
      ()
  in
  let submitters =
    List.init producers (fun i ->
        Thread.create
          (fun () ->
            for k = 0 to per_producer - 1 do
              let v = (i * 1000) + k in
              if Server.Scheduler.Batch.submit b v then
                accepted.(i) <- v :: accepted.(i);
              if k mod 17 = 0 then Thread.yield ()
            done)
          ())
  in
  List.iter Thread.join submitters;
  Server.Scheduler.Batch.close b;
  Thread.join drainer;
  check bool "submit refused after close" false
    (Server.Scheduler.Batch.submit b (-1));
  List.iter
    (fun xs ->
      check bool "batch within max" true (List.length xs <= 7))
    !batches;
  let drained = List.concat (List.rev !batches) in
  let sent = List.sort compare (List.concat (Array.to_list accepted)) in
  check int "conserved count" (List.length sent) (List.length drained);
  check bool "conserved items" true (sent = List.sort compare drained);
  (* FIFO per submitter: each producer's items appear in send order *)
  for i = 0 to producers - 1 do
    let mine = List.filter (fun v -> v / 1000 = i) drained in
    check bool
      (Printf.sprintf "producer %d order preserved" i)
      true
      (mine = List.sort compare mine)
  done

(* group commit + pipelining ---------------------------------------------- *)

let counter_value name =
  match Obs.Registry.find Obs.Registry.default name with
  | Some { Obs.Registry.value = Obs.Registry.Counter_v n; _ } -> n
  | _ -> 0

let histogram_total name =
  match Obs.Registry.find Obs.Registry.default name with
  | Some { Obs.Registry.value = Obs.Registry.Histogram_v h; _ } ->
    h.Obs.Histogram.total
  | _ -> 0

let test_group_commit_shares_fsyncs () =
  let dir = Scratch.temp_dir () in
  let docs = 8 in
  let repo = keyed_repo ~docs () in
  let decisions_before = List.length (Repo.decision_log repo) in
  let daemon =
    Daemon.create
      ~config:
        { Daemon.default_config with
          wal_fsync = true;
          (* a wide window so the whole pipelined burst forms one batch *)
          group_commit = (docs, 50_000);
        }
      repo
  in
  ok (Daemon.attach_wal daemon ~dir);
  let client = Client.of_transport (Daemon.connect daemon) in
  check string "alive" "pong" (req_ok client "ping");
  let fsyncs0 = counter_value "gkbms_wal_fsyncs_total" in
  let batches0 = histogram_total "gkbms_group_commit_batch_size" in
  let writes =
    List.init docs (fun i ->
        Printf.sprintf "run DecManualEdit Editor object=Doc%d text=v1" i)
  in
  let results = Client.pipeline ~window:docs client writes in
  List.iter2
    (fun line r ->
      match r with
      | Ok out -> check bool line true (contains "run executed" out)
      | Error e -> Alcotest.failf "pipelined write %S failed: %s" line e)
    writes results;
  let fsyncs1 = counter_value "gkbms_wal_fsyncs_total" in
  let batches1 = histogram_total "gkbms_group_commit_batch_size" in
  check bool "fewer syncs than decisions" true (fsyncs1 - fsyncs0 < docs);
  check bool "batches observed" true
    (batches1 - batches0 >= 1 && batches1 - batches0 <= docs);
  (* a session reads its own pipelined writes *)
  check bool "news sees the writes" true
    (contains "committed" (req_ok client "news"));
  (* every acked decision is durable before its ack *)
  let recovered, _ = ok (Gkbms.Durable.recover ~dir ()) in
  check int "acked pipelined writes all recovered" (decisions_before + docs)
    (List.length (Repo.decision_log recovered));
  Client.close client;
  Daemon.stop daemon;
  Scratch.rm_rf dir;
  (* a lone blocking write on the default batch bounds is a batch of
     one: exactly one WAL sync, not a decision sync plus a batch sync *)
  let repo = keyed_repo ~docs:1 () in
  let daemon =
    Daemon.create ~config:{ Daemon.default_config with wal_fsync = true } repo
  in
  ok (Daemon.attach_wal daemon ~dir);
  let client = Client.of_transport (Daemon.connect daemon) in
  check string "alive" "pong" (req_ok client "ping");
  let fsyncs0 = counter_value "gkbms_wal_fsyncs_total" in
  check bool "lone write" true
    (contains "run executed"
       (req_ok client "run DecManualEdit Editor object=Doc0 text=v1"));
  check int "one sync for a lone write" 1
    (counter_value "gkbms_wal_fsyncs_total" - fsyncs0);
  Client.close client;
  Daemon.stop daemon;
  Scratch.rm_rf dir

(* the differential with pipelined clients, over in-process connections
   or a listening socket *)
let differential_grouped ~socket () =
  let docs = 3 in
  let repo = keyed_repo ~docs () in
  let daemon =
    Daemon.create
      ~config:{ Daemon.default_config with group_commit = (4, 300) }
      repo
  in
  let run_clients mk_client =
    let client_thread ci =
      let client = mk_client () in
      let tip = ref (Printf.sprintf "Doc%d" ci) in
      for k = 1 to 4 do
        let lines =
          [
            "stats";
            Printf.sprintf "run DecManualEdit Editor object=%s text=c%dk%d" !tip
              ci k;
            "version";
          ]
        in
        (match Client.pipeline ~window:3 client lines with
        | [ Ok _; Ok resp; Ok _ ] -> (
          match String.rindex_opt resp '>' with
          | Some i when i + 1 < String.length resp ->
            tip := String.trim (String.sub resp (i + 1) (String.length resp - i - 1))
          | _ -> Alcotest.failf "unparseable run response: %s" resp)
        | rs ->
          List.iter
            (function
              | Error e -> Alcotest.failf "pipelined request failed: %s" e
              | Ok _ -> ())
            rs;
          Alcotest.failf "expected 3 responses, got %d" (List.length rs))
      done;
      Client.close client
    in
    let threads = List.init docs (fun ci -> Thread.create client_thread ci) in
    List.iter Thread.join threads
  in
  if socket then
    with_socket daemon (fun path ->
        run_clients (fun () -> ok (Client.connect_unix ~handshake:true path)))
  else begin
    run_clients (fun () -> Client.of_transport (Daemon.connect daemon));
    Daemon.stop daemon
  end;
  replay_and_compare repo ~docs ~writes:(docs * 4)

let test_differential_grouped () = differential_grouped ~socket:false ()
let test_differential_socket () = differential_grouped ~socket:true ()

let test_socket_lifecycle () =
  let repo = keyed_repo ~docs:1 () in
  let listeners_before = Repo.event_listener_count repo in
  let daemon = Daemon.create repo in
  with_socket daemon (fun path ->
      let polite =
        List.init 2 (fun _ -> ok (Client.connect_unix ~handshake:true path))
      in
      (* the third client will disconnect abruptly: keep its transport *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.connect fd (Unix.ADDR_UNIX path);
      let abrupt = Protocol.fd_transport fd in
      List.iter
        (fun c -> check string "ping" "pong" (req_ok c "ping"))
        (Client.of_transport abrupt :: polite);
      let c0 = List.hd polite in
      check bool "write over socket" true
        (contains "run executed"
           (req_ok c0 "run DecManualEdit Editor object=Doc0 text=v1"));
      check bool "news over socket" true (contains "committed" (req_ok c0 "news"));
      (* no quit, and a response left unread: the session must still be
         reaped *)
      ignore
        (Protocol.write_frame abrupt
           (Protocol.Request { id = 99; line = "stats"; ctx = None }));
      abrupt.Protocol.close ();
      List.iter Client.close polite;
      let rec wait n =
        if n > 0 && Daemon.session_count daemon > 0 then (
          Thread.delay 0.02;
          wait (n - 1))
      in
      wait 200;
      check int "socket sessions drained" 0 (Daemon.session_count daemon));
  check int "event listeners detached" listeners_before
    (Repo.event_listener_count repo)

(* A connection served from a spawned domain: once it closes, the domain
   must be able to finish while the daemon keeps running.  The daemon's
   own thread, the write flusher, must not be spawned inside the domain
   — a thread pins the domain that created it. *)
let test_session_domain_finishes () =
  let repo = keyed_repo ~docs:1 () in
  let daemon =
    Daemon.create ~config:{ Daemon.default_config with idle_timeout = Some 60. } repo
  in
  let d =
    Domain.spawn (fun () ->
        let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        let handler =
          Thread.create (fun () -> Daemon.handle daemon (Protocol.fd_transport b)) ()
        in
        let client = Client.of_transport (Protocol.fd_transport a) in
        let out = req_ok client "run DecManualEdit Editor object=Doc0 text=v1" in
        Client.close client;
        Thread.join handler;
        out)
  in
  let joined = Atomic.make None in
  let joiner = Thread.create (fun () -> Atomic.set joined (Some (Domain.join d))) () in
  let rec wait n =
    if n > 0 && Atomic.get joined = None then (
      Thread.delay 0.01;
      wait (n - 1))
  in
  wait 500;
  let finished = Atomic.get joined in
  (* [stop] releases a pinned domain, so a failure cannot hang the suite *)
  Daemon.stop daemon;
  Thread.join joiner;
  match finished with
  | Some out -> check bool "write from the domain" true (contains "run executed" out)
  | None -> Alcotest.fail "the session's domain outlived its connection"

(* connect-time retry on reset-shaped errors ------------------------------ *)

let test_client_retry_once () =
  (* first attempt dies with ECONNRESET (a server restarting under us),
     the second succeeds *)
  let attempts = ref 0 in
  let v =
    Client.with_retry (fun () ->
        incr attempts;
        if !attempts = 1 then
          raise (Unix.Unix_error (Unix.ECONNRESET, "connect", ""))
        else 42)
  in
  check int "second attempt answered" 42 v;
  check int "exactly one retry" 2 !attempts;
  (* EPIPE is retried the same way *)
  let attempts = ref 0 in
  ignore
    (Client.with_retry (fun () ->
         incr attempts;
         if !attempts = 1 then
           raise (Unix.Unix_error (Unix.EPIPE, "write", ""))
         else 0));
  check int "epipe retried" 2 !attempts

let test_client_retry_gives_up () =
  (* persistent resets surface after the retry budget *)
  let attempts = ref 0 in
  (match
     Client.with_retry (fun () ->
         incr attempts;
         raise (Unix.Unix_error (Unix.ECONNRESET, "connect", "")))
   with
  | (_ : unit) -> Alcotest.fail "persistent reset did not raise"
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ());
  check int "both attempts used" 2 !attempts;
  (* non-retriable errors propagate immediately *)
  let attempts = ref 0 in
  (match
     Client.with_retry (fun () ->
         incr attempts;
         raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", "")))
   with
  | (_ : unit) -> Alcotest.fail "refused did not raise"
  | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) -> ());
  check int "no retry for refused" 1 !attempts;
  check bool "retriable classification" true
    (Client.retriable (Unix.Unix_error (Unix.ECONNRESET, "", ""))
    && Client.retriable (Unix.Unix_error (Unix.EPIPE, "", ""))
    && not (Client.retriable (Unix.Unix_error (Unix.ENOENT, "", "")))
    && not (Client.retriable Exit))

(* trace propagation ---------------------------------------------------- *)

module Ctx = Obs.Trace_context

(* round-trip a traced request through the full framing (header, crc,
   tagged payload); the context rides as opaque bytes, so any short
   string must survive *)
let prop_traced_request_roundtrip =
  QCheck.Test.make ~name:"traced request frames round-trip" ~count:200
    QCheck.(
      triple small_nat
        (option (string_gen_of_size (Gen.int_range 0 255) Gen.printable))
        printable_string)
    (fun (id, ctx, line) ->
      match roundtrip (Protocol.Request { id; line; ctx }) with
      | Protocol.Request r ->
        r.Protocol.id = id && r.Protocol.line = line && r.Protocol.ctx = ctx
      | _ -> false)

let prop_trace_context_over_protocol =
  QCheck.Test.make ~name:"trace contexts survive the protocol framing"
    ~count:200
    QCheck.(triple int64 int64 bool)
    (fun (trace_id, span_id, sampled) ->
      let ctx = { Ctx.trace_id; span_id; sampled } in
      match
        roundtrip
          (Protocol.Request { id = 1; line = "status"; ctx = Some (Ctx.encode ctx) })
      with
      | Protocol.Request { ctx = Some s; _ } -> (
        match Ctx.decode s with Ok c -> Ctx.equal c ctx | Error _ -> false)
      | _ -> false)

let test_protocol_legacy_untraced () =
  (* absent context must keep the legacy 'Q' tag on the wire, so old
     peers interoperate in both directions *)
  let payload_of frame =
    let wire = Protocol.encode frame in
    String.sub wire 8 (String.length wire - 8)
  in
  let payload = payload_of (Protocol.Request { id = 9; line = "status"; ctx = None }) in
  check bool "untraced request keeps legacy tag" true (payload.[0] = 'Q');
  (match Protocol.decode_payload payload with
  | Ok (Protocol.Request r) ->
    check bool "legacy decode has no context" true (r.Protocol.ctx = None)
  | _ -> Alcotest.fail "legacy payload did not decode");
  (* traced requests use the new tag and refuse oversized contexts *)
  let traced =
    payload_of (Protocol.Request { id = 9; line = "status"; ctx = Some "abc" })
  in
  check bool "traced request uses new tag" true (traced.[0] = 'T');
  check bool "oversized context rejected" true
    (try
       ignore
         (payload_of
            (Protocol.Request
               { id = 9; line = "x"; ctx = Some (String.make 300 'c') }));
       false
     with Invalid_argument _ -> true)

let test_request_traced_spans () =
  let repo = keyed_repo () in
  let daemon = Daemon.create repo in
  let client = Client.of_transport (Daemon.connect daemon) in
  Obs.Trace.clear ();
  Obs.Trace.set_enabled true;
  Obs.Trace.set_slow_threshold_s 10.;
  Fun.protect ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.set_slow_threshold_s 0.1;
      Client.close client;
      Daemon.stop daemon)
  @@ fun () ->
  let res, trace = Client.request_traced client "focus Papers" in
  ignore (ok res);
  check int "trace id is a 16-char hex handle" 16 (String.length trace);
  String.iter
    (fun c ->
      match c with
      | '0' .. '9' | 'a' .. 'f' -> ()
      | _ -> Alcotest.failf "non-hex trace id %S" trace)
    trace;
  (* both halves of the conversation — the client's send span and the
     server's request span — carry the same trace id *)
  let spans = Obs.Trace.recent () in
  let tagged name =
    List.exists
      (fun sp ->
        sp.Obs.Trace.span_name = name
        && List.mem ("trace", trace) sp.Obs.Trace.attrs)
      spans
  in
  check bool "client.send span tagged" true (tagged "client.send");
  check bool "server.request span tagged" true (tagged "server.request")

let suite =
  [
    ("protocol roundtrip", `Quick, test_protocol_roundtrip);
    ("protocol pipelined and partial frames", `Quick, test_protocol_pipelined_and_partial);
    ("protocol corruption detected", `Quick, test_protocol_corruption);
    QCheck_alcotest.to_alcotest prop_decoders_any_chunking;
    ("scheduler classification", `Quick, test_scheduler_classify);
    ("cache version keying", `Quick, test_cache_versioning);
    ("cache capacity bound", `Quick, test_cache_capacity);
    ("metrics accounting", `Quick, test_metrics);
    ("unknown verbs mint no series", `Quick, test_unknown_verbs_bounded);
    ("in-process end-to-end session", `Quick, test_in_process_session);
    ("cache answers focus and config", `Quick, test_cache_answers_focus_and_config);
    ("sessions detach event listeners", `Quick, test_session_listener_leak);
    ("idle sessions hold no per-commit news", `Quick, test_idle_sessions_bounded);
    ("news past 4,096 lines says what it skipped", `Quick, test_news_overflow);
    ("pipelined writes bounded while commits are held", `Quick, test_pipelined_writes_bounded);
    ("client window capped at the server's limit", `Quick, test_client_window_capped);
    ("a window wider than the limit over a socket", `Quick, test_wide_window_over_socket);
    ("a large reply within the window over a socket", `Quick, test_large_reply_over_socket);
    ("idle sessions are reaped", `Quick, test_idle_timeout);
    ("a session waiting for the lock is not idle", `Quick, test_busy_session_not_idle);
    ("an unread reply ends the session", `Quick, test_unread_reply_ends_session);
    ("abrupt disconnect cleans up", `Quick, test_abrupt_disconnect);
    ("connection churn drops thread handles", `Quick, test_worker_handles_dropped);
    ("unix socket end-to-end", `Quick, test_unix_socket);
    ("interrupt from a daemon thread, then stop", `Quick, test_interrupt_from_daemon_thread);
    ("wal synced before response", `Quick, test_wal_recovery);
    ("differential: concurrent = sequential (cache on)", `Quick, test_differential_cached);
    ("differential: concurrent = sequential (cache off)", `Quick, test_differential_uncached);
    ("classification table covers every verb", `Quick, test_classification_table);
    ("batch admission conserves, orders, caps", `Quick, test_batch_admission_model);
    ("group commit shares fsyncs, acks durable", `Quick, test_group_commit_shares_fsyncs);
    ("differential: group commit + pipelining", `Quick, test_differential_grouped);
    ("differential: grouped over socket", `Quick, test_differential_socket);
    ("socket lifecycle and cleanup", `Quick, test_socket_lifecycle);
    ("a session's domain can finish", `Quick, test_session_domain_finishes);
    ("client retries reset once", `Quick, test_client_retry_once);
    ("client retry gives up and classifies", `Quick, test_client_retry_gives_up);
    QCheck_alcotest.to_alcotest prop_traced_request_roundtrip;
    QCheck_alcotest.to_alcotest prop_trace_context_over_protocol;
    ("legacy untraced framing preserved", `Quick, test_protocol_legacy_untraced);
    ("traced request spans both halves", `Quick, test_request_traced_spans);
  ]
