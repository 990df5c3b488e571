module Repo = Gkbms.Repository

type config = {
  cache : bool;
  idle_timeout : float option;
  wal_fsync : bool;
  read_only : string option;
      (** [Some leader] marks this daemon a replication follower:
          write-class commands are refused with an error naming the
          leader address to redirect to *)
  group_commit : int * int;
      (** [(k, t_us)]: write commands from all sessions are collected by
          a flusher thread and committed under one hold of the
          repository lock with a single end-of-batch WAL sync; a batch
          flushes at [k] commands or [t_us] µs after its first enqueue,
          whichever comes first *)
}

let default_config =
  {
    cache = true;
    idle_timeout = None;
    wal_fsync = false;
    read_only = None;
    group_commit = (16, 500);
  }

type entry = {
  gsession : Session.t;
  greq : Protocol.request;
  enq_s : float;
  gfinish : Protocol.response -> unit;
}

type t = {
  repo : Repo.t;
  config : config;
  group : entry Scheduler.Batch.t;
  mutable flusher : Thread.t option;
  cache : Cache.t option;
  lock : Mutex.t;
      (** the repository lock, taken only by [exclusive]: even read
          commands mutate KB-internal memo caches, so every evaluation
          is mutually exclusive and concurrency comes from cache hits
          served outside it *)
  m : Mutex.t;  (** sessions / lifecycle *)
  sessions : (int, Session.t) Hashtbl.t;
  mutable next_sid : int;
  news : Session.news;
  news_sub : Repo.event_subscription;
      (** the one listener recording news for every session *)
  mutable durable : Gkbms.Durable.t option;
  mutable extension : (string -> string option) option;
      (** protocol extension (the replication command family): consulted
          on the raw request line before the built-ins, outside the
          repository lock — the handler takes it where it needs it (a
          follower's [wait] blocks on apply progress and must not hold
          the lock the puller applies under) *)
  listen_fd : Unix.file_descr option Atomic.t;
  stopping : bool Atomic.t;
      (** [listen] returns: set by [interrupt] and by [stop] *)
  mutable stopped : bool;  (** [stop] has run *)
  workers : (int, Thread.t) Hashtbl.t;
      (** live connection threads by [Thread.id]: each one drops itself
          as it exits, so connection churn does not grow the table *)
}

let repo t = t.repo
let durable t = t.durable
let config t = t.config
let set_extension t ext = t.extension <- Some ext

(* The one way to take the repository lock: a read the cache cannot
   answer, a whole write batch, the follower's applier and the leader's
   captures each hold it for one section.  [Mutex] is not reentrant, so
   a section never calls back in here. *)
let exclusive t f = Mutex.protect t.lock f

let cache_stats t = Option.map Cache.stats t.cache

let session_count t =
  Mutex.lock t.m;
  let n = Hashtbl.length t.sessions in
  Mutex.unlock t.m;
  n

let worker_count t =
  Mutex.lock t.m;
  let n = Hashtbl.length t.workers in
  Mutex.unlock t.m;
  n

let attach_wal t ~dir =
  match t.durable with
  | Some _ -> Error "a WAL is already attached"
  | None -> (
    match Gkbms.Durable.attach ~fsync:t.config.wal_fsync ~dir t.repo with
    | Ok d ->
      t.durable <- Some d;
      Ok ()
    | Error e -> Error e)

let attach_durable t d =
  if t.durable <> None then Error "a WAL is already attached"
  else if not (Gkbms.Durable.repo d == t.repo) then
    Error "the durable handle journals a different repository"
  else begin
    t.durable <- Some d;
    Ok ()
  end

(* metrics --------------------------------------------------------------- *)

(* The daemon's series live on the process-wide registry, like those of
   [Leader], [Follower] and [Wal]. *)
let reg = Obs.Registry.default
let counter name help = Obs.Registry.counter reg name ~help
let bytes_in = counter "gkbms_server_bytes_in_total" "Request bytes received"
let bytes_out = counter "gkbms_server_bytes_out_total" "Response bytes sent"

let sessions_opened =
  counter "gkbms_server_sessions_opened_total" "Client sessions opened"

let sessions_closed =
  counter "gkbms_server_sessions_closed_total" "Client sessions closed"

let protocol_errors =
  counter "gkbms_server_protocol_errors_total" "Malformed frames seen"

let batch_size =
  Obs.Registry.histogram reg "gkbms_group_commit_batch_size"
    ~help:"Write commands committed per group-commit batch"

let inflight =
  Obs.Registry.gauge reg "gkbms_server_inflight_requests"
    ~help:
      "Requests received (parsed off a connection) but not yet answered, \
       across all sessions"

(* A verb's latency histogram and error counter, registered together
   (the counter at zero) on the verb's first request and kept here, so
   a request costs one probe of this table instead of two registry
   registrations. *)
let commands_m = Mutex.create ()
let commands : (string, Obs.Histogram.t * Obs.Registry.Counter.t) Hashtbl.t =
  Hashtbl.create 32

let command_series cmd =
  Mutex.protect commands_m @@ fun () ->
  match Hashtbl.find_opt commands cmd with
  | Some series -> series
  | None ->
    let labels = [ ("cmd", cmd) ] in
    let series =
      ( Obs.Registry.histogram reg ~labels "gkbms_server_command_us"
          ~help:"Request latency in microseconds, per command",
        Obs.Registry.counter reg ~labels "gkbms_server_command_errors_total"
          ~help:"Requests answered with an error, per command" )
    in
    Hashtbl.add commands cmd series;
    series

(* Account one answered request, under a [cmd] label from a fixed set
   (see [series_label]). *)
let account ~cmd ~ok ~seconds =
  let hist, errors = command_series cmd in
  Obs.Histogram.observe hist (seconds *. 1e6);
  if not ok then Obs.Registry.Counter.inc errors;
  ignore (Obs.Slo.observe ~cmd seconds)

let metrics_text t =
  let b = Buffer.create 512 in
  let ppf = Format.formatter_of_buffer b in
  (match t.cache with
  | None -> Format.fprintf ppf "cache: disabled@."
  | Some c ->
    let cs = Cache.stats c in
    Format.fprintf ppf
      "cache: %d hits, %d misses, %d invalidations, %d evictions, %d entries \
       (generation %d)@."
      cs.Cache.hits cs.Cache.misses cs.Cache.invalidations cs.Cache.evictions
      cs.Cache.entries cs.Cache.generation);
  Format.fprintf ppf "repository version: %d; sessions live: %d@."
    (Repo.version t.repo) (session_count t);
  Format.fprintf ppf "-- registry --@.%a" Obs.Export.pp_samples
    (Obs.Registry.snapshot reg);
  Format.pp_print_flush ppf ();
  Buffer.contents b

(* request execution --------------------------------------------------- *)

let is_error payload =
  String.length payload >= 6 && String.sub payload 0 6 = "error:"

(* call under [exclusive] *)
let eval session line =
  try Gkbms.Shell.eval (Session.shell session) line
  with e -> "error: internal: " ^ Printexc.to_string e

let command_label line =
  let line = String.trim line in
  if line = "" then "<empty>"
  else
    match String.index_opt line ' ' with
    | Some i -> String.sub line 0 i
    | None -> line

(* The [cmd] label of a request the daemon or the shell answers: its
   verb when the scheduler's table lists it (the built-ins included),
   "other" otherwise, so a client cannot mint series with made-up
   verbs.  The extension's verbs, a fixed family too, keep theirs. *)
let series_label line =
  let verb = command_label line in
  if Option.is_some (Scheduler.verb_entry verb) then verb else "other"

let trace_command t = function
  | [ "on" ] ->
    Obs.Trace.set_enabled true;
    "tracing on"
  | [ "off" ] ->
    Obs.Trace.set_enabled false;
    "tracing off"
  | [ "slow"; ms ] -> (
    match float_of_string_opt ms with
    | Some ms when ms >= 0. ->
      Obs.Trace.set_slow_threshold_s (ms /. 1e3);
      Printf.sprintf "slow threshold %gms" ms
    | _ -> "error: trace slow expects a non-negative number (milliseconds)")
  | [ "dump" ] -> Obs.Export.spans_json (Obs.Trace.slow ())
  | [ "dump"; "recent" ] -> Obs.Export.spans_json (Obs.Trace.recent ())
  | [ "decision"; id ] -> Obs.Recorder.render_for id
  | [ "clear" ] ->
    Obs.Trace.clear ();
    "trace buffers cleared"
  | _ ->
    ignore t;
    "error: usage: trace on|off|slow MS|dump [recent]|decision ID|clear"

let process t session (req : Protocol.request) : Protocol.response =
  let line = String.trim req.Protocol.line in
  (* Install the request's trace context (if the frame carried one) as
     the ambient context for this connection's thread, for exactly the
     duration of this request — the thread is reused, so a stale
     context must never leak into the next request. *)
  let ctx =
    Option.bind req.Protocol.ctx (fun s ->
        Result.to_option (Obs.Trace_context.decode s))
  in
  Obs.Trace.with_context ctx @@ fun () ->
  Obs.Trace.with_span "server.request" ~attrs:[ ("cmd", command_label line) ]
  @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let finish cmd payload =
    let ok = not (is_error payload) in
    account ~cmd ~ok ~seconds:(Unix.gettimeofday () -. t0);
    { Protocol.id = req.Protocol.id; ok; payload }
  in
  match Option.bind t.extension (fun ext -> ext line) with
  | Some payload -> finish (command_label line) payload
  | None -> (
  let finish = finish (series_label line) in
  match line with
  | "metrics" -> finish (metrics_text t)
  | "metrics json" -> finish (Obs.Export.json (Obs.Registry.snapshot reg))
  | "metrics prom" -> finish (Obs.Export.prometheus (Obs.Registry.snapshot reg))
  | "news" -> finish (Session.take_news session)
  | "ping" -> finish "pong"
  | "version" -> finish (string_of_int (Repo.version t.repo))
  | line when String.length line >= 5 && String.sub line 0 5 = "trace" ->
    let args =
      List.filter
        (fun w -> w <> "")
        (String.split_on_char ' '
           (String.sub line 5 (String.length line - 5)))
    in
    finish (trace_command t args)
  | line when Gkbms.Shell.is_quit line -> finish "bye"
  | line -> (
    match Scheduler.classify line with
    | `Write ->
      (* [grouped] sends a writable daemon's writes to the batch, so
         only a follower's writes get here *)
      finish
        (Printf.sprintf
           "error: read-only follower: redirect writes to the leader at %s"
           (Option.value t.config.read_only ~default:"?"))
    | `Read -> (
      (* the cache key is the explicit line: a bare browsing verb names
         this session's cursor or level first *)
      let shell = Session.shell session in
      let line = Gkbms.Shell.resolve shell line in
      match t.cache with
      | Some cache when Scheduler.cacheable line -> (
        (* fast path: no repository lock, just the version counter *)
        match Cache.find cache ~version:(Repo.version t.repo) line with
        | Some payload ->
          Gkbms.Shell.observe shell line payload;
          finish payload
        | None ->
          finish
            (exclusive t (fun () ->
                 (* nothing else holds the lock, so the version is pinned *)
                 let v = Repo.version t.repo in
                 let out = eval session line in
                 Cache.store cache ~version:v line out;
                 out)))
      | _ -> finish (exclusive t (fun () -> eval session line)))))

(* group commit -------------------------------------------------------- *)

(* Every write of a daemon that accepts writes goes through the batch;
   everything else — reads, built-ins, protocol extensions, follower
   refusals — takes the synchronous [process] path.  (Extension
   commands never classify as writes: the replication family has its
   own verbs.) *)
let grouped t (req : Protocol.request) =
  t.config.read_only = None && Scheduler.classify req.Protocol.line = `Write

(* One batch: validate and commit every collected write sequentially,
   in arrival order, under one hold of the repository lock — each write
   sees the committed state plus its batch predecessors — bracketed by
   the durable batch seam so the WAL is synced once, at the end.  Only
   then are the acks sent: a client never sees a success for a decision
   that could still be lost, and a crash before the end-of-batch marker
   rolls back exactly the unacknowledged suffix. *)
let exec_batch t entries =
  let outs =
    exclusive t (fun () ->
        Option.iter Gkbms.Durable.begin_batch t.durable;
        let outs =
          List.map
            (fun e ->
              let line = String.trim e.greq.Protocol.line in
              let ctx =
                Option.bind e.greq.Protocol.ctx (fun s ->
                    Result.to_option (Obs.Trace_context.decode s))
              in
              Obs.Trace.with_context ctx @@ fun () ->
              Obs.Trace.with_span "server.request"
                ~attrs:[ ("cmd", command_label line); ("batched", "true") ]
              @@ fun () -> eval e.gsession line)
            entries
        in
        Option.iter Gkbms.Durable.commit_batch t.durable;
        outs)
  in
  Obs.Histogram.observe batch_size (float_of_int (List.length entries));
  List.iter2
    (fun e payload ->
      let ok = not (is_error payload) in
      account ~cmd:(series_label e.greq.Protocol.line) ~ok
        ~seconds:(Unix.gettimeofday () -. e.enq_s);
      e.gfinish { Protocol.id = e.greq.Protocol.id; ok; payload })
    entries outs

let refuse e reason =
  e.gfinish
    { Protocol.id = e.greq.Protocol.id; ok = false; payload = "error: " ^ reason }

let exec_batch_safe t entries =
  try exec_batch t entries
  with exn ->
    (* a failure in the batch machinery itself (not in command
       evaluation, which is caught per-command): never strand the
       sessions blocked on these acks *)
    let reason = "internal: " ^ Printexc.to_string exn in
    List.iter (fun e -> refuse e reason) entries

let flusher_loop t batch =
  let rec loop () =
    match Scheduler.Batch.drain batch with
    | [] -> ()
    | entries ->
      exec_batch_safe t entries;
      loop ()
  in
  loop ()

let submit_write t session req ~finish =
  let e =
    { gsession = session; greq = req; enq_s = Unix.gettimeofday (); gfinish = finish }
  in
  if not (Scheduler.Batch.submit t.group e) then refuse e "server stopping"

(* connection lifecycle ------------------------------------------------ *)

let create ?(config = default_config) repo =
  (match config.idle_timeout with
  | Some s when not (s >= 0.001 && s < 2_147_483_648.) ->
    (* the kernel's socket timeouts read a shorter one as no timeout
       and refuse a longer one *)
    invalid_arg "Daemon.create: idle_timeout must be at least 1 ms and below 2^31 s"
  | _ -> ());
  let news = Session.news () in
  let t =
    {
      repo;
      config;
      group =
        (let k, t_us = config.group_commit in
         Scheduler.Batch.create ~max:k ~window_us:t_us);
      flusher = None;
      cache = (if config.cache then Some (Cache.create ()) else None);
      lock = Mutex.create ();
      m = Mutex.create ();
      sessions = Hashtbl.create 16;
      next_sid = 0;
      news;
      news_sub = Repo.on_event repo (Session.record_news news);
      durable = None;
      extension = None;
      listen_fd = Atomic.make None;
      stopping = Atomic.make false;
      stopped = false;
      workers = Hashtbl.create 16;
    }
  in
  (* The flusher starts here, not on first use: a thread belongs to the
     domain that creates it, and a domain cannot finish while one of its
     threads lives, so a flusher spawned from a session running in a
     short-lived domain would pin that domain until [stop].  A follower
     never batches. *)
  if config.read_only = None then
    t.flusher <- Some (Thread.create (flusher_loop t) t.group);
  t

let register_session t transport =
  Mutex.lock t.m;
  let sid = t.next_sid in
  t.next_sid <- sid + 1;
  let s = Session.create ~sid ~repo:t.repo ~news:t.news ~transport in
  Hashtbl.replace t.sessions sid s;
  Mutex.unlock t.m;
  Obs.Registry.Counter.inc sessions_opened;
  s

(* runs on the session's own connection thread, which it also drops *)
let unregister_session t session =
  Mutex.lock t.m;
  Hashtbl.remove t.sessions (Session.sid session);
  Hashtbl.remove t.workers (Thread.id (Thread.self ()));
  Mutex.unlock t.m;
  Obs.Registry.Counter.inc sessions_closed

let handle t transport =
  let session = register_session t transport in
  Fun.protect
    ~finally:(fun () -> unregister_session t session)
    (fun () ->
      Session.run session ~grouped:(grouped t) ~submit_write:(submit_write t)
        ~process:(process t)
        ~on_bytes:(fun ~incoming ~outgoing ->
          Obs.Registry.Counter.inc bytes_in ~by:incoming;
          Obs.Registry.Counter.inc bytes_out ~by:outgoing)
        ~on_inflight:(fun by -> Obs.Registry.Gauge.add inflight (float_of_int by))
        ~on_protocol_error:(fun _reason -> Obs.Registry.Counter.inc protocol_errors))

(* Holding [m] across the spawn registers the thread before it can
   reach [unregister_session], which drops it again. *)
let spawn_worker t transport =
  Mutex.lock t.m;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.m)
    (fun () ->
      let th = Thread.create (fun () -> handle t transport) () in
      Hashtbl.replace t.workers (Thread.id th) th)

(* Serve a connected socket on a thread of its own.  The kernel times
   out a read or send on it that makes no progress for [idle_timeout],
   and the session takes the failure as end-of-stream. *)
let serve_fd t fd =
  Option.iter
    (fun s ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO s;
      Unix.setsockopt_float fd Unix.SO_SNDTIMEO s)
    t.config.idle_timeout;
  spawn_worker t (Protocol.fd_transport fd)

let connect t =
  let client_end, server_end =
    Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  serve_fd t server_end;
  Protocol.fd_transport client_end

(* Signal-handler safe: no lock, no join.  Setting the flag before
   reading the descriptor means that either [listen] sees the flag at
   its loop head or this shuts the descriptor it accepts on. *)
let interrupt t =
  Atomic.set t.stopping true;
  Option.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ())
    (Atomic.get t.listen_fd)

let listen t ~path =
  match
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    (try if Sys.file_exists path then Unix.unlink path with _ -> ());
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  with
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot listen on %s: %s" path (Unix.error_message err))
  | fd ->
    Atomic.set t.listen_fd (Some fd);
    (* Only [interrupt] or [stop] ends the loop.  A connection reset
       before it was accepted (ECONNABORTED) is retried at once.
       Running out of descriptors or buffers (EMFILE, ENFILE, ENOBUFS,
       ENOMEM) is transient under a connection flood: back off until
       some connections close.  Shutting the listener down also fails
       the accept; the loop head then sees [stopping]. *)
    let rec accept_loop () =
      if not (Atomic.get t.stopping) then begin
        (match Unix.accept fd with
        | conn, _ -> serve_fd t conn
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ()
        | exception Unix.Unix_error _ ->
          if not (Atomic.get t.stopping) then Thread.delay 0.05);
        accept_loop ()
      end
    in
    accept_loop ();
    (try Unix.unlink path with _ -> ());
    Ok ()

let stop t =
  Atomic.set t.stopping true;
  let fd = Atomic.exchange t.listen_fd None in
  Mutex.lock t.m;
  let already = t.stopped in
  t.stopped <- true;
  let sessions = Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions [] in
  let workers = Hashtbl.fold (fun _ th acc -> th :: acc) t.workers [] in
  let flusher = t.flusher in
  t.flusher <- None;
  Mutex.unlock t.m;
  if not already then (
    (match fd with
    | Some fd ->
      (* shutdown, not just close: close alone does not wake a thread
         blocked in accept(2) on Linux *)
      (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
      (try Unix.close fd with _ -> ())
    | None -> ());
    (* refuse new batched writes, let the flusher commit the tail, then
       retire it — before closing sessions, so queued acks can land *)
    Scheduler.Batch.close t.group;
    (match flusher with
    | Some th -> ( try Thread.join th with _ -> ())
    | None -> ());
    List.iter Session.shutdown sessions;
    List.iter (fun th -> try Thread.join th with _ -> ()) workers;
    Repo.off_event t.repo t.news_sub;
    (match t.durable with
    | Some d ->
      Gkbms.Durable.close d;
      t.durable <- None
    | None -> ()))
