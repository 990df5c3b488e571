(** A per-connection session: one {!Gkbms.Shell} over the shared
    repository, and a position in the daemon's {!news} — the paper's §2
    group setting, where designers working on one shared KB see each
    other's decisions land.

    {!run} serves a connection on its own thread, one request at a
    time.  Sessions may pipeline: a write-class command is handed to
    the group-commit flusher without waiting for its ack, and any other
    command first waits for the session's outstanding writes, so a
    session always reads its own writes.  A session holds at most
    {!Protocol.pipeline_limit} (64) unacknowledged writes; past that its
    thread stops reading the connection until an ack lands, so a
    pipelining client is throttled by its own socket.  Response frames never interleave. *)

type news
(** A daemon's news: the last 4,096 [committed ID] / [retracted ID]
    lines, shared by all of its sessions, each of which keeps only how
    many lines it has read. *)

val news : unit -> news

val record_news : news -> Gkbms.Repository.event -> unit
(** The {!Gkbms.Repository.on_event} listener that appends a committed
    or retracted decision's line; other events are ignored. *)

type t

val sid : t -> int
val shell : t -> Gkbms.Shell.t

val create :
  sid:int ->
  repo:Gkbms.Repository.t ->
  news:news ->
  transport:Protocol.transport ->
  t
(** A session whose news starts after the lines already recorded. *)

val take_news : t -> string
(** The lines recorded since this session last asked, oldest first
    (["no news."] if none).  A session that fell more than 4,096 lines
    behind first reads [(N earlier events not shown)]. *)

val shutdown : t -> unit
(** Wake the session's thread with end-of-stream (server stop).  An
    idle session needs no waking: its socket's timeouts end it (see
    {!Daemon.config}'s [idle_timeout]). *)

val run :
  t ->
  grouped:(Protocol.request -> bool) ->
  submit_write:
    (t -> Protocol.request -> finish:(Protocol.response -> unit) -> unit) ->
  process:(t -> Protocol.request -> Protocol.response) ->
  on_bytes:(incoming:int -> outgoing:int -> unit) ->
  on_inflight:(int -> unit) ->
  on_protocol_error:(string -> unit) ->
  unit
(** Serve the connection to completion in the calling thread: read a
    frame; if [grouped] holds for it, submit it through [submit_write]
    (first waiting while {!Protocol.pipeline_limit} of this session's
    writes are unacked; its
    [finish] sends the ack later, from the flusher) and read on;
    otherwise wait for this session's writes, answer through [process]
    and read on.  [on_inflight] is called with [+1] per request read
    and [-1] per response written.  Returns on end-of-stream, a corrupt
    frame, [quit], or a failed send (which shuts the transport, so a
    failed ack wakes the thread too); the outstanding acks are awaited
    and the transport closed before returning. *)
