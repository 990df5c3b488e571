(** The concurrent GKBMS server.

    One shared repository, many client sessions (§2's group decision
    setting).  Each connection gets a thread and a {!Session} wrapping
    its own {!Gkbms.Shell}; commands are classified by the {!Scheduler}.
    One mutex, the repository lock ({!exclusive}), orders every
    evaluation: a read holds it for one shell evaluation, and a
    deterministic read command is answered from the version-keyed
    {!Cache} when it can, without it.  Writes from every session go to
    one flusher thread ({!Scheduler.Batch}), which commits each batch
    under one hold of the lock in decision-log order and, when a WAL is
    attached ({!attach_wal}), syncs the journal once at the end of the
    batch before any of its responses is sent.

    Every answered request is accounted on {!Obs.Registry.default}:
    [gkbms_server_command_us{cmd}] and
    [gkbms_server_command_errors_total{cmd}], labelled by verb ("other"
    for a verb the scheduler's table does not list, so clients cannot
    mint series), plus byte, session, protocol-error, in-flight and
    group-commit batch-size series.

    Protocol-level commands handled before the shell: [metrics] (the
    cache and version lines, then the registry dump;
    [metrics json] / [metrics prom] render the registry snapshot
    alone), [trace on|off],
    [trace slow MS], [trace dump [recent]], [trace clear] (the
    process-wide {!Obs.Trace} recorder; [dump] answers span trees as
    JSON), [news] (decisions committed or retracted since this client
    last polled, from the daemon's one record of the last 4,096),
    [version] (the repository data-version), [ping]. *)

type config = {
  cache : bool;
      (** serve deterministic reads from the response cache (4,096
          entries) *)
  idle_timeout : float option;
      (** end a session whose socket makes no progress for this many
          seconds: the daemon sets it as the [SO_RCVTIMEO] and
          [SO_SNDTIMEO] of every connection it serves, so a read that
          waits that long for a request, or a send that waits that long
          for the client to take a reply, fails and the session ends as
          at end-of-stream.  A session counts as idle only while it
          waits on its socket: one that evaluates a request, or waits
          for the repository lock, is not; neither is a client that
          trickles bytes or reads a reply slowly, as long as every wait
          ends within the timeout. *)
  wal_fsync : bool;  (** fsync (not just flush) the WAL at each batch end *)
  read_only : string option;
      (** [Some leader_addr] marks the daemon a replication follower:
          write-class commands are refused with an error telling the
          client to redirect to [leader_addr].  Reads (and the
          protocol-level commands) are served normally, at the
          follower's applied version. *)
  group_commit : int * int;
      (** [(k, t_us)] bounds the write batches.  Write commands from all
          sessions are collected by a flusher thread, validated and
          committed in arrival order under one hold of the repository
          lock, and made durable with a {e single} end-of-batch WAL
          sync; only then is each client acked.  A batch flushes at [k]
          commands or [t_us] µs after its first enqueue, whichever
          comes first, and as soon as the queue stops growing, so a
          lone blocking writer is a batch of one.  Crash safety: the batch is
          bracketed by begin/end markers in the journal, so [recover]
          after a mid-batch [kill -9] rolls back exactly the torn
          (never-acknowledged) suffix. *)
}

val default_config : config
(** cache on, no idle timeout, no fsync, writable, batches of
    at most 16 writes or 500 µs. *)

type t

val create : ?config:config -> Gkbms.Repository.t -> t
(** Start a daemon over the repository.  Its write flusher (unless
    [read_only]) starts here, in the calling domain; the daemon runs no
    other thread of its own, since the kernel times idle connections
    out.  It also adds the one repository event listener that records
    every session's news.  {!stop} retires the flusher and removes the
    listener.
    @raise Invalid_argument if [config.group_commit] has [k < 1] or
    [t_us < 0], or [config.idle_timeout] is under 1 ms or not below
    2{^31} s (the range a socket timeout takes). *)

val repo : t -> Gkbms.Repository.t
val config : t -> config
val durable : t -> Gkbms.Durable.t option

val attach_wal : t -> dir:string -> (unit, string) result
(** Journal the shared repository under [dir] via {!Gkbms.Durable}.  Each
    write batch syncs the log once, after its last decision and before
    any of its responses is sent, so a [kill -9] loses only
    unacknowledged decisions and [gkbms recover] restores exactly the
    acknowledged prefix. *)

val attach_durable : t -> Gkbms.Durable.t -> (unit, string) result
(** Adopt an already-attached durable handle (the recovery path:
    {!Gkbms.Durable.open_} recovers and re-attaches in one step, and the
    daemon is then created around the recovered repository).  Fails if a
    WAL is already attached or the handle journals a different
    repository. *)

val set_extension : t -> (string -> string option) -> unit
(** Install a protocol extension (the replication command family).  The
    function sees each trimmed request line before the built-ins;
    [Some payload] answers the request, [None] falls through.  It runs
    on the connection's thread {e without} the repository lock —
    handlers take it through {!exclusive} where they need it (and may
    block outside it, e.g. a follower's bounded [wait]). *)

val exclusive : t -> (unit -> 'a) -> 'a
(** Run [f] under the repository lock, the daemon's one mutex and the
    only way to take it.  A read the cache cannot answer, a whole write
    batch, the replication applier and the leader's captures each hold
    it for one section, so they exclude each other.  The mutex is not
    reentrant: [f] must not call [exclusive] on the same daemon. *)

val handle : t -> Protocol.transport -> unit
(** Serve one connection to completion in the calling thread, with
    whatever socket options the caller set ([idle_timeout] is not
    applied here).  For a caller that spawns its own thread or domain
    per connection. *)

val connect : t -> Protocol.transport
(** In-process client: one end of a fresh Unix-domain socket pair,
    whose other end the daemon serves on a thread of its own as it
    serves an accepted connection ([idle_timeout] included).  The
    returned end has no timeouts. *)

val listen : t -> path:string -> (unit, string) result
(** Bind a Unix-domain socket at [path] (replacing a stale file) and
    accept connections, one thread each, until {!interrupt} or {!stop}.
    A failed accept (out of descriptors, a connection aborted before it
    was accepted) is retried, after a short back-off when descriptors
    or buffers ran out.  Blocks the calling thread. *)

val interrupt : t -> unit
(** Make {!listen} return (at once, or as soon as it starts), and
    nothing else.  It takes no lock and joins no thread, so a signal
    handler may call it whichever thread it runs on, the daemon's own
    included, even one inside {!exclusive}; the thread that called
    {!listen} then calls {!stop}. *)

val stop : t -> unit
(** Stop listening, commit the queued writes, shut every live session
    down, wait for them to drain, retire the flusher and the news
    listener, and close the WAL if attached.  Idempotent.  It joins the
    daemon's threads, so call it from none of them (a signal handler
    calls {!interrupt} instead). *)

val session_count : t -> int

val worker_count : t -> int
(** Connection threads the daemon tracks.  A thread drops itself when
    its session ends, so this never exceeds the live sessions by more
    than the connections still starting up. *)

val cache_stats : t -> Cache.stats option
val metrics_text : t -> string
(** The rendering served by the [metrics] protocol command. *)
