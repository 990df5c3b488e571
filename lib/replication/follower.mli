(** A replication follower: a read-only GKBMS daemon that keeps its
    repository converged with a leader by pulling committed WAL frames.

    [create] either bootstraps (ships the leader's checkpoint, loads it,
    attaches its own WAL under [dir]) or, when [dir] already holds a
    checkpoint and a [repl.cursor] file, recovers locally and resumes
    the stream at the persisted frame-boundary cursor.  The embedded
    daemon refuses write-class commands with a redirect to [leader] and
    answers reads at the follower's applied version; it additionally
    handles [wait EPOCH VERSION [MS]] (block until the applied session
    token covers the client's — read-your-writes), [repl applied] and
    [repl status].

    Progress is tracked with two cursors: the scan cursor (where the
    next frames request reads) and the safe cursor, which only ever
    advances at applier depth 0 and is the one persisted — so a crash
    mid-decision-frame resumes before the frame and the (idempotent)
    overlap replay is skipped by decision id. *)

type t

val create :
  ?config:Server.Daemon.config ->
  ?name:string ->
  leader:string ->
  connect:(unit -> (Server.Client.t, string) result) ->
  dir:string ->
  unit ->
  (t, string) result
(** [leader] is the address quoted in write-refusal errors; [connect]
    opens a fresh client to it (over the leader's Unix socket, or
    {!Server.Daemon.connect} in process).
    [config]'s [read_only] field is overridden; its [wal_fsync] applies
    to the follower's own journal, as on any daemon. *)

val daemon : t -> Server.Daemon.t
val repo : t -> Gkbms.Repository.t
val name : t -> string
val leader_addr : t -> string

val step : ?wait_ms:int -> t -> (int, string) result
(** One pull/apply round; the number of records applied ([0] when
    caught up, redirected across a generation boundary, or growing the
    request window).  [wait_ms] long-polls on the leader.  Exposed so
    tests can drive replication deterministically. *)

val catch_up : ?wait_ms:int -> t -> (unit, string) result
(** {!step} until a round changes nothing (an empty caught-up
    response). *)

val wait_for : t -> epoch:int -> version:int -> timeout_ms:int -> bool
(** Block (polling) until the applied token covers (epoch, version). *)

val applied : t -> int * int
(** The leader (epoch, version) token this follower is caught up to. *)

val cursor : t -> int * int
(** The scan cursor: (generation, byte offset) of the next request. *)

val last_error : t -> string option
val needs_resync : t -> bool
(** The leader can no longer serve our cursor (pruned archive): local
    state is stale beyond catch-up.  The follower has deleted its
    [repl.cursor], so a restart on the same directory re-bootstraps
    from a snapshot; until then {!step} fails and [repl status] names
    the leader's error. *)

val start : ?wait_ms:int -> t -> unit
(** Spawn the puller thread: loop {!step} with [wait_ms] (default 500)
    long-polling, reconnecting after transient failures.  The thread
    ends at a resync answer ({!needs_resync}). *)

val stop : t -> unit
(** Stop the puller, drop the leader connection, stop the daemon.  It
    joins the puller and the daemon's threads, so call it from none of
    them: a signal handler calls {!Server.Daemon.interrupt} on
    {!daemon} and leaves the stop to the thread that listens. *)
