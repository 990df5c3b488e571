(** WAL-backed durability for a whole repository.

    An attached repository journals every proposition delta (through
    {!Store.Base.on_change}), every artifact write and every decision
    boundary (through {!Repository.on_event}) into a checksummed
    write-ahead log, so committing a decision costs O(delta) instead of
    the O(repository) of a full {!Persist} snapshot.  The on-disk layout
    is a directory holding [checkpoint.repo] (an atomic {!Persist}
    snapshot) and [wal.log] (the suffix of work since that snapshot),
    and on a replication leader its last rotated logs
    ([wal.<gen>.log]).

    Recovery ({!recover} / {!open_}) loads the checkpoint, replays the
    longest valid log prefix, discards deltas of decisions that never
    committed, and finalizes (tools, counter, reason maintenance) once
    over the merged state.  {!open_} then writes a fresh checkpoint and
    starts a new log, so a recovered session is immediately durable
    again. *)

type t

type report = {
  checkpoint_loaded : bool;
  wal_records : int;  (** valid records scanned from the log *)
  replayed_ops : int;  (** store operations applied during replay *)
  recovered_decisions : string list;
      (** decisions committed by the log suffix, chronological *)
  dangling_frames : int;
      (** decisions in progress at the crash, rolled back *)
  truncated : string option;
      (** why the log tail was cut (torn write, checksum mismatch…) *)
  valid_bytes : int;  (** length of the surviving log prefix *)
}

val pp_report : Format.formatter -> report -> unit

val wal_path : string -> string
val checkpoint_path : string -> string

val archived_wal_path : string -> int -> string
(** [wal.<gen>.log]: a rotated log.  Recovery never reads it; only
    {!ship} does, so a rotation keeps it only on a handle whose
    {!set_retention} a replication leader set, and deletes it on every
    other. *)

val attach :
  ?checkpoint_every:int -> ?fsync:bool -> dir:string -> Repository.t ->
  (t, string) result
(** Make a live repository durable under [dir]: write an initial
    checkpoint, open a fresh log and subscribe to the delta and event
    feeds.  A checkpoint is taken automatically (at a decision or batch
    commit boundary) once the log holds at least
    [max checkpoint_every (base cardinal)] records ([checkpoint_every]
    defaults to 256) — scaling the cadence with the base keeps the
    O(base) snapshot cost amortized O(1) per logged record; [fsync]
    (default false) forces data to the device on every decision commit
    rather than only into the OS.

    The fresh log's generation lies past every archive in [dir] and
    past the generation the checkpoint already there hands on (its
    header, {!Persist.generation_of_file}), so generations grow
    strictly across checkpoints and re-attachments even once the
    archives are deleted.  The checkpoint [attach] writes records it.
    Any leftover [wal.log] is cut to its valid prefix and renamed into
    the archive of the generation before the fresh one; [attach]
    deletes no archive, so a restarted leader's followers still find
    it, and the first rotation applies the retention
    ({!set_retention}).  A leftover log that cannot be read, or holds a
    record this build cannot decode, is an [Error] before anything is
    written. *)

val recover :
  ?register_tools:(Repository.t -> unit) -> dir:string -> unit ->
  (Repository.t * report, string) result
(** Rebuild the repository state from [dir] without attaching.  A
    [wal.log] that is not empty, not a prefix of {!Durability.Wal.magic}
    (a creation torn before its first sync) and does not start with
    the magic is refused with an [Error] naming the file, and left as
    it is; so is one holding a whole frame whose record does not decode
    ({!Durability.Wal.scan}), and so is a damaged [checkpoint.repo] or
    one in the text layout.  A leftover
    [checkpoint.repo.tmp] (a checkpoint cut before its rename) is
    ignored. *)

val replay_record :
  Repository.t -> Durability.Wal.record -> (bool, string) result
(** Apply one committed record that {!Durability.Journal.Replayer}
    returned: a [Put] or [Tomb] through {!Durability.Journal.apply}
    ([Ok true] when the base changed), an [Artifact] decoded and set,
    an [unlog] note's decision unlogged.  Other records change nothing.
    Recovery and replication followers both replay through here. *)

val open_ :
  ?register_tools:(Repository.t -> unit) -> ?checkpoint_every:int ->
  ?fsync:bool -> dir:string -> unit -> (t * report, string) result
(** {!recover}, then {!attach} the recovered repository: checkpoint the
    merged state and start a fresh log. *)

val repo : t -> Repository.t
val dir : t -> string

val set_retention : t -> int -> unit
(** [set_retention t n]: each later rotation keeps the last [n]
    archived generations, and deletes the older ones, for followers
    streaming behind the head.  A handle starts at 0, which deletes the
    rotated log at once; [Replication.Leader.attach] sets its own
    retention. *)

val checkpoint : t -> (unit, string) result
(** Snapshot now and truncate the log.  Order is crash-safe: the log is
    synced first, the snapshot is written atomically (with [fsync]: its
    bytes forced to disk before its rename, and the rename after), and
    only then is the log rotated — a crash between the two replays the
    (idempotent) suffix over the new checkpoint.  The snapshot's header
    records the generation that follows; the rotated log is renamed
    into its archive and pruned to the retention ({!set_retention}).
    A snapshot that cannot land is an [Error] that leaves the log, the
    generation and the archives as they were; the handle keeps
    journaling.  With [fsync],
    the directory is synced again once the fresh log exists, and a
    failure there is an [Error] after the rotation. *)

val sync : t -> unit
val wal_records : t -> int
val wal_bytes : t -> int

val begin_batch : t -> unit
(** Open a group-commit batch: decision commits between here and
    {!commit_batch} append their frames without the per-decision sync.
    Must be called with the repository exclusively locked (the daemon's
    repository lock) and balanced with {!commit_batch}; see
    {!Durability.Journal.begin_batch} for the crash contract (a torn
    batch is rolled back whole on recovery). *)

val commit_batch : t -> unit
(** Append the end-of-batch marker and sync once — the durability point
    for every decision in the batch; only after this returns may the
    batched commands be acknowledged.  Also runs the deferred
    checkpoint check.  No-op if no batch is open. *)

val generation : t -> int
(** The number of the live log.  Strictly increases across checkpoints
    and re-attachments to the same directory, which makes it usable as
    the epoch half of a replication session token: any (generation,
    {!Repository.version}) pair captured later compares lexicographically
    greater. *)

(** {1 Frame shipping (replication)}

    A follower streams the log as raw framed bytes addressed by a
    (generation, byte-offset) cursor.  Offsets are absolute file
    positions (the 8-byte header counts), so cursor 0/clamped-to-header
    means "from the first frame". *)

type ship = {
  chunk : string;  (** raw framed bytes, no header — may end mid-frame *)
  next_gen : int;  (** cursor to request next *)
  next_offset : int;
  at_head : bool;
      (** the chunk ends exactly at the live log's synced end: the
          requester is caught up with the leader *)
}

val ship :
  t -> gen:int -> offset:int -> max_bytes:int ->
  (ship, [ `Resync | `Failure of string ]) result
(** Read up to [max_bytes] of framed log bytes at the cursor.  On the
    live generation the journal is synced first (which costs nothing
    when no frame was written since the last sync), so every
    acknowledged decision is readable; the log only ever holds whole
    frames, so the synced prefix never cuts a frame open (a chunk may
    — the requester resumes at its own scan boundary).  An exhausted
    archived generation redirects the cursor to the next generation's
    first frame.  [`Resync] means the cursor is unservable (archive
    deleted, or ahead of the log): the follower must re-bootstrap from
    a snapshot.

    A crash after a checkpoint's snapshot lands but before its log is
    rotated leaves generation [g]'s log beside a snapshot whose header
    hands on [g + 1]; the next {!attach} archives that log as [g + 1],
    a number no handle served, so a cursor in [g] gets [`Resync]. *)

val read_range : string -> offset:int -> stop:int -> string
(** The bytes [\[offset, stop)] of a file.
    @raise Sys_error if it cannot be read. *)

val close : t -> unit
(** Detach from the repository's feeds and close the log.  The
    repository itself stays usable (but no longer journaled). *)
