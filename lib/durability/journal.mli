(** Store-level journaling and recovery semantics.

    {!attach} subscribes to a proposition base's change feed and
    streams every delta into a {!Wal.writer}; callers bracket decision
    (transaction) boundaries with {!begin_decision} /
    {!commit_decision} / {!abort_decision}.  The commit record is the
    durability point: it is synced, and recovery only applies a
    decision's deltas when its commit record survives.

    {!Replayer} reads a log back, one record at a time, for recovery
    and replication followers alike: records inside an aborted frame,
    or inside a frame still open when the log ends (a crash
    mid-decision), are never committed; a nested frame commits into
    its parent and becomes durable only when the outermost frame
    commits — the paper's decisions run as nested transactions. *)

type t

val attach : Wal.writer -> Store.Base.t -> t
(** Start journaling the base's change feed. *)

val detach : t -> unit
(** Stop journaling (unsubscribes; the writer stays open). *)

val writer : t -> Wal.writer
val depth : t -> int
(** Currently open decision frames. *)

val begin_decision : t -> string -> unit
val commit_decision : t -> string -> unit
(** Appends the commit record and syncs the log — unless a batch is
    open, in which case the sync is deferred to {!commit_batch}. *)

val abort_decision : t -> string -> unit
val artifact : t -> string -> string -> unit
val note : t -> string -> string -> unit
val sync : t -> unit

(** {1 Group commit}

    A batch brackets whole decision frames between a pair of reserved
    marker records and defers every per-decision sync to a single
    end-of-batch sync — the group-commit durability point.  The
    {!Replayer} holds the bracket as an outer frame: a batch whose end
    marker never hit the disk (crash mid-batch) commits none of its
    decisions, in recovery and on a follower that streams the log,
    which is exactly right because no decision in it was acknowledged
    (acks only go out after {!commit_batch} returns). *)

val begin_batch : t -> string -> unit
(** Open a batch tagged with an (informational) id.
    @raise Invalid_argument if a batch or a decision frame is open. *)

val commit_batch : t -> string -> unit
(** Append the end marker and sync once.
    @raise Invalid_argument if no batch is open. *)

val in_batch : t -> bool

val batch_begin_key : string
(** The reserved [Note] key bracketing a batch ([commit_batch] writes
    {!batch_end_key}); exposed for tests and log tooling. *)

val batch_end_key : string

(** {1 Replay} *)

type item =
  | Record of Wal.record
      (** a committed [Put], [Tomb], [Artifact] or [Note] *)
  | Decision of { cls : string; id : string; items : item list }
      (** a committed decision frame: the class its begin record named
          ([""] when the begin is not in the log), the decision id, and
          its contents in log order, nested decisions included *)

(** Incremental frame resolution: fed a log's records in order, it
    returns what each one commits. *)
module Replayer : sig
  type t

  val create : unit -> t

  val feed : t -> Wal.record -> item list
  (** What this record commits, in log order: itself when no frame is
      open; a whole decision at its outermost commit record; a batch's
      contents at its end marker.  Begin, abort and marker records
      commit nothing themselves; an abort drops its decision frame. *)

  val depth : t -> int
  (** Open frames, decision and batch alike.  [0] means the log is at a
      frame edge: everything fed so far is committed or dropped. *)

  val reset : t -> unit
  (** Drop every open frame: a log that ends inside one was cut by a
      crash. *)
end

val apply : Store.Base.t -> Wal.record -> (bool, string) result
(** Apply a committed [Put] or [Tomb] to a base; [Ok true] when the
    base changed, and every other record is [Ok false].  Replay is
    idempotent so a crash between checkpoint and log truncation stays
    safe: a [Put] whose identical proposition is already present is
    skipped (a differing one is replaced), and a [Tomb] for an absent
    id is skipped. *)
