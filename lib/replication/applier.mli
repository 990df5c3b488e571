(** Replay of a shipped WAL stream into a follower's repository.

    Records are fed in log order through the same
    {!Durability.Journal.Replayer} that recovery reads a log with, so a
    follower commits exactly what the leader's recovery would: a
    decision frame is applied only at its {e outermost} commit record,
    a group-commit batch only at its end marker, and an aborted
    decision frame never.  What the replayer commits is applied through
    the live repository ({!Gkbms.Durable.replay_record}, the decision
    log, per-decision JTMS install) with the decision boundary events
    re-emitted, so the follower's own attached {!Gkbms.Durable}
    journals the replayed decision exactly as the leader's did.  A
    follower killed mid-frame therefore never persists half a
    decision: its own WAL holds either the whole frame or a dangling
    one that recovery rolls back.

    Application is idempotent per decision: a frame whose decision id is
    already in the follower's log (an overlap replay after the persisted
    cursor lagged the applied state) is skipped without journaling.

    Callers must hold the follower daemon's repository lock
    ({!Server.Daemon.exclusive}) while feeding. *)

type t

val create : Gkbms.Repository.t -> t

val feed : t -> Durability.Wal.record -> (unit, string) result

val depth : t -> int
(** Currently open (held) decision and batch frames.  [0] means the
    stream is at a frame edge — the only points at which a resume
    cursor may be persisted. *)

val reset : t -> unit
(** Drop held open frames.  Called at generation boundaries: a
    recovery-archived log may end inside a decision frame or a batch
    that the leader's recovery rolled back, and the next generation
    restarts from a clean edge. *)

val decisions_applied : t -> int
