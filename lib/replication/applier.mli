(** Frame-structured replay of a shipped WAL stream into a follower's
    repository.

    Records are fed in log order; everything inside a decision frame is
    buffered until the {e outermost} commit record arrives and is only
    then applied — through the live repository (store inserts, artifact
    writes, decision log, per-decision JTMS install) with the decision
    boundary events re-emitted, so the follower's own attached
    {!Gkbms.Durable} journals the replayed decision exactly as the
    leader's did.  A follower killed mid-batch therefore never persists
    half a decision: its own WAL holds either the whole frame or a
    dangling one that recovery rolls back.

    Application is idempotent per decision: a frame whose decision id is
    already in the follower's log (an overlap replay after the persisted
    cursor lagged the applied state) is skipped without journaling.

    Callers must hold the follower daemon's exclusive lock
    ({!Server.Daemon.exclusive}) while feeding. *)

type t

val create : Gkbms.Repository.t -> t

val feed : t -> Durability.Wal.record -> (unit, string) result
val feed_all : t -> Durability.Wal.record list -> (unit, string) result

val depth : t -> int
(** Currently open (buffered) decision frames.  [0] means the stream is
    at a frame boundary — the only points at which a resume cursor may
    be persisted. *)

val reset : t -> unit
(** Drop buffered open frames.  Called at generation boundaries: a
    recovery-archived log may end inside a frame that the leader rolled
    back, and the next generation restarts from a clean edge. *)

val records_fed : t -> int
val decisions_applied : t -> int
