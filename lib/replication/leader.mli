(** Leader side of WAL-shipping replication.

    [attach daemon] installs a {!Server.Daemon} extension that answers
    the [repl] command family on the daemon's ordinary connections:

    - [repl hello] — banner with protocol version, generation, version;
    - [repl token] — the leader's current (epoch, version) session token;
    - [repl snapshot FROM] — a chunk of the current checkpoint file, for
      follower bootstrap (the header names the generation whose first
      frame follows the checkpointed state);
    - [repl frames GEN OFFSET MAX WAITMS] — a chunk of committed WAL
      frames at the follower's cursor, long-polling up to WAITMS when
      already at the head; an unservable cursor (pruned archive, offset
      past the head) gets a [resync] error telling the follower to
      re-bootstrap;
    - [repl ack NAME GEN OFFSET EPOCH VERSION] — follower progress
      report, recorded for [repl status] and exported as per-follower
      lag gauges;
    - [wait EPOCH VERSION [MS]] — block until the leader reaches the
      token (trivially true on the leader itself; kept symmetric with
      followers so clients can send it to either end).

    Every state capture ([hello], [token], [snapshot], [frames]) holds
    the daemon's repository lock ({!Server.Daemon.exclusive}), so a
    frames response never cuts a decision frame or a batch in half and
    its (epoch, version) header describes exactly the shipped prefix. *)

type t

val attach : Server.Daemon.t -> (t, string) result
(** Requires the daemon to have an attached WAL
    ({!Server.Daemon.attach_durable}), and sets its retention
    ({!Gkbms.Durable.set_retention}) to {!retained_generations}: only a
    leader's checkpoints keep rotated logs.  Snapshot chunks are at
    most 1 MiB. *)

val retained_generations : int
(** 8: the archived generations a leader's rotation keeps for followers
    streaming behind the head.  A follower further behind gets a
    [resync] error and re-bootstraps from the snapshot. *)

val followers : t -> (string * (int * int * int * int)) list
(** Last acked (gen, offset, epoch, version) per follower name. *)
