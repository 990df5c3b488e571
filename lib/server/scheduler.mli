(** The read/write scheduler.

    Commands are classified by their first word: reads ([ask], [derive],
    [focus], [stats], …) run concurrently under the shared side of a
    writer-preferring readers-writer lock, while writes ([run], [map],
    [resolve], …) serialize on the exclusive side — one writer at a
    time, no readers in flight, matching the decision log's total order
    (and, when a WAL is attached, the journal's).

    Note the KB's internal memo caches mean even "read" commands mutate
    engine state, so the server additionally serializes actual command
    evaluation ({!Daemon}); the shared mode is what lets *cached*
    responses be served in parallel and is where the read throughput
    scaling comes from. *)

type t

val create : unit -> t

val read : t -> (unit -> 'a) -> 'a
(** Run under the shared lock.  Blocks while a writer is active or
    waiting (writer preference avoids writer starvation). *)

val write : t -> (unit -> 'a) -> 'a
(** Run under the exclusive lock. *)

type stats = {
  reads : int;  (** completed shared sections *)
  writes : int;  (** completed exclusive sections *)
  peak_readers : int;  (** most shared sections ever in flight at once *)
}

val stats : t -> stats

(** {1 Command classification} *)

val classify : string -> [ `Read | `Write ]
(** By first word; unknown commands classify as reads (the shell answers
    them with an error without touching the repository). *)

val cacheable : string -> bool
(** Deterministic read commands whose response may be served from the
    version-keyed cache, given the line as {!Gkbms.Shell.resolve} makes
    it explicit: the browsing verbs ([focus], [config], [menu], …) are
    cacheable because resolution names the cursor or level a bare form
    would read, and a hit replays their session update through
    {!Gkbms.Shell.observe}.  Commands with side effects ([save]) or
    time-varying output ([slo], [trace]) are excluded. *)

type cache_mode = [ `Always | `Never ]

val verb_entry : string -> ([ `Read | `Write ] * cache_mode) option
(** The explicit classification table entry for a verb, if it has one.
    {!classify} and {!cacheable} are derived from this table; a verb
    with no entry classifies as an uncacheable read.  Exposed so the
    table-driven test can insist every shell verb is listed. *)

val known_verbs : string list
(** Every verb with an explicit table entry. *)

(** {1 Write-batch admission}

    The group-commit admission queue: writers {!Batch.submit} work
    items as they arrive, and a single flusher thread blocks in
    {!Batch.drain} until the accumulated batch reaches [max] items,
    stops growing between two yields, or is [window_us] µs old —
    whichever comes first.  A lone writer is therefore a batch of one;
    under load the next batch accumulates while the previous one
    commits, so batches mostly form by natural accumulation. *)
module Batch : sig
  type 'a t

  val create : max:int -> window_us:int -> 'a t
  (** @raise Invalid_argument if [max < 1] or [window_us < 0]. *)

  val submit : 'a t -> 'a -> bool
  (** Enqueue an item; [false] if the queue was closed instead. *)

  val drain : 'a t -> 'a list
  (** Block until a batch is due and take it, at most [max] items in
      submission order.  Overshoot past the cap stays queued and seeds
      the next batch, whose window restarts at the take; [[]] once the
      queue is closed and drained.  Single consumer. *)

  val close : 'a t -> unit
  (** Refuse further submissions and wake the flusher; already-queued
      items still drain. *)
end
