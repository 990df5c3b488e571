(** Command classification and write-batch admission.

    Commands are classified by their first word: writes ([run], [map],
    [resolve], …) go to the group-commit batch ({!Batch}) and commit in
    decision-log order; reads ([ask], [derive], [focus], [stats], …) are
    answered on the session's own thread.  Both evaluate under the
    daemon's one repository lock ({!Daemon.exclusive}); a cacheable read
    that the version-keyed {!Cache} answers takes no lock at all. *)

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
    time-varying output ([trace]) are excluded. *)

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
