(** Write-batch admission: the daemon hands every line whose verb the
    shell's table classes a write ({!Gkbms.Shell.verb_class}) to the
    group-commit batch, where it commits in decision-log order. *)

(** The group-commit admission queue: writers {!Batch.submit} work
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
