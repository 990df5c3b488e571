(** Planner statistics: per-predicate cardinalities and per-argument
    distinct-value counts, maintained incrementally.

    The collector is fed tuple-level deltas — either directly
    ({!observe_add}/{!observe_remove}), from a whole Datalog EDB
    ({!seed_datalog}), or live off a proposition base
    ({!attach_base}), where the caller supplies the mapping from a
    stored proposition to the extensional tuples it contributes (the
    CML layer knows that mapping; the planner does not).

    Distinct counts are exact: each argument position keeps a
    value→multiplicity table, so retractions decrement correctly.  The
    tables are keyed by unboxed ints (a symbol's interned code, an
    integer constant's value).  A position declared a key
    ({!declare_key}) keeps no table: its distinct count is the row
    count.
    Every predicate also exports a [gkbms_datalog_pred_rows{pred=...}]
    gauge through the default obs registry, which is what
    [stats --prom] renders.  A gauge appears when a collector first
    observes its predicate: a KB builds its collector on the first read
    ([Cml.Kb.planner_stats]), so until [explain] or the CLI [stats]
    command reads the statistics, the registry holds none. *)

open Kernel

type t

val create : unit -> t

val declare_key : t -> Symbol.t -> int -> unit
(** Declare argument [i] of the predicate unique among its stored
    tuples (a proposition id, say).  Its distinct count is then the row
    count, and no value table is kept for it.  The caller guarantees
    uniqueness. *)

val observe_add : t -> Symbol.t -> Logic.Term.t array -> unit
(** Record one stored tuple of a predicate.  Tuples are ground: a
    variable argument is not counted. *)

val observe_remove : t -> Symbol.t -> Logic.Term.t array -> unit
(** Record the retraction of a stored tuple.  A tuple with a value that
    has no occurrence left at some counted position cannot be stored,
    and its removal changes nothing; any other removal is taken as the
    caller's word that the tuple is stored. *)

val rows : t -> Symbol.t -> int option
(** Current cardinality estimate; [None] if the predicate has never
    been observed. *)

val distinct : t -> Symbol.t -> int -> int option
(** Distinct values seen at argument position [i] (0-based); [None] if
    unobserved or out of range. *)

val preds : t -> (Symbol.t * int) list
(** All observed predicates with their row counts, sorted by name. *)

val seed_datalog : t -> Logic.Datalog.t -> unit
(** Bulk-observe every explicitly stored fact of an engine (one-time
    warm-up for engines not fed through {!attach_base}). *)

val attach_base :
  t ->
  Store.Base.t ->
  tuples_of:(Prop.t -> (Symbol.t * Logic.Term.t array) list) ->
  Store.Base.subscription
(** Subscribe to a proposition base so the collector tracks every
    insertion/retraction from now on.  [tuples_of p] must list the
    extensional tuples proposition [p] contributes to the deductive
    view (the same enumeration the engine's external relations use).
    Returns the subscription id for {!Store.Base.off_change}. *)
