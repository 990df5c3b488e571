(** Tracing spans and the slow-op log.

    A span is a named, timed scope with string attributes; spans nest
    per thread, so one {!with_span} inside another builds a tree.  When
    a root span (no open parent on its thread) completes it is pushed
    into a bounded ring of recent operations, and — if it took at least
    {!slow_threshold_s} — into the slow-op log, which therefore keeps
    the full span tree of every operation that blew the budget.

    Tracing is off by default: a [with_span] call then costs one atomic
    load and a branch, which is what keeps instrumented hot paths
    within the E19 overhead budget.  Toggling is safe at any time, from
    any thread (spans opened before a toggle finish normally), which is
    how the server's [trace on|off|dump] command drives live sessions. *)

type span = {
  span_name : string;
  mutable attrs : (string * string) list;  (** newest first *)
  start_s : float;  (** wall-clock seconds *)
  mutable duration_s : float;  (** -1 while the span is open *)
  mutable subspans : span list;  (** completed children, newest first *)
}

val children : span -> span list
(** Completed children in completion order (oldest first). *)

val set_enabled : bool -> unit
val enabled : unit -> bool

val set_slow_threshold_s : float -> unit
(** Operations at least this long enter the slow-op log.  0 captures
    everything.  The startup default is 0.1s, overridable by the
    [GKBMS_SLOW_MS] environment variable (milliseconds). *)

val slow_threshold_s : unit -> float

val threshold_of_ms_string : string -> float option
(** Parse a [GKBMS_SLOW_MS]-style value (non-negative milliseconds)
    into seconds; [None] on malformed input. *)

val env_errors : (string -> string option) -> string list
(** [env_errors getenv] is one message naming [GKBMS_SLOW_MS] when
    [getenv] returns it set but malformed (startup then keeps the
    100ms default), else []. *)

(** {1 Ambient trace context}

    The inbound {!Trace_context.t}, if any, for the calling
    (domain, thread).  Spans opened while a context is set
    automatically carry a [("trace", <hex id>)] attribute, which is
    how one trace id stitches span trees across processes.  Context
    propagation is independent of {!enabled} — followers still need
    the context for lag accounting when span recording is off. *)

val set_context : Trace_context.t option -> unit

val current_context : unit -> Trace_context.t option
(** Takes no lock while no thread has a context set. *)

val contexts_set : unit -> int
(** How many threads have a context set. *)

val with_context : Trace_context.t option -> (unit -> 'a) -> 'a
(** Run the thunk with the ambient context set (or cleared, for
    [None]); the previous context is restored even on raise. *)

val set_capacity : recent:int -> slow:int -> unit
(** Ring sizes (defaults 64 and 32); shrinking drops oldest entries. *)

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  The span is closed (and recorded, if
    it is a root) even when the thunk raises.  When tracing is off the
    thunk runs bare. *)

val add_attr : string -> string -> unit
(** Attach an attribute to the innermost open span of the calling
    thread; dropped when tracing is off or no span is open. *)

val recent : unit -> span list
(** Completed root spans, newest first. *)

val slow : unit -> span list
(** Slow-op log: root spans over the threshold, newest first. *)

val clear : unit -> unit
(** Drop both rings (open spans are unaffected). *)
