(** Per-command latency SLOs.

    Objectives come from the [GKBMS_SLO] environment variable (e.g.
    ["run=50ms,derive=10ms,default=250ms"]; durations take [ms], [us],
    [s] suffixes, bare numbers are milliseconds) or {!configure}; a
    ["default"] objective (250ms unless overridden) catches every
    command without its own entry.  Each observation feeds
    [gkbms_slo_requests_total{cmd}] / [gkbms_slo_breaches_total{cmd}]
    counters and a [gkbms_slo_burn_rate{cmd}] gauge (breach ratio over
    the error budget, [GKBMS_SLO_BUDGET], default 1%) in
    {!Registry.default}, so breaches and burn rate ride the existing
    Prometheus export; {!render} reads its tallies from those counters.

    The replication long-poll verbs ([repl], [wait]) are seeded with a
    generous 2s objective — blocking is their healthy behaviour — and
    every seed can be overridden by the spec. *)

type objective = { cmd : string; target_s : float }

val parse_spec : string -> (objective list, string) result
val configure : string -> (unit, string) result
(** Replace the objective table from a spec string. *)

val set_objectives : objective list -> unit
val objective_for : string -> float
(** The target for a command, falling back to ["default"]. *)

val observe : cmd:string -> float -> bool
(** [observe ~cmd seconds] accounts one request; returns [true] if it
    breached its objective. *)

val render : unit -> string
(** Human-readable objective/requests/breaches/burn table (the [slo]
    verb), read from the request and breach counters. *)

val reset_counts : unit -> unit
(** Zero the per-command request and breach counters and the burn
    rates (objectives stay). *)

val env_errors : (string -> string option) -> string list
(** [env_errors getenv] checks [GKBMS_SLO] and [GKBMS_SLO_BUDGET] as
    [getenv] returns them: one message naming the variable for each
    that is set but malformed (startup then keeps that variable's
    default). *)
