(** The unified metrics registry.

    A registry names counters, gauges and {!Histogram}s, each with an
    optional label set, and renders them as one {!snapshot} (exported
    as JSON or Prometheus text by {!Export}).  Registration is
    idempotent: asking for an existing (name, labels) pair returns the
    same handle, so every layer can keep a module-level lazy handle and
    updates from anywhere in the process aggregate into one series.

    Updates are wait-free atomic increments (counters/gauges) or one
    short mutex hold (histograms); registration takes the registry
    mutex and is expected to happen once per series.  The process-wide
    {!default} registry is what the CLI [stats] command and the server
    [metrics] command snapshot; a private registry ({!create}) keeps
    independently scoped series, as the registry's own tests do. *)

module Counter : sig
  type t

  val make : unit -> t
  (** A standalone counter (not attached to any registry) — the
      building block layer-local stats records read through. *)

  val inc : ?by:int -> t -> unit
  (** No-op while {!Runtime.enabled} is off; [by] defaults to 1. *)

  val get : t -> int
end

module Gauge : sig
  type t

  val make : unit -> t

  val set : t -> float -> unit
  (** No-op while {!Runtime.enabled} is off. *)

  val add : t -> float -> unit
  val get : t -> float
end

type t

val create : unit -> t

val default : t
(** The process-wide registry every built-in instrumentation site
    reports into. *)

(** {1 Registration}

    [help] is kept from the first registration of a name; [labels]
    default to []. Registering an existing (name, labels) pair with a
    different metric kind raises [Invalid_argument]. *)

val counter :
  ?help:string -> ?labels:(string * string) list -> t -> string -> Counter.t

val gauge :
  ?help:string -> ?labels:(string * string) list -> t -> string -> Gauge.t

val histogram :
  ?help:string -> ?labels:(string * string) list -> ?buckets:int -> t ->
  string -> Histogram.t

(** {1 Snapshots} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Histogram.snapshot

type sample = {
  name : string;
  labels : (string * string) list;  (** in registration order *)
  help : string;
  value : value;
}

val snapshot : t -> sample list
(** All series, sorted by name then labels. *)

val find : t -> ?labels:(string * string) list -> string -> sample option
