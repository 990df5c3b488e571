(** The version-keyed response cache.

    Responses of deterministic read commands are stored under the
    repository's data-version counter ({!Gkbms.Repository.version},
    bumped from the {!Gkbms.Repository.on_event} feed whenever a
    decision commits, is retracted, or an artifact is written).  The
    cache holds entries of exactly one generation: when a lookup
    presents a newer version the whole table is dropped — so any
    committed decision invalidates the cache exactly once, and a stale
    response can never be served.

    Lookups and stores take an explicit [version] so the caller can pin
    the version it observed *while holding the repository lock*
    ({!Daemon.exclusive}): a response computed at version [v] must not
    be registered under a later one.  Neither takes that lock, so a hit
    is served without it. *)

type t

val create : ?capacity:int -> unit -> t
(** [capacity] (default 4096) bounds the entry count; overflow drops the
    table (counted as an eviction). *)

val find : t -> version:int -> string -> string option
val store : t -> version:int -> string -> string -> unit

type stats = {
  hits : int;
  misses : int;
  invalidations : int;  (** generation drops triggered by a version bump *)
  evictions : int;  (** generation drops triggered by capacity *)
  entries : int;
  generation : int;  (** version the current entries belong to *)
}

val stats : t -> stats
