(** The blocking client library: one request in flight at a time,
    request ids checked against response ids.  Works over a Unix-domain
    socket ({!connect_unix}) or any {!Protocol.transport} (the loopback
    pair from {!Daemon.connect}). *)

type t

val of_transport : Protocol.transport -> t

val connect_unix : ?handshake:bool -> string -> (t, string) result
(** Connect to a Unix-domain socket.  With [handshake] (default false)
    a [ping] round-trip is performed before the client is returned, so
    a server that accepted the connection but died before serving it
    fails here — inside the retry window — rather than on the first
    real request.  Connect (and handshake) failures with reset-shaped
    errnos (ECONNRESET/EPIPE) are retried once; a follower restarting
    under test does exactly this. *)

val retriable : exn -> bool
(** True for the reset-shaped errnos the connect retry absorbs
    (exposed for tests). *)

val with_retry : ?attempts:int -> (unit -> 'a) -> 'a
(** Run [f], retrying after a 50 ms pause while it raises a {!retriable}
    exception, at most [attempts] (default 2) runs in total (exposed
    for tests). *)

val request : ?ctx:Obs.Trace_context.t -> t -> string -> (string, string) result
(** Send one command line, block for its response.  [Ok payload] on a
    successful response, [Error payload] when the server reports an
    error, [Error _] on transport failure or id mismatch.  [ctx], when
    given, rides the request frame so the server continues that
    distributed trace. *)

val pipeline :
  ?window:int -> t -> string list -> (string, string) result list
(** Send the commands keeping up to [window] (default 16, at least 1,
    at most {!Protocol.pipeline_limit}) requests in flight, reading
    responses on a second thread as they arrive, so a large reply never
    waits behind this client's own writes.  Responses are matched to
    requests by id, so out-of-order completion is fine; the returned
    list is in submission order.  On a transport failure every
    not-yet-answered command yields [Error _] and the transport is shut
    down.  Against a group-commit server, back-to-back writes submitted
    this way share one fsync. *)

val request_traced : t -> string -> (string, string) result * string
(** Like {!request}, but under a trace context — a child of the
    ambient {!Obs.Trace.current_context} if one is set, fresh
    otherwise — with a [client.send] span around the round trip.
    Returns the response and the 16-hex trace id. *)

val close : t -> unit
