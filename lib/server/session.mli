(** A per-connection session: one {!Gkbms.Shell} over the shared
    repository, a request queue bounded at 64, and an event listener
    collecting decisions committed by *any* session since this client
    last polled ([news] — the paper's §2 group setting, where designers
    working on one shared KB see each other's decisions land).

    {!run} drives a connection with two threads: a receiver that decodes
    frames into the queue, and an executor that answers them.  Sessions
    may pipeline: write-class commands are handed to the group-commit
    flusher without waiting for their acks, and any other command first
    waits for the session's outstanding writes, so a session always
    reads its own writes.  Response frames never interleave.

    The listener is detached with {!Gkbms.Repository.off_event} when the
    connection ends, so a disconnecting client leaks no closure. *)

type t

val sid : t -> int
val shell : t -> Gkbms.Shell.t
val last_active : t -> float

val create :
  sid:int -> repo:Gkbms.Repository.t -> transport:Protocol.transport -> t

val take_news : t -> string
(** Render and clear the decisions committed since the last poll. *)

val shutdown : t -> unit
(** Wake the receiver with end-of-stream (idle reaper / server stop). *)

val run :
  t ->
  grouped:(Protocol.request -> bool) ->
  submit_write:
    (t -> Protocol.request -> finish:(Protocol.response -> unit) -> unit) ->
  process:(t -> Protocol.request -> Protocol.response) ->
  on_bytes:(incoming:int -> outgoing:int -> unit) ->
  on_inflight:(int -> unit) ->
  on_protocol_error:(string -> unit) ->
  unit
(** Serve the connection to completion: receive frames into the queue
    (blocking when it is full — backpressure), execute them on the
    executor thread, write responses back.  A request for which
    [grouped] is true is submitted through [submit_write] without
    waiting for its response (its [finish] acks it later, from the
    flusher); everything else runs synchronously through [process]
    after the outstanding writes drain, so per-session responses stay
    in request order.  [on_inflight] is called with [+1] per request
    received and [-1] per response written.  Returns once the peer
    disconnects, sends [quit], or the transport is shut down; the
    event listener is detached and the transport closed before
    returning. *)
