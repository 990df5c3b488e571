(** The wire protocol: length-prefixed, CRC-32-framed messages with
    request ids.

    One frame is [u32le payload-length | u32le crc32(payload) | payload]
    — the same framing discipline as the write-ahead log ({!Durability.Wal}),
    reusing {!Durability.Crc32}, so a torn or corrupted connection is
    detected rather than misparsed.  The payload is a tagged message: a
    request carries an id and one dialog-manager command line; a response
    echoes the id with a status byte and the rendered output.

    The codec serves one transport, a connected Unix-domain socket
    ({!fd_transport}): a client's connection to [serve] and an
    in-process connection ({!Daemon.connect}, a socket pair) alike, so
    tests and benches see the sockets' buffering and timeouts that
    remote clients see. *)

type request = {
  id : int;
  line : string;
  ctx : string option;
      (** encoded {!Obs.Trace_context}; [None] (and the untagged legacy
          framing) means the request starts no distributed trace *)
}
type response = { id : int; ok : bool; payload : string }
type frame = Request of request | Response of response

val max_frame : int
(** Upper bound on a payload; longer frames are treated as corruption. *)

val pipeline_limit : int
(** 64: the most requests a client keeps in flight on one connection.
    A server session stops reading while this many of its writes wait
    for their acks, so a client that sent more before reading any
    response would stall both ends once the socket buffers fill;
    {!Client.pipeline} caps its window here. *)

val encode : frame -> string
(** The full wire bytes of one frame (length, checksum, payload). *)

val decode_payload : string -> (frame, string) result
(** Decode an unframed payload (exposed for tests; {!next_frame} is the
    checked path). *)

(** {1 Transports} *)

type transport = {
  read : bytes -> int -> int -> int;  (** 0 means end-of-stream *)
  write : string -> unit;
  shutdown : unit -> unit;
      (** Wake any blocked reader with end-of-stream (idempotent); used
          by server shutdown and after a failed send. *)
  close : unit -> unit;
}

val fd_transport : Unix.file_descr -> transport
(** Wrap a connected socket (or pipe) file descriptor.  A read that
    fails, a timeout set with [SO_RCVTIMEO] included, reads as
    end-of-stream; a write that fails raises [Unix.Unix_error]. *)

(** {1 Framed reading and writing}

    One decoder with two entry points: a {!reader} pulls bytes from a
    transport until a frame is whole; a {!feeder} is handed bytes by a
    caller that reads its own sockets (say, from a [select] loop).  Both
    keep only the undecoded tail buffered. *)

type reader

val reader : transport -> reader

val next_frame : reader -> (frame, [ `Eof | `Corrupt of string ]) result
(** Block until one whole frame arrives.  [`Eof] is a clean end of
    stream on a frame boundary; a torn tail, a bad checksum, an
    oversized length or an undecodable payload is [`Corrupt]. *)

val bytes_consumed : reader -> int
(** Total bytes read so far (for the metrics). *)

type feeder

val feeder : unit -> feeder

val feed : feeder -> bytes -> int -> (frame list, string) result
(** Append the first [n] bytes of the buffer and return every frame
    they complete (possibly none).  An [Error] is a corrupt stream —
    bad checksum, oversized length, undecodable payload — and the
    connection should be dropped. *)

val write_frame : transport -> frame -> int
(** Write one frame; returns the number of bytes written. *)
