(** The write-ahead log: binary, length-prefixed, CRC-32-checksummed
    record framing.

    Layout: an 8-byte magic header, then a sequence of frames
    [u32le payload-length | u32le crc32(payload) | payload].  A record
    is valid only if its full frame is present and the checksum
    matches; {!scan} returns the longest valid prefix and the byte
    offset at which replay must stop, so a crash mid-write (torn tail)
    or a flipped bit never corrupts the records before it.  A whole
    frame whose record does not decode is refused instead.

    Records carry proposition-base deltas ([Put]/[Tomb], the
    {!Store.Base.on_change} feed) plus repository-level events
    (decision boundaries, artifact writes), making a decision commit
    O(delta) where a snapshot is O(repository).

    A payload is a one-byte tag and its fields.  [str] is a u32le
    length and the bytes; [varint] and [vstr] are {!Codec}'s.

    {v
    tag  record            fields
    'p'  Put               a {!Codec} proposition record, [sym] = name:vstr
    'T'  Tomb              id:str
    'B'  Decision_begin    class:str
    'C'  Decision_commit   decision:str
    'A'  Decision_abort    reason:str
    'R'  Artifact          name:str sexp:str
    'N'  Note              key:str value:str
    v}

    In the compact ['p'] layout each set bit of the record's flags omits
    a field equal to the id, or an [Always] time, so an individual
    [<x, x, x, Always>] spells its name once.  ['P'], the [Put] layout
    before it, is no longer read: a log holding one is refused with an
    error naming it. *)

open Kernel

type record =
  | Put of Prop.t  (** a proposition was inserted *)
  | Tomb of Prop.id  (** a proposition was removed *)
  | Decision_begin of string  (** decision class or tag *)
  | Decision_commit of string  (** committed decision instance id *)
  | Decision_abort of string  (** reason *)
  | Artifact of string * string  (** object name, rendered artifact sexp *)
  | Note of string * string  (** generic repository event, key/value *)

val magic : string
(** The 8-byte file header. *)

val header_bytes : int
(** [String.length magic]: the absolute offset of the first frame. *)

(** {1 Sinks}

    A sink is where framed bytes go; the fault-injection harness
    ({!Fault}) wraps one to simulate crashes. *)

type sink = {
  write : string -> unit;
  sync : unit -> unit;
  close : unit -> unit;
}

val file_sink : ?append:bool -> ?fsync:bool -> string -> sink
(** Write to a file.  [sync] flushes the channel and, when [fsync] is
    set, forces the bytes to disk.  [append] (default false) reopens an
    existing log without truncating it. *)

val buffer_sink : Buffer.t -> sink
(** In-memory sink (tests and fault injection). *)

val sync_dir : string -> (unit, string) result
(** Force a directory's entries to disk: a rename, or a file created
    in it, survives a power loss only after this. *)

(** {1 Writing} *)

type writer

val writer : ?header:bool -> sink -> writer
(** Frame records into the sink.  [header] (default true) emits the
    magic bytes first; pass false when appending to an existing log. *)

val append : writer -> record -> unit

val sync : writer -> unit
(** Sync the sink, unless no byte was appended since the last sync:
    what that sync made durable still is. *)

val close : writer -> unit
val bytes_written : writer -> int
(** Total bytes pushed to the sink, header included. *)

val records_written : writer -> int

(** {1 Encoding (exposed for tests)} *)

val encode : record -> string
(** The payload bytes of one record, without framing. *)

val decode : string -> (record, string) result
val frame : record -> string
(** A fully framed record: length, checksum, payload. *)

(** {1 Recovery scan} *)

type scan_result = {
  records : record list;  (** the longest valid prefix, in log order *)
  valid_bytes : int;  (** replay boundary: end of the last valid frame *)
  truncated : string option;
      (** [None] on a clean end-of-log; [Some reason] when a torn or
          corrupt tail was cut at [valid_bytes] *)
}

val scan : string -> (scan_result, string) result
(** Scan raw log bytes (header included).  Never raises.  A framing
    violation — bad magic, impossible length, short frame, checksum
    mismatch, or an empty payload (a zero-filled tail reads as length 0
    with CRC 0, the CRC-32 of "") — truncates the log there.  A
    non-empty frame that passes its checksum was written whole, so a
    record in it that does not decode (one another build wrote) is no
    torn tail: it is an [Error] naming the frame's offset and the
    reason, since cutting the log there would drop every decision after
    it. *)

val scan_from :
  ?expect_header:bool -> string -> offset:int -> (scan_result, string) result
(** Like {!scan} but start the frame walk at absolute byte [offset] —
    the replication "frames since" primitive.  With [expect_header]
    (default true) the magic bytes at position 0 are still validated
    and [offset] is clamped to [header_bytes]; pass
    [~expect_header:false] to scan a headerless byte range (a chunk
    shipped mid-log).  [valid_bytes] stays absolute within [data], so
    a caller resumes at exactly [valid_bytes]. *)

val frame_end : string -> int -> int
(** [frame_end data pos] is the offset just past the frame that starts
    at [pos], which must be the start of a whole frame.  The records of
    a scan are the frames at its first offset, at [frame_end] of that,
    and so on, so a caller that consumes them one at a time tracks its
    byte position with this.  Re-encoding a record need not give its
    size on disk: the decoder accepts a varint longer than it needs and
    a field the flags could have omitted.
    @raise Invalid_argument when fewer than four bytes follow [pos]. *)

val read_file : string -> (scan_result, string) result
(** Read and {!scan} a log file; {!scan}'s [Error] is prefixed with the
    path.  A file that is not empty, not a proper prefix of {!magic} (a
    creation torn before its first sync) and does not start with the
    magic is refused with an [Error] naming it: {!scan} would read it as
    holding no records. *)
