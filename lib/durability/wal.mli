(** The write-ahead log: binary, length-prefixed, CRC-32-checksummed
    frames, one per decision.

    Layout: an 8-byte magic header, then a sequence of frames
    [u32le payload-length | u32le crc32(payload) | payload].  A frame
    is valid only if it is all present and its checksum matches;
    {!scan} returns the longest valid prefix and the byte offset at
    which replay must stop, so a crash mid-write (torn tail) or a
    flipped bit never corrupts the frames before it.  A whole frame
    whose records do not decode is refused instead.

    Records carry proposition-base deltas ([Put]/[Tomb], the
    {!Store.Base.on_change} feed) plus repository-level events
    (decision boundaries, artifact writes), making a decision commit
    O(delta) where a snapshot is O(repository).

    {b Frames.}  A frame holds a decision: it opens at a
    [Decision_begin] outside any decision and closes at that
    decision's commit or abort, so nested decisions stay inside it.  A
    record outside every decision (a group-commit marker, an object
    created outside a decision) is a frame of its own.  A frame closes
    before a record that would take it past 512 KiB, even inside a
    decision, so a frame fits one replication chunk; the replayer
    ({!Journal.Replayer}) joins a decision split across frames.  A
    payload is ['F'] and then the frame's records, each a one-byte tag
    and its fields.

    {b Names, once per frame.}  A [sym] is a varint [v]: a serial id
    [p<n>] ({!Kernel.Symbol.serial_number}) is [2n + 1]; an interned
    name is [0] followed by its [vstr] at its first use in the frame,
    where it takes the frame's next index, and [2 (index + 1)] after
    that.  A decision's class or id, or an artifact's name, is a
    [name]: the [sym] of the symbol it names, or [0] and a [vstr] when
    it names none.  The dictionary starts empty in every frame, so
    each frame decodes alone: a torn tail is cut, and {!scan_from}
    starts, at any frame boundary.  [varint] and [vstr] are
    {!Codec}'s.

    {v
    tag  record            fields
    'p'  Put               a {!Codec} proposition record, its symbols syms
    'T'  Tomb              id:sym
    'B'  Decision_begin    class:name
    'C'  Decision_commit   decision:name
    'A'  Decision_abort    reason:vstr
    'R'  Artifact          name:name sexp:vstr
    'N'  Note              key:vstr value:vstr
    v}

    This is the only layout a build reads.  A payload without the
    ['F'], the one record per frame that logs held before frames held
    decisions, does not decode, so {!scan} refuses a log that holds
    one, naming that layout. *)

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
  write : string -> int -> int -> unit;
      (** [write s pos len] takes [len] bytes of [s] from [pos]; [s] is
          reused after the call returns *)
  sync : unit -> unit;  (** raises when the bytes may not be durable *)
  close : unit -> unit;
}

val file_sink : ?append:bool -> ?fsync:bool -> string -> sink
(** Write to a file.  [sync] flushes the channel and, when [fsync] is
    set, forces the bytes to disk; a failed fsync raises its
    [Unix.Unix_error].  [append] (default false) reopens an existing
    log without truncating it. *)

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
(** Add a record to the open frame, and write the frame once it holds
    a whole decision (or the record is outside every decision).
    @raise Invalid_argument on a closed writer, the error of the write
    or sync that failed on a writer where one did, and [Failure] for a
    record over 64 MiB, which no frame holds (the writer then refuses
    everything, as after a failed sync). *)

val sync : writer -> unit
(** Sync the sink, unless no frame was written since the last sync:
    what that sync made durable still is.  So a sync inside a decision
    writes nothing.  A failed sync raises, and so does every later
    {!append} and {!sync}, with the same error: a retried fsync can
    report success after the kernel dropped the pages. *)

val close : writer -> unit
(** Sync and close; a frame still open is dropped, as replay would
    roll its decision back. *)

val bytes_written : writer -> int
(** Bytes of whole frames pushed to the sink, header included. *)

val records_written : writer -> int
(** Records appended, in written frames or the open one. *)

(** {1 Encoding (exposed for tests)} *)

val encode : record list -> string
(** The payload of one frame holding these records, without framing. *)

val decode : string -> (record list, string) result
(** The records of a payload. *)

(** {1 Recovery scan} *)

type frame = {
  records : record list;  (** in log order *)
  stop : int;  (** absolute offset just past the frame *)
}

type scan_result = {
  frames : frame list;  (** the longest valid prefix, in log order *)
  valid_bytes : int;  (** replay boundary: end of the last valid frame *)
  truncated : string option;
      (** [None] on a clean end-of-log; [Some reason] when a torn or
          corrupt tail was cut at [valid_bytes] *)
}

val records : scan_result -> record list
(** Every frame's records, in log order. *)

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
    the replication "frames since" primitive; [offset] must be a frame
    boundary.  With [expect_header] (default true) the magic bytes at
    position 0 are still validated and [offset] is clamped to
    [header_bytes]; pass [~expect_header:false] to scan a headerless
    byte range (a chunk shipped mid-log).  [valid_bytes] and each
    frame's [stop] stay absolute within [data], so a caller resumes at
    exactly [valid_bytes]. *)

val read_file : string -> (scan_result, string) result
(** Read and {!scan} a log file; {!scan}'s [Error] is prefixed with the
    path.  A file that is not empty, not a proper prefix of {!magic} (a
    creation torn before its first sync) and does not start with the
    magic is refused with an [Error] naming it: {!scan} would read it as
    holding no records. *)
