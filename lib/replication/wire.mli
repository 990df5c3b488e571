(** Request/response codecs for the replication command family.

    Requests are plain protocol lines ([repl hello], [repl token],
    [repl snapshot FROM], [repl frames GEN OFFSET MAX WAITMS],
    [repl ack NAME GEN OFFSET EPOCH VERSION], [wait EPOCH VERSION [MS]]);
    responses are a space-separated integer header, then — for
    snapshot/frames — a newline and a raw binary chunk (the framed
    protocol is binary-safe, so no escaping). *)

val protocol_version : int
(** Sent in the hello; a follower refuses a leader that speaks another
    version.  It changes with the WAL record layout and the checkpoint
    layout, since shipped chunks are raw log bytes and the snapshot body
    is the checkpoint file. *)

(** {1 Requests} *)

val hello : string
val token : string
val snapshot : from:int -> string
val frames : gen:int -> offset:int -> max_bytes:int -> wait_ms:int -> string

val ack :
  name:string -> gen:int -> offset:int -> epoch:int -> version:int -> string

val wait : epoch:int -> version:int -> timeout_ms:int -> string

(** {1 Responses} *)

type hello_resp = { h_generation : int; h_version : int }
type token_resp = { t_epoch : int; t_version : int }

type snapshot_resp = {
  s_generation : int;  (** generation the checkpoint precedes *)
  s_offset : int;  (** first frame offset in that generation *)
  s_total : int;  (** checkpoint size in bytes *)
  s_chunk : string;
}

type frames_resp = {
  f_next_gen : int;
  f_next_offset : int;
  f_caught_up : bool;
      (** the chunk (possibly empty) ends at the leader's synced head *)
  f_epoch : int;  (** leader generation at capture time *)
  f_version : int;  (** leader repository version at capture time *)
  f_chunk : string;
}

val format_hello : generation:int -> version:int -> string
val parse_hello : string -> (hello_resp, string) result
val format_token : epoch:int -> version:int -> string
val parse_token : string -> (token_resp, string) result

val format_snapshot :
  generation:int -> offset:int -> total:int -> chunk:string -> string

val parse_snapshot : string -> (snapshot_resp, string) result

val format_frames :
  next_gen:int -> next_offset:int -> caught_up:bool -> epoch:int ->
  version:int -> chunk:string -> string

val parse_frames : string -> (frames_resp, string) result

(** {1 Session tokens}

    A client that commits on the leader carries an "EPOCH:VERSION"
    token ([repl token] / [gkbms client --min-version]); followers
    block on it ([wait]) before answering, which is the read-your-writes
    guarantee. *)

val format_session_token : epoch:int -> version:int -> string
val parse_session_token : string -> (int * int, string) result

val token_le : int * int -> int * int -> bool
(** Lexicographic order: epochs (leader WAL generations) grow strictly
    across leader restarts, so tokens stay comparable even though the
    version counter resets on recovery. *)

val is_resync_error : string -> bool
(** True when a leader error payload demands a follower re-bootstrap
    (its cursor points at a pruned archive or past the log head). *)

(** {1 The [wait] verb}

    [wait EPOCH VERSION [MS]] blocks until the answering end's token
    covers (EPOCH, VERSION), for at most MS milliseconds (default
    5,000, clamped to [\[0, 60000\]]).  A leader and a follower answer
    it alike, up to the role word in the timeout error. *)

val words : string -> string list
(** A request line's space-separated words. *)

val clamp_wait_ms : int -> int
(** Into [\[0, 60000\]]: the bound on every long poll a request asks for. *)

val await :
  current:(unit -> int * int) -> epoch:int -> version:int -> timeout_ms:int ->
  (int * int, int * int) result
(** Poll [current] every 10 ms until its token covers (epoch, version)
    ([Ok token]) or [timeout_ms] passes ([Error token]). *)

val answer_wait :
  role:string -> current:(unit -> int * int) -> string list -> string
(** The answer to [wait] with these arguments (the words after the
    verb): the covering token, a timeout error naming [role] and its
    token, or the usage error. *)
