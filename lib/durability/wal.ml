open Kernel

type record =
  | Put of Prop.t
  | Tomb of Prop.id
  | Decision_begin of string
  | Decision_commit of string
  | Decision_abort of string
  | Artifact of string * string
  | Note of string * string

let magic = "GKBWAL1\n"

(* A record payload larger than this is taken as corruption, not data:
   it bounds what a flipped bit in a length field can make us read. *)
let max_payload = 1 lsl 26

(* ---------------- sinks ---------------- *)

type sink = {
  write : string -> unit;
  sync : unit -> unit;
  close : unit -> unit;
}

let g_appends =
  Obs.Registry.counter Obs.Registry.default "gkbms_wal_appends_total"
    ~help:"WAL records appended"

let g_append_bytes =
  Obs.Registry.counter Obs.Registry.default "gkbms_wal_append_bytes_total"
    ~help:"Framed bytes appended to the WAL"

let sync_hist fsync =
  Obs.Registry.histogram Obs.Registry.default "gkbms_wal_sync_us"
    ~labels:[ ("fsync", if fsync then "true" else "false") ]
    ~help:"WAL sink sync latency (flush, plus fsync when enabled)"

(* One increment per physical sink sync: group commit's whole point is
   to keep this counter far below the decision count *)
let g_fsyncs =
  Obs.Registry.counter Obs.Registry.default "gkbms_wal_fsyncs_total"
    ~help:"WAL file sink syncs (channel flush, plus fsync when enabled)"

let file_sink ?(append = false) ?(fsync = false) path =
  let flags =
    if append then [ Open_wronly; Open_append; Open_creat; Open_binary ]
    else [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
  in
  let oc = open_out_gen flags 0o644 path in
  let hist = sync_hist fsync in
  {
    write = (fun s -> output_string oc s);
    sync =
      (fun () ->
        let t0 = Obs.Runtime.now_s () in
        flush oc;
        (if fsync then
           try Unix.fsync (Unix.descr_of_out_channel oc)
           with Unix.Unix_error _ -> ());
        Obs.Registry.Counter.inc g_fsyncs;
        Obs.Histogram.observe hist ((Obs.Runtime.now_s () -. t0) *. 1e6));
    close = (fun () -> close_out oc);
  }

(* A rename or a new file is durable only once its directory is *)
let sync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) -> Error (dir ^ ": " ^ Unix.error_message e)
  | fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    (try Ok (Unix.fsync fd)
     with Unix.Unix_error (e, _, _) -> Error (dir ^ ": " ^ Unix.error_message e))

let buffer_sink buf =
  {
    write = Buffer.add_string buf;
    sync = (fun () -> ());
    close = (fun () -> ());
  }

(* ---------------- payload encoding ---------------- *)

let add_u32 buf n =
  Buffer.add_char buf (Char.chr (n land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char buf (Char.chr ((n lsr 24) land 0xff))

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

(* the log spells a symbol by its name: [Codec.add_name] writes it and
   [read_name] interns it back *)
let read_name s pos =
  match Codec.read_vstr s pos with
  | Ok (name, pos) -> Ok (Symbol.intern name, pos)
  | Error e -> Error e

let encode r =
  let buf = Buffer.create 64 in
  (match r with
  | Put p ->
    Buffer.add_char buf 'p';
    Codec.add_prop Codec.add_name buf p
  | Tomb id ->
    Buffer.add_char buf 'T';
    add_str buf (Symbol.name id)
  | Decision_begin s ->
    Buffer.add_char buf 'B';
    add_str buf s
  | Decision_commit s ->
    Buffer.add_char buf 'C';
    add_str buf s
  | Decision_abort s ->
    Buffer.add_char buf 'A';
    add_str buf s
  | Artifact (name, text) ->
    Buffer.add_char buf 'R';
    add_str buf name;
    add_str buf text
  | Note (k, v) ->
    Buffer.add_char buf 'N';
    add_str buf k;
    add_str buf v);
  Buffer.contents buf

let read_u32 s pos =
  if pos + 4 > String.length s then Error "short u32"
  else
    Ok
      (Char.code s.[pos]
      lor (Char.code s.[pos + 1] lsl 8)
      lor (Char.code s.[pos + 2] lsl 16)
      lor (Char.code s.[pos + 3] lsl 24))

let ( let* ) = Result.bind

let read_str s pos =
  let* len = read_u32 s pos in
  if len < 0 || pos + 4 + len > String.length s then Error "short string"
  else Ok (String.sub s (pos + 4) len, pos + 4 + len)

let decode_put payload =
  let* p, pos = Codec.read_prop read_name payload 1 in
  if pos <> String.length payload then Error "trailing bytes" else Ok (Put p)

let decode payload =
  if payload = "" then Error "empty payload"
  else
    let tag = payload.[0] in
    let one k =
      let* s, pos = read_str payload 1 in
      if pos <> String.length payload then Error "trailing bytes" else Ok (k s)
    in
    let two k =
      let* a, pos = read_str payload 1 in
      let* b, pos = read_str payload pos in
      if pos <> String.length payload then Error "trailing bytes"
      else Ok (k a b)
    in
    match tag with
    | 'p' -> decode_put payload
    | 'P' -> Error "an old-layout 'P' record, which this build no longer reads"
    | 'T' -> one (fun id -> Tomb (Symbol.intern id))
    | 'B' -> one (fun s -> Decision_begin s)
    | 'C' -> one (fun s -> Decision_commit s)
    | 'A' -> one (fun s -> Decision_abort s)
    | 'R' -> two (fun name text -> Artifact (name, text))
    | 'N' -> two (fun k v -> Note (k, v))
    | c -> Error (Printf.sprintf "unknown record tag %C" c)

let frame r =
  let payload = encode r in
  let buf = Buffer.create (String.length payload + 8) in
  add_u32 buf (String.length payload);
  add_u32 buf (Int32.to_int (Crc32.of_string payload) land 0xffffffff);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* ---------------- writer ---------------- *)

type writer = {
  sink : sink;
  mutable bytes : int;
  mutable synced : int;  (** [bytes] at the last sync *)
  mutable records : int;
  mutable closed : bool;
}

let writer ?(header = true) sink =
  let w = { sink; bytes = 0; synced = 0; records = 0; closed = false } in
  if header then begin
    sink.write magic;
    w.bytes <- String.length magic
  end;
  w

let append w r =
  if w.closed then invalid_arg "Wal.append: writer closed";
  let framed = frame r in
  w.sink.write framed;
  w.bytes <- w.bytes + String.length framed;
  w.records <- w.records + 1;
  Obs.Registry.Counter.inc g_appends;
  Obs.Registry.Counter.inc g_append_bytes ~by:(String.length framed)

(* A sync with no byte appended since the last one has nothing to make
   durable: skip it, so a caught-up follower's long poll, which syncs
   before every capture, costs the leader no flush or fsync. *)
let sync w =
  if w.synced <> w.bytes then begin
    w.sink.sync ();
    w.synced <- w.bytes
  end

let close w =
  if not w.closed then begin
    sync w;
    w.sink.close ();
    w.closed <- true
  end

let bytes_written w = w.bytes
let records_written w = w.records

(* ---------------- recovery scan ---------------- *)

type scan_result = {
  records : record list;
  valid_bytes : int;
  truncated : string option;
}

let header_bytes = String.length magic

(* The frame loop shared by [scan] and [scan_from]: walk frames from an
   absolute byte offset, stopping at the first framing violation.  A
   non-empty frame whose checksum holds was written whole, so one that
   does not decode is no torn tail: it is an [Error], since cutting the
   log there would drop every decision after it.  A zero-length frame
   stays a tail: a zero-filled tail reads as length 0 with CRC 0, the
   CRC-32 of "". *)
let scan_frames data ~offset =
  let n = String.length data in
  let stop records pos why =
    Ok { records = List.rev records; valid_bytes = pos; truncated = why }
  in
  let rec go records pos =
    let torn why = stop records pos (Some why) in
    if pos >= n then stop records pos None
    else
      match (read_u32 data pos, read_u32 data (pos + 4)) with
      | Error _, _ -> torn "torn length field"
      | Ok len, _ when len > max_payload ->
        torn (Printf.sprintf "implausible record length %d" len)
      | Ok _, Error _ -> torn "torn checksum field"
      | Ok len, _ when pos + 8 + len > n -> torn "torn record payload"
      | Ok len, Ok crc -> (
        let payload = String.sub data (pos + 8) len in
        if Int32.to_int (Crc32.of_string payload) land 0xffffffff <> crc then
          torn "checksum mismatch"
        else
          match decode payload with
          | Ok r -> go (r :: records) (pos + 8 + len)
          | Error e when len = 0 -> torn ("undecodable payload: " ^ e)
          | Error e ->
            Error
              (Printf.sprintf
                 "the frame at byte %d passes its checksum but its record \
                  does not decode (%s); refusing to cut the log there"
                 pos e))
  in
  go [] (max 0 offset)

let scan_from ?(expect_header = true) data ~offset =
  if not expect_header then scan_frames data ~offset
  else if
    String.length data < header_bytes
    || String.sub data 0 header_bytes <> magic
  then
    Ok
      { records = []; valid_bytes = 0; truncated = Some "bad or missing header" }
  else scan_frames data ~offset:(max offset header_bytes)

let scan data = scan_from data ~offset:header_bytes

let frame_end data pos =
  match read_u32 data pos with
  | Ok len -> pos + 8 + len
  | Error e -> invalid_arg ("Wal.frame_end: " ^ e)

(* [scan] reads a log without the magic as holding no records.  Only
   an empty file or a proper prefix of the magic (a creation torn
   before its first sync) really holds none; any other header is
   damage, and reading it as empty would let a caller archive and
   truncate the valid frames behind it. *)
let read_file path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let data = really_input_string ic len in
    close_in ic;
    let n = min len header_bytes in
    if String.sub data 0 n <> String.sub magic 0 n then
      Error (path ^ ": damaged WAL header; refusing to read it as an empty log")
    else Result.map_error (fun e -> path ^ ": " ^ e) (scan data)
  with Sys_error e -> Error e
