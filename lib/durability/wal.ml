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

(* A frame closes before a record that would take it past this, even
   inside a decision, so a frame stays shippable in one replication
   chunk; only a record larger than this on its own makes a larger
   frame. *)
let frame_limit = 1 lsl 19

(* the first byte of a frame's payload that holds a run of records;
   no record's tag is 'F' *)
let frame_tag = 'F'

(* ---------------- sinks ---------------- *)

type sink = {
  write : string -> int -> int -> unit;
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
    write = output_substring oc;
    sync =
      (fun () ->
        let t0 = Obs.Runtime.now_s () in
        flush oc;
        if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
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
    write = Buffer.add_substring buf;
    sync = (fun () -> ());
    close = (fun () -> ());
  }

(* ---------------- writer ---------------- *)

(* A frame spells each interned name once: at its first use the name's
   ref is 0 and its bytes follow, and it takes the frame's next index;
   after that its ref is [2 * (index + 1)].  A serial id's ref is
   [2n + 1].  A spelt string that names no symbol takes an index, and
   no entry in [index]. *)
type writer = {
  sink : sink;
  spell : Buffer.t -> Prop.t -> unit;  (** {!Codec.add_prop} with this dictionary *)
  payload : Buffer.t;  (** the open frame's, empty when none is open *)
  mutable out : Bytes.t;  (** the frame being written: header, payload *)
  index : (int, int) Hashtbl.t;  (** a name's code to its index in the open frame *)
  mutable names : int;  (** indices taken in the open frame *)
  mutable depth : int;  (** decisions open in the open frame *)
  mutable bytes : int;
  mutable synced : int;  (** [bytes] at the last sync *)
  mutable records : int;
  mutable closed : bool;
  mutable failed : exn option;  (** the write or sync that failed *)
}

(* [find_opt], not [find]: a [Not_found] raised at each name's first use
   cost gkbench [edit] 5-15% of its throughput on 2 vCPUs *)
let add_sym w buf sym =
  match Symbol.serial_number sym with
  | 0 -> (
    match Hashtbl.find_opt w.index (Symbol.to_int sym) with
    | Some i -> Codec.add_varint buf ((i + 1) lsl 1)
    | None ->
      Hashtbl.add w.index (Symbol.to_int sym) w.names;
      w.names <- w.names + 1;
      Codec.add_varint buf 0;
      Codec.add_name buf sym)
  | n -> Codec.add_serial buf n

(* A decision's class or id, or an artifact's name, is a symbol's name
   when it is one; any other string is spelt, and takes an index the
   writer never refers to. *)
let add_named w buf s =
  match Symbol.find_opt s with
  | Some sym -> add_sym w buf sym
  | None ->
    w.names <- w.names + 1;
    Codec.add_varint buf 0;
    Codec.add_vstr buf s

let writer ?(header = true) sink =
  let rec w =
    {
      sink;
      spell = (fun buf p -> Codec.add_prop sym buf p);
      payload = Buffer.create 1024;
      out = Bytes.create 1024;
      index = Hashtbl.create 64;
      names = 0;
      depth = 0;
      bytes = 0;
      synced = 0;
      records = 0;
      closed = false;
      failed = None;
    }
  and sym buf s = add_sym w buf s in
  if header then begin
    sink.write magic 0 (String.length magic);
    w.bytes <- String.length magic
  end;
  w

let add_record w r =
  let buf = w.payload in
  match r with
  | Put p ->
    Buffer.add_char buf 'p';
    w.spell buf p
  | Tomb id ->
    Buffer.add_char buf 'T';
    add_sym w buf id
  | Decision_begin cls ->
    Buffer.add_char buf 'B';
    add_named w buf cls
  | Decision_commit id ->
    Buffer.add_char buf 'C';
    add_named w buf id
  | Decision_abort reason ->
    Buffer.add_char buf 'A';
    Codec.add_vstr buf reason
  | Artifact (name, text) ->
    Buffer.add_char buf 'R';
    add_named w buf name;
    Codec.add_vstr buf text
  | Note (k, v) ->
    Buffer.add_char buf 'N';
    Codec.add_vstr buf k;
    Codec.add_vstr buf v

let fail w e =
  w.failed <- Some e;
  raise e

(* a writer refuses everything once a write or a sync failed: a retried
   fsync can report success after the kernel dropped the pages *)
let usable w =
  if w.closed then invalid_arg "Wal: writer closed";
  Option.iter raise w.failed

(* a frame that grew the dictionary leaves it to the next at its first
   size *)
let open_frame w =
  Buffer.add_char w.payload frame_tag;
  Hashtbl.reset w.index;
  w.names <- 0

(* one length, one CRC-32 and the payload, in one write *)
let emit w =
  let n = Buffer.length w.payload in
  if Bytes.length w.out < n + 8 then
    w.out <- Bytes.create (max (n + 8) (2 * Bytes.length w.out));
  Buffer.blit w.payload 0 w.out 8 n;
  Buffer.clear w.payload;
  (* read before [out] is written again: the string does not escape *)
  let s = Bytes.unsafe_to_string w.out in
  Bytes.set_int32_le w.out 0 (Int32.of_int n);
  Bytes.set_int32_le w.out 4 (Crc32.update Crc32.empty s 8 n);
  (try w.sink.write s 0 (n + 8) with e -> fail w e);
  w.bytes <- w.bytes + n + 8;
  Obs.Registry.Counter.inc g_append_bytes ~by:(n + 8)

let rec add w r =
  if Buffer.length w.payload = 0 then open_frame w;
  let mark = Buffer.length w.payload in
  add_record w r;
  if Buffer.length w.payload > frame_limit && mark > 1 then begin
    (* full: close the frame before this record, whose names it spelt
       against the closed frame's dictionary *)
    Buffer.truncate w.payload mark;
    emit w;
    add w r
  end
  else if Buffer.length w.payload > max_payload then begin
    Buffer.clear w.payload;
    fail w (Failure "Wal.append: a record larger than any frame")
  end

(* A frame is a decision: it opens at a begin outside any decision and
   closes at that decision's commit or abort, so nested decisions stay
   in it.  A record outside every decision is a frame of its own. *)
let append w r =
  usable w;
  add w r;
  w.records <- w.records + 1;
  Obs.Registry.Counter.inc g_appends;
  (match r with
  | Decision_begin _ -> w.depth <- w.depth + 1
  | Decision_commit _ | Decision_abort _ -> w.depth <- max 0 (w.depth - 1)
  | Put _ | Tomb _ | Artifact _ | Note _ -> ());
  if w.depth = 0 then emit w

(* A sync with no whole frame written since the last one has nothing to
   make durable: skip it, so a caught-up follower's long poll, which
   syncs before every capture, costs the leader no flush or fsync, and
   a sync inside a decision writes nothing. *)
let sync w =
  Option.iter raise w.failed;
  if w.synced <> w.bytes then begin
    (try w.sink.sync () with e -> fail w e);
    w.synced <- w.bytes
  end

(* an open frame is dropped: replay would roll its decision back *)
let close w =
  if not w.closed then begin
    w.closed <- true;
    Fun.protect ~finally:w.sink.close (fun () -> if w.failed = None then sync w)
  end

let bytes_written w = w.bytes
let records_written w = w.records

(* ---------------- decoding ---------------- *)

let ( let* ) = Result.bind

let read_u32 s pos =
  if pos + 4 > String.length s then Error "short u32"
  else Ok (Int32.to_int (String.get_int32_le s pos) land 0xffffffff)

(* the names a frame spelt so far, by index *)
type dict = { mutable syms : Symbol.t array; mutable spelt : int }

let read_sym d s pos =
  let* v, pos = Codec.read_varint s pos in
  if v land 1 = 1 then Codec.read_serial v pos
  else if v = 0 then begin
    let* name, pos = Codec.read_vstr s pos in
    if d.spelt = Array.length d.syms then begin
      let grown = Array.make (2 * d.spelt) (Symbol.serial 1) in
      Array.blit d.syms 0 grown 0 d.spelt;
      d.syms <- grown
    end;
    let sym = Symbol.intern name in
    d.syms.(d.spelt) <- sym;
    d.spelt <- d.spelt + 1;
    Ok (sym, pos)
  end
  else
    let i = (v lsr 1) - 1 in
    if i < d.spelt then Ok (d.syms.(i), pos)
    else Error (Printf.sprintf "name %d used before it is spelt" i)

(* a decision's class or id, or an artifact's name *)
let read_named sym s pos =
  let* v, pos = sym s pos in
  Ok (Symbol.name v, pos)

(* the record whose tag is at [pos], which its caller checked is in [s];
   [sym] reads a symbol through the frame's dictionary *)
let decode_record sym s pos =
  let tag = s.[pos] and pos = pos + 1 in
  match tag with
  | 'p' ->
    let* p, pos = Codec.read_prop sym s pos in
    Ok (Put p, pos)
  | 'T' ->
    let* id, pos = sym s pos in
    Ok (Tomb id, pos)
  | 'B' ->
    let* cls, pos = read_named sym s pos in
    Ok (Decision_begin cls, pos)
  | 'C' ->
    let* id, pos = read_named sym s pos in
    Ok (Decision_commit id, pos)
  | 'A' ->
    let* reason, pos = Codec.read_vstr s pos in
    Ok (Decision_abort reason, pos)
  | 'R' ->
    let* name, pos = read_named sym s pos in
    let* text, pos = Codec.read_vstr s pos in
    Ok (Artifact (name, text), pos)
  | 'N' ->
    let* k, pos = Codec.read_vstr s pos in
    let* v, pos = Codec.read_vstr s pos in
    Ok (Note (k, v), pos)
  | c -> Error (Printf.sprintf "unknown record tag %C" c)

(* A payload is a frame's records: after [frame_tag], as many as it
   holds, read with a dictionary that starts empty, so each frame
   decodes alone.  A payload without the tag is the one record of the
   layout before, which this build no longer reads. *)
let decode_payload d payload =
  let n = String.length payload in
  if n = 0 then Error "empty payload"
  else if payload.[0] <> frame_tag then
    Error
      "a one-record frame, the layout before frames held decisions, which \
       this build no longer reads"
  else if n = 1 then Error "a frame of no records"
  else begin
    d.spelt <- 0;
    let sym = read_sym d in
    let rec go acc pos =
      if pos = n then Ok (List.rev acc)
      else
        let* r, pos = decode_record sym payload pos in
        go (r :: acc) pos
    in
    go [] 1
  end

let new_dict () = { syms = Array.make 64 (Symbol.serial 1); spelt = 0 }

let decode payload = decode_payload (new_dict ()) payload

let encode records =
  let w = writer ~header:false (buffer_sink (Buffer.create 0)) in
  open_frame w;
  List.iter (add_record w) records;
  Buffer.contents w.payload

(* ---------------- recovery scan ---------------- *)

type frame = { records : record list; stop : int }

type scan_result = {
  frames : frame list;
  valid_bytes : int;
  truncated : string option;
}

let records scan = List.concat_map (fun f -> f.records) scan.frames

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
  let d = new_dict () in
  let stop frames pos why =
    Ok { frames = List.rev frames; valid_bytes = pos; truncated = why }
  in
  let rec go frames pos =
    let torn why = stop frames pos (Some why) in
    if pos >= n then stop frames pos None
    else
      match (read_u32 data pos, read_u32 data (pos + 4)) with
      | Error _, _ -> torn "torn length field"
      | Ok len, _ when len > max_payload ->
        torn (Printf.sprintf "implausible record length %d" len)
      | Ok _, Error _ -> torn "torn checksum field"
      | Ok len, _ when pos + 8 + len > n -> torn "torn record payload"
      | Ok len, Ok crc -> (
        if Int32.to_int (Crc32.update Crc32.empty data (pos + 8) len) land 0xffffffff <> crc
        then torn "checksum mismatch"
        else
          match decode_payload d (String.sub data (pos + 8) len) with
          | Ok records ->
            let stop = pos + 8 + len in
            go ({ records; stop } :: frames) stop
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
      { frames = []; valid_bytes = 0; truncated = Some "bad or missing header" }
  else scan_frames data ~offset:(max offset header_bytes)

let scan data = scan_from data ~offset:header_bytes

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
