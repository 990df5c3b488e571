type request = { id : int; line : string; ctx : string option }
type response = { id : int; ok : bool; payload : string }
type frame = Request of request | Response of response

let max_frame = 16 * 1024 * 1024
let pipeline_limit = 64

(* force the (lazy) CRC table once, on the main domain at program start,
   so concurrent first use from several domains cannot race the thunk *)
let () = ignore (Durability.Crc32.of_string "gkbms")

(* a peer that disconnects mid-response must surface as EPIPE (handled
   per-session), not kill the whole server *)
let () = try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ()

let u32le_to_bytes b pos v = Bytes.set_int32_le b pos (Int32.of_int v)

let u32le_of_string s pos =
  (* lengths and ids are non-negative and < 2^31 in practice *)
  Int32.to_int (String.get_int32_le s pos) land 0xffffffff

let payload_of = function
  | Request { id; line; ctx = None } ->
    let b = Bytes.create (5 + String.length line) in
    Bytes.set b 0 'Q';
    u32le_to_bytes b 1 id;
    Bytes.blit_string line 0 b 5 (String.length line);
    Bytes.unsafe_to_string b
  | Request { id; line; ctx = Some ctx } ->
    (* 'T' = traced request: a u8-length trace context precedes the
       command line.  Old peers never emit 'T'; new peers emit 'Q'
       whenever there is no context, so the two framings coexist. *)
    let cn = String.length ctx in
    if cn > 255 then invalid_arg "Protocol: trace context too long";
    let b = Bytes.create (6 + cn + String.length line) in
    Bytes.set b 0 'T';
    u32le_to_bytes b 1 id;
    Bytes.set b 5 (Char.chr cn);
    Bytes.blit_string ctx 0 b 6 cn;
    Bytes.blit_string line 0 b (6 + cn) (String.length line);
    Bytes.unsafe_to_string b
  | Response { id; ok; payload } ->
    let b = Bytes.create (6 + String.length payload) in
    Bytes.set b 0 'R';
    u32le_to_bytes b 1 id;
    Bytes.set b 5 (if ok then '\000' else '\001');
    Bytes.blit_string payload 0 b 6 (String.length payload);
    Bytes.unsafe_to_string b

let decode_payload s =
  let len = String.length s in
  if len < 5 then Error "payload too short"
  else
    let id = u32le_of_string s 1 in
    match s.[0] with
    | 'Q' -> Ok (Request { id; line = String.sub s 5 (len - 5); ctx = None })
    | 'T' when len >= 6 ->
      let cn = Char.code s.[5] in
      if len < 6 + cn then Error "traced request shorter than its context"
      else
        Ok
          (Request
             {
               id;
               line = String.sub s (6 + cn) (len - 6 - cn);
               ctx = Some (String.sub s 6 cn);
             })
    | 'R' when len >= 6 ->
      Ok
        (Response
           { id; ok = s.[5] = '\000'; payload = String.sub s 6 (len - 6) })
    | c -> Error (Printf.sprintf "unknown frame tag %C" c)

let encode frame =
  let payload = payload_of frame in
  let n = String.length payload in
  let b = Bytes.create (8 + n) in
  u32le_to_bytes b 0 n;
  Bytes.set_int32_le b 4 (Durability.Crc32.of_string payload);
  Bytes.blit_string payload 0 b 8 n;
  Bytes.unsafe_to_string b

(* transports ---------------------------------------------------------- *)

type transport = {
  read : bytes -> int -> int -> int;
  write : string -> unit;
  shutdown : unit -> unit;
  close : unit -> unit;
}

let fd_transport fd =
  let closed = ref false in
  let close_m = Mutex.create () in
  let rec read b pos len =
    match Unix.read fd b pos len with
    | n -> n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> read b pos len
    | exception Unix.Unix_error _ -> 0
  in
  let write s =
    let rec loop pos =
      if pos < String.length s then
        let n = Unix.write_substring fd s pos (String.length s - pos) in
        loop (pos + n)
    in
    loop 0
  in
  let shutdown () = try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> () in
  let close () =
    Mutex.lock close_m;
    let was = !closed in
    closed := true;
    Mutex.unlock close_m;
    if not was then (
      shutdown ();
      try Unix.close fd with _ -> ())
  in
  { read; write; shutdown; close }

(* one direction of a loopback connection: a growable byte queue *)
type chan = {
  m : Mutex.t;
  c : Condition.t;
  buf : Buffer.t;
  mutable off : int;  (** read offset into [buf] *)
  mutable chan_closed : bool;
}

let chan () =
  {
    m = Mutex.create ();
    c = Condition.create ();
    buf = Buffer.create 256;
    off = 0;
    chan_closed = false;
  }

let chan_read ch b pos len =
  Mutex.lock ch.m;
  while Buffer.length ch.buf - ch.off = 0 && not ch.chan_closed do
    Condition.wait ch.c ch.m
  done;
  let avail = Buffer.length ch.buf - ch.off in
  let n = min len avail in
  if n > 0 then (
    Buffer.blit ch.buf ch.off b pos n;
    ch.off <- ch.off + n;
    if ch.off = Buffer.length ch.buf then (
      Buffer.clear ch.buf;
      ch.off <- 0));
  Mutex.unlock ch.m;
  n

let chan_write ch s =
  Mutex.lock ch.m;
  if not ch.chan_closed then (
    Buffer.add_string ch.buf s;
    Condition.broadcast ch.c);
  Mutex.unlock ch.m

let chan_close ch =
  Mutex.lock ch.m;
  ch.chan_closed <- true;
  Condition.broadcast ch.c;
  Mutex.unlock ch.m

let loopback () =
  let c2s = chan () and s2c = chan () in
  let shutdown () =
    chan_close c2s;
    chan_close s2c
  in
  let client =
    {
      read = chan_read s2c;
      write = chan_write c2s;
      shutdown;
      close = shutdown;
    }
  and server =
    {
      read = chan_read c2s;
      write = chan_write s2c;
      shutdown;
      close = shutdown;
    }
  in
  (client, server)

(* framed reading ------------------------------------------------------

   One decoder, two entry points: [feed] appends bytes a caller read
   itself and returns every frame they complete; [next_frame] refills
   from a transport until one frame is whole. *)

type feeder = { pending : Buffer.t; mutable off : int  (** read offset *) }

let feeder () = { pending = Buffer.create 512; off = 0 }
let buffered f = Buffer.length f.pending - f.off

(* Drop the consumed prefix once it is at least as long as the rest, so
   the copy is amortized O(1) per byte and a stream that always ends in
   a partial frame still keeps only about one frame buffered. *)
let compact f =
  let rest = buffered f in
  if f.off > 0 && f.off >= rest then begin
    let tail = Buffer.sub f.pending f.off rest in
    Buffer.clear f.pending;
    Buffer.add_string f.pending tail;
    f.off <- 0
  end

let u32le_at f pos =
  let byte i = Char.code (Buffer.nth f.pending (f.off + pos + i)) in
  byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24)

(* the next whole frame, [Ok None] if more bytes are needed *)
let take_frame f =
  if buffered f < 8 then Ok None
  else
    let len = u32le_at f 0 in
    if len > max_frame then
      Error (Printf.sprintf "frame length %d exceeds limit" len)
    else if buffered f < 8 + len then Ok None
    else
      let crc = Int32.of_int (u32le_at f 4) in
      let payload = Buffer.sub f.pending (f.off + 8) len in
      f.off <- f.off + 8 + len;
      compact f;
      if Durability.Crc32.of_string payload <> crc then Error "checksum mismatch"
      else Result.map Option.some (decode_payload payload)

let feed f b n =
  Buffer.add_subbytes f.pending b 0 n;
  let rec frames acc =
    match take_frame f with
    | Ok None -> Ok (List.rev acc)
    | Ok (Some fr) -> frames (fr :: acc)
    | Error e -> Error e
  in
  frames []

type reader = {
  tr : transport;
  buf : feeder;
  chunk : bytes;
  mutable consumed : int;
}

let reader tr = { tr; buf = feeder (); chunk = Bytes.create 4096; consumed = 0 }
let bytes_consumed r = r.consumed

let rec next_frame r =
  match take_frame r.buf with
  | Ok (Some f) -> Ok f
  | Error e -> Error (`Corrupt e)
  | Ok None ->
    let n = r.tr.read r.chunk 0 (Bytes.length r.chunk) in
    if n > 0 then begin
      Buffer.add_subbytes r.buf.pending r.chunk 0 n;
      r.consumed <- r.consumed + n;
      next_frame r
    end
    else if buffered r.buf = 0 then Error `Eof
    else if buffered r.buf < 8 then
      Error (`Corrupt "end of stream inside a frame header")
    else Error (`Corrupt "end of stream inside a frame payload")

let write_frame tr frame =
  let s = encode frame in
  tr.write s;
  String.length s
