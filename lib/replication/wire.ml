(* The repl command family rides the existing framed protocol as plain
   request lines; responses are a space-separated header line, then
   (for snapshot/frames) a '\n' and the raw binary chunk.  Protocol
   payloads are length-prefixed and binary-safe, so the chunk needs no
   escaping. *)

(* Chunks are raw WAL and checkpoint bytes, so the version covers
   both layouts: 2 ships compact [Put] records, which a version-1
   follower cannot decode, 3 the binary checkpoint, which a version-2
   follower cannot, 4 one frame per decision with its names spelt
   once, which a version-3 follower cannot, and 5 the GKBSNP2
   checkpoint, which a version-4 follower cannot.  Such a follower
   refuses at the hello instead of failing on the first chunk or the
   snapshot. *)
let protocol_version = 5

(* requests ----------------------------------------------------------- *)

let hello = "repl hello"
let token = "repl token"
let snapshot ~from = Printf.sprintf "repl snapshot %d" from

let frames ~gen ~offset ~max_bytes ~wait_ms =
  Printf.sprintf "repl frames %d %d %d %d" gen offset max_bytes wait_ms

let ack ~name ~gen ~offset ~epoch ~version =
  Printf.sprintf "repl ack %s %d %d %d %d" name gen offset epoch version

let wait ~epoch ~version ~timeout_ms =
  Printf.sprintf "wait %d %d %d" epoch version timeout_ms

(* responses ---------------------------------------------------------- *)

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

let split_payload payload =
  match String.index_opt payload '\n' with
  | None -> (payload, "")
  | Some i ->
    ( String.sub payload 0 i,
      String.sub payload (i + 1) (String.length payload - i - 1) )

let ints_of_header expected header =
  let words =
    List.filter (fun w -> w <> "") (String.split_on_char ' ' header)
  in
  if List.length words <> expected then
    Error
      (Printf.sprintf "expected %d header fields, got %d in %S" expected
         (List.length words) header)
  else
    List.fold_left
      (fun acc w ->
        Result.bind acc (fun acc ->
            match int_of_string_opt w with
            | Some n -> Ok (n :: acc)
            | None -> Error (Printf.sprintf "bad header field %S" w)))
      (Ok []) words
    |> Result.map List.rev

let format_hello ~generation ~version =
  Printf.sprintf "gkbms-repl %d %d %d" protocol_version generation version

let parse_hello payload =
  match String.split_on_char ' ' payload with
  | [ "gkbms-repl"; v; gen; ver ] -> (
    match (int_of_string_opt v, int_of_string_opt gen, int_of_string_opt ver) with
    | Some v, Some g, Some ver when v = protocol_version ->
      Ok { h_generation = g; h_version = ver }
    | Some v, _, _ when v <> protocol_version ->
      Error (Printf.sprintf "protocol version mismatch: leader speaks %d" v)
    | _ -> Error ("bad hello response: " ^ payload))
  | _ -> Error ("not a gkbms replication leader: " ^ payload)

let format_token ~epoch ~version = Printf.sprintf "%d %d" epoch version

let parse_token payload =
  match ints_of_header 2 payload with
  | Ok [ e; v ] -> Ok { t_epoch = e; t_version = v }
  | Ok _ -> Error "unreachable"
  | Error e -> Error e

let format_snapshot ~generation ~offset ~total ~chunk =
  Printf.sprintf "%d %d %d\n%s" generation offset total chunk

let parse_snapshot payload =
  let header, chunk = split_payload payload in
  match ints_of_header 3 header with
  | Ok [ g; o; total ] ->
    Ok { s_generation = g; s_offset = o; s_total = total; s_chunk = chunk }
  | Ok _ -> Error "unreachable"
  | Error e -> Error e

let format_frames ~next_gen ~next_offset ~caught_up ~epoch ~version ~chunk =
  Printf.sprintf "%d %d %d %d %d\n%s" next_gen next_offset
    (if caught_up then 1 else 0)
    epoch version chunk

let parse_frames payload =
  let header, chunk = split_payload payload in
  match ints_of_header 5 header with
  | Ok [ g; o; c; e; v ] ->
    Ok
      {
        f_next_gen = g;
        f_next_offset = o;
        f_caught_up = c <> 0;
        f_epoch = e;
        f_version = v;
        f_chunk = chunk;
      }
  | Ok _ -> Error "unreachable"
  | Error e -> Error e

(* A session token as clients carry it: "EPOCH:VERSION". *)

let format_session_token ~epoch ~version = Printf.sprintf "%d:%d" epoch version

let parse_session_token s =
  match String.split_on_char ':' (String.trim s) with
  | [ e; v ] -> (
    match (int_of_string_opt e, int_of_string_opt v) with
    | Some e, Some v -> Ok (e, v)
    | _ -> Error (Printf.sprintf "bad session token %S (want EPOCH:VERSION)" s))
  | _ -> Error (Printf.sprintf "bad session token %S (want EPOCH:VERSION)" s)

(* (epoch, version) tokens order lexicographically: the epoch is the
   leader's WAL generation, which grows strictly across restarts and
   checkpoints, so a later leader state always compares greater even
   though the version counter resets on recovery. *)
let token_le (e1, v1) (e2, v2) = e1 < e2 || (e1 = e2 && v1 <= v2)

let is_resync_error msg =
  (* the leader's unservable-cursor answer; matched on substring so it
     survives the client's "error: " framing *)
  let needle = "resync" in
  let n = String.length needle and m = String.length msg in
  let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
  go 0

(* [wait EPOCH VERSION [MS]]: both ends parse, clamp and answer it
   here, each with its own token reader and role word. *)

let words line =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line))

let default_wait_ms = 5_000
let max_wait_ms = 60_000
let clamp_wait_ms ms = max 0 (min ms max_wait_ms)

let parse_wait args =
  match List.map int_of_string_opt args with
  | [ Some epoch; Some version ] -> Some (epoch, version, default_wait_ms)
  | [ Some epoch; Some version; Some ms ] ->
    Some (epoch, version, clamp_wait_ms ms)
  | _ -> None

let await ~current ~epoch ~version ~timeout_ms =
  let deadline = Unix.gettimeofday () +. (float_of_int timeout_ms /. 1e3) in
  let rec go () =
    let now = current () in
    if token_le (epoch, version) now then Ok now
    else if Unix.gettimeofday () >= deadline then Error now
    else begin
      Thread.delay 0.01;
      go ()
    end
  in
  go ()

let answer_wait ~role ~current args =
  match parse_wait args with
  | None -> "error: usage: wait EPOCH VERSION [TIMEOUT_MS]"
  | Some (epoch, version, timeout_ms) -> (
    match await ~current ~epoch ~version ~timeout_ms with
    | Ok (e, v) -> format_token ~epoch:e ~version:v
    | Error (e, v) ->
      Printf.sprintf "error: wait: %s at %d:%d, needed %d:%d (timeout)" role e
        v epoch version)
