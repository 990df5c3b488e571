type t = {
  transport : Protocol.transport;
  reader : Protocol.reader;
  mutable next_id : int;
}

let of_transport transport =
  { transport; reader = Protocol.reader transport; next_id = 1 }

let retriable = function
  | Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> true
  | _ -> false

(* A freshly (re)started server can accept a connection and drop it
   before its session thread is up — a follower restarting mid-test
   does exactly this.  One retry on the two reset-shaped errnos absorbs
   that race without masking real failures. *)
let with_retry ?(attempts = 2) f =
  let rec go n =
    match f () with
    | v -> v
    | exception e when retriable e && n > 1 ->
      Thread.delay 0.05;
      go (n - 1)
  in
  go (max 1 attempts)

let connect_fd path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with _ -> ());
     raise e);
  fd

let connect_unix ?(handshake = false) path =
  match
    with_retry (fun () ->
        let fd = connect_fd path in
        let t = of_transport (Protocol.fd_transport fd) in
        if handshake then begin
          (* a connect-time ping forces the reset-shaped failure (if
             any) to surface here, inside the retry window *)
          match
            Protocol.write_frame t.transport
              (Protocol.Request { id = 0; line = "ping"; ctx = None })
          with
          | exception e ->
            t.transport.Protocol.close ();
            raise e
          | _n -> (
            match Protocol.next_frame t.reader with
            | Ok _ -> t
            | Error `Eof ->
              t.transport.Protocol.close ();
              raise (Unix.Unix_error (Unix.ECONNRESET, "handshake", path))
            | Error (`Corrupt reason) ->
              t.transport.Protocol.close ();
              failwith ("protocol: " ^ reason))
        end
        else t)
  with
  | t -> Ok t
  | exception Unix.Unix_error (err, _, _) ->
    Error
      (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message err))
  | exception Failure e -> Error e

let request ?ctx t line =
  let id = t.next_id in
  t.next_id <- id + 1;
  let ctx = Option.map Obs.Trace_context.encode ctx in
  match Protocol.write_frame t.transport (Protocol.Request { id; line; ctx }) with
  | exception e -> Error ("transport: " ^ Printexc.to_string e)
  | _n -> (
    match Protocol.next_frame t.reader with
    | Ok (Protocol.Response r) when r.Protocol.id = id ->
      if r.Protocol.ok then Ok r.Protocol.payload else Error r.Protocol.payload
    | Ok (Protocol.Response r) ->
      Error
        (Printf.sprintf "protocol: response id %d does not match request %d"
           r.Protocol.id id)
    | Ok (Protocol.Request _) -> Error "protocol: unexpected request frame"
    | Error `Eof -> Error "transport: connection closed"
    | Error (`Corrupt reason) -> Error ("protocol: " ^ reason))

(* Pipelined submission: keep up to [window] requests in flight, match
   responses to requests by id so out-of-order completion (a fast read
   overtaking a batched write's ack) is fine.  Results come back in
   *submission* order regardless of arrival order.  A reader thread
   takes the responses while this thread writes: a session answers on
   the thread that reads its connection, so a client that wrote its
   whole window before reading would stall both ends once a large
   reply and its own requests filled the two socket buffers.  The
   window is capped at the server's limit of unacked writes, past
   which the session stops reading anyway. *)
let pipeline ?(window = 16) t lines =
  let window = min Protocol.pipeline_limit (max 1 window) in
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let results = Array.make n None in
  let first_id = t.next_id in
  t.next_id <- first_id + n;
  let m = Mutex.create () and c = Condition.create () in
  let sent = ref 0 and received = ref 0 and failure = ref None in
  (* a failure tears the stream: shutting the transport wakes the
     other thread, blocked in a read or a write, with end-of-stream *)
  let fail msg =
    Mutex.protect m (fun () ->
        if !failure = None then failure := Some msg;
        Condition.broadcast c);
    t.transport.Protocol.shutdown ()
  in
  let rec read_responses () =
    if Mutex.protect m (fun () -> !received < n && !failure = None) then
      match Protocol.next_frame t.reader with
      | Ok (Protocol.Response r) ->
        let i = r.Protocol.id - first_id in
        let in_flight = i >= 0 && i < Mutex.protect m (fun () -> !sent) in
        if not (in_flight && results.(i) = None) then
          fail
            (Printf.sprintf
               "protocol: response id %d matches no in-flight request"
               r.Protocol.id)
        else begin
          results.(i) <-
            Some
              (if r.Protocol.ok then Ok r.Protocol.payload
               else Error r.Protocol.payload);
          Mutex.protect m (fun () ->
              incr received;
              Condition.broadcast c);
          read_responses ()
        end
      | Ok (Protocol.Request _) -> fail "protocol: unexpected request frame"
      | Error `Eof -> fail "transport: connection closed"
      | Error (`Corrupt reason) -> fail ("protocol: " ^ reason)
      | exception e -> fail ("transport: " ^ Printexc.to_string e)
  in
  let reader = Thread.create read_responses () in
  let rec write_requests i =
    let go () =
      Mutex.protect m (fun () ->
          while !failure = None && i - !received >= window do
            Condition.wait c m
          done;
          if !failure = None then incr sent;
          !failure = None)
    in
    if i < n && go () then
      match
        Protocol.write_frame t.transport
          (Protocol.Request { id = first_id + i; line = lines.(i); ctx = None })
      with
      | exception e -> fail ("transport: " ^ Printexc.to_string e)
      | _n -> write_requests (i + 1)
  in
  write_requests 0;
  Thread.join reader;
  (* every request not answered gets the failure *)
  let missing = Error (Option.value !failure ~default:"transport: no response") in
  Array.to_list (Array.map (Option.value ~default:missing) results)

(* Start (or continue) a distributed trace around one request: the
   server sees the encoded context in the frame and files its spans
   under the same trace id, which this returns for later lookup with
   [trace decision <id>]. *)
let request_traced t line =
  let ctx =
    match Obs.Trace.current_context () with
    | Some parent -> Obs.Trace_context.child parent
    | None -> Obs.Trace_context.generate ()
  in
  let cmd =
    match String.index_opt line ' ' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  let res =
    Obs.Trace.with_context (Some ctx) (fun () ->
        Obs.Trace.with_span "client.send"
          ~attrs:[ ("cmd", cmd) ]
          (fun () -> request ~ctx t line))
  in
  (res, Obs.Trace_context.trace_hex ctx)

let close t =
  (try
     ignore
       (Protocol.write_frame t.transport
          (Protocol.Request { id = 0; line = "quit"; ctx = None }))
   with _ -> ());
  t.transport.Protocol.close ()
