module Repo = Gkbms.Repository

type news = {
  news_m : Mutex.t;
  ring : string array;  (** line [n] sits in slot [n mod news_kept] *)
  mutable appended : int;  (** lines ever appended *)
}

let news_kept = 4096

let news () =
  { news_m = Mutex.create (); ring = Array.make news_kept ""; appended = 0 }

(* the listener runs inside a commit, i.e. under the daemon's
   repository lock, so Symbol.name is safe here; only strings cross
   into the record *)
let record_news news event =
  let line =
    match event with
    | Repo.Decision_committed id -> Some ("committed " ^ Kernel.Symbol.name id)
    | Repo.Decision_unlogged id -> Some ("retracted " ^ Kernel.Symbol.name id)
    | Repo.Decision_begun _ | Repo.Decision_aborted _ | Repo.Artifact_written _
      ->
      None
  in
  Option.iter
    (fun line ->
      Mutex.protect news.news_m @@ fun () ->
      news.ring.(news.appended mod news_kept) <- line;
      news.appended <- news.appended + 1)
    line

type t = {
  sid : int;
  shell : Gkbms.Shell.t;
  transport : Protocol.transport;
  news : news;
  mutable news_read : int;  (** lines of [news] this session has read *)
  write_m : Mutex.t;
      (** serializes response frames: with pipelining, the group-commit
          flusher acks writes while the connection's thread answers
          reads, and interleaved frame bytes would corrupt the stream *)
  pend_m : Mutex.t;
  pend_c : Condition.t;
  mutable pending : int;
      (** writes handed to the group-commit flusher and not yet acked *)
}

let sid t = t.sid
let shell t = t.shell

let create ~sid ~repo ~news ~transport =
  {
    sid;
    shell = Gkbms.Shell.session repo;
    transport;
    news;
    news_read = Mutex.protect news.news_m (fun () -> news.appended);
    write_m = Mutex.create ();
    pend_m = Mutex.create ();
    pend_c = Condition.create ();
    pending = 0;
  }

let take_news t =
  let news = t.news in
  Mutex.protect news.news_m @@ fun () ->
  let first = max t.news_read (news.appended - news_kept) in
  let lines =
    List.init (news.appended - first) (fun i ->
        news.ring.((first + i) mod news_kept))
  in
  let skipped = first - t.news_read in
  t.news_read <- news.appended;
  let lines =
    if skipped = 0 then lines
    else Printf.sprintf "(%d earlier events not shown)" skipped :: lines
  in
  match lines with [] -> "no news." | lines -> String.concat "\n" lines

let shutdown t = t.transport.Protocol.shutdown ()

let send t resp =
  Mutex.lock t.write_m;
  let r =
    try Some (Protocol.write_frame t.transport (Protocol.Response resp))
    with _ -> None
  in
  Mutex.unlock t.write_m;
  (* peer gone mid-response: wake the loop with end-of-stream *)
  if r = None then shutdown t;
  r

let begin_write t =
  Mutex.lock t.pend_m;
  while t.pending >= Protocol.pipeline_limit do
    Condition.wait t.pend_c t.pend_m
  done;
  t.pending <- t.pending + 1;
  Mutex.unlock t.pend_m

let end_write t =
  Mutex.lock t.pend_m;
  t.pending <- t.pending - 1;
  Condition.signal t.pend_c;
  Mutex.unlock t.pend_m

let await_idle t =
  Mutex.lock t.pend_m;
  while t.pending > 0 do
    Condition.wait t.pend_c t.pend_m
  done;
  Mutex.unlock t.pend_m

let run t ~grouped ~submit_write ~process ~on_bytes ~on_inflight
    ~on_protocol_error =
  let answer resp =
    let sent = send t resp in
    Option.iter (fun n -> on_bytes ~incoming:0 ~outgoing:n) sent;
    on_inflight (-1);
    sent <> None
  in
  let reader = Protocol.reader t.transport in
  let rec loop last_consumed =
    match Protocol.next_frame reader with
    | Ok (Protocol.Request req) ->
      let consumed = Protocol.bytes_consumed reader in
      on_bytes ~incoming:(consumed - last_consumed) ~outgoing:0;
      on_inflight 1;
      if grouped req then begin
        (* pipelined write: hand it to the group-commit flusher and
           read on — back-to-back writes from this session land in the
           same batch, one fsync for all of them *)
        begin_write t;
        submit_write t req ~finish:(fun resp ->
            ignore (answer resp : bool);
            end_write t);
        loop consumed
      end
      else begin
        (* anything else sees this session's writes first *)
        await_idle t;
        if answer (process t req) && not (Gkbms.Shell.is_quit req.Protocol.line)
        then loop consumed
      end
    | Ok (Protocol.Response _) ->
      on_protocol_error "unexpected response frame from client"
    | Error `Eof -> ()
    | Error (`Corrupt reason) -> on_protocol_error reason
  in
  (* in-flight group-commit acks still hold a reference to the
     transport; let them land (or fail harmlessly) before closing it *)
  Fun.protect
    ~finally:(fun () ->
      await_idle t;
      t.transport.Protocol.close ())
    (fun () -> loop 0)
