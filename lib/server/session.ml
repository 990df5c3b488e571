module Repo = Gkbms.Repository

type t = {
  sid : int;
  shell : Gkbms.Shell.t;
  transport : Protocol.transport;
  queue : Protocol.request Bqueue.t;
  repo : Repo.t;
  sub : Repo.event_subscription;
  news_m : Mutex.t;
  mutable news : string list;  (** newest first; pre-rendered strings *)
  mutable last_active : float;
  write_m : Mutex.t;
      (** serializes response frames: with pipelining, the group-commit
          flusher acks writes while the executor answers reads, and
          interleaved frame bytes would corrupt the stream *)
  pend_m : Mutex.t;
  pend_c : Condition.t;
  mutable pending : int;
      (** writes handed to the group-commit flusher and not yet acked;
          the executor drains this before any non-write command so a
          session always reads its own writes *)
}

let sid t = t.sid
let shell t = t.shell
let last_active t = t.last_active

(* The request queue's bound: a receiver this far ahead of its
   executor blocks, pushing back on the socket. *)
let queue_limit = 64

let create ~sid ~repo ~transport =
  let news_m = Mutex.create () in
  let t_ref = ref None in
  (* the listener runs inside a writer's commit, i.e. under the
     scheduler's exclusive lock, so Symbol.name is safe here; only
     strings cross into the session *)
  let listen event =
    let line =
      match event with
      | Repo.Decision_committed id -> Some ("committed " ^ Kernel.Symbol.name id)
      | Repo.Decision_unlogged id -> Some ("retracted " ^ Kernel.Symbol.name id)
      | Repo.Decision_begun _ | Repo.Decision_aborted _
      | Repo.Artifact_written _ -> None
    in
    match (line, !t_ref) with
    | Some line, Some t ->
      Mutex.lock t.news_m;
      t.news <- line :: t.news;
      Mutex.unlock t.news_m
    | _ -> ()
  in
  let sub = Repo.on_event repo listen in
  let t =
    {
      sid;
      shell = Gkbms.Shell.session repo;
      transport;
      queue = Bqueue.create ~capacity:queue_limit;
      repo;
      sub;
      news_m;
      news = [];
      last_active = Unix.gettimeofday ();
      write_m = Mutex.create ();
      pend_m = Mutex.create ();
      pend_c = Condition.create ();
      pending = 0;
    }
  in
  t_ref := Some t;
  t

let take_news t =
  Mutex.lock t.news_m;
  let news = List.rev t.news in
  t.news <- [];
  Mutex.unlock t.news_m;
  match news with [] -> "no news." | lines -> String.concat "\n" lines

let shutdown t = t.transport.Protocol.shutdown ()

let detach t =
  Repo.off_event t.repo t.sub;
  t.transport.Protocol.close ()

let send t resp =
  Mutex.lock t.write_m;
  let r =
    try Some (Protocol.write_frame t.transport (Protocol.Response resp))
    with _ -> None
  in
  Mutex.unlock t.write_m;
  (* peer gone mid-response: stop accepting work for this session *)
  if r = None then Bqueue.close t.queue;
  r

let begin_async t =
  Mutex.lock t.pend_m;
  t.pending <- t.pending + 1;
  Mutex.unlock t.pend_m

let end_async t =
  Mutex.lock t.pend_m;
  t.pending <- t.pending - 1;
  if t.pending = 0 then Condition.broadcast t.pend_c;
  Mutex.unlock t.pend_m

let await_idle t =
  Mutex.lock t.pend_m;
  while t.pending > 0 do
    Condition.wait t.pend_c t.pend_m
  done;
  Mutex.unlock t.pend_m

let run t ~grouped ~submit_write ~process ~on_bytes ~on_inflight
    ~on_protocol_error =
  let done_one resp =
    (match send t resp with
    | Some n -> on_bytes ~incoming:0 ~outgoing:n
    | None -> ());
    on_inflight (-1)
  in
  let executor =
    Thread.create
      (fun () ->
        let continue_ = ref true in
        while !continue_ do
          match Bqueue.take t.queue with
          | None -> continue_ := false
          | Some req ->
            if grouped req then begin
              (* pipelined write: hand it to the group-commit flusher
                 and move on — back-to-back writes from this session
                 land in the same batch, one fsync for all of them *)
              begin_async t;
              submit_write t req ~finish:(fun resp ->
                  done_one resp;
                  end_async t)
            end
            else begin
              (* anything else sees this session's writes first *)
              await_idle t;
              let resp = process t req in
              done_one resp;
              if Gkbms.Shell.is_quit req.Protocol.line then (
                Bqueue.close t.queue;
                (* wake the receiver blocked on the transport *)
                t.transport.Protocol.shutdown ())
            end
        done)
      ()
  in
  let reader = Protocol.reader t.transport in
  let last_consumed = ref 0 in
  let receiving = ref true in
  while !receiving do
    (match Protocol.next_frame reader with
    | Ok (Protocol.Request req) ->
      t.last_active <- Unix.gettimeofday ();
      let consumed = Protocol.bytes_consumed reader in
      on_bytes ~incoming:(consumed - !last_consumed) ~outgoing:0;
      last_consumed := consumed;
      if Bqueue.put t.queue req then on_inflight 1 else receiving := false
    | Ok (Protocol.Response _) ->
      on_protocol_error "unexpected response frame from client";
      receiving := false
    | Error `Eof -> receiving := false
    | Error (`Corrupt reason) ->
      on_protocol_error reason;
      receiving := false)
  done;
  Bqueue.close t.queue;
  Thread.join executor;
  (* in-flight group-commit acks still hold a reference to the
     transport; let them land (or fail harmlessly) before closing it *)
  await_idle t;
  detach t
