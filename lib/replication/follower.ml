module Daemon = Server.Daemon
module Client = Server.Client
module Protocol = Server.Protocol
module Repo = Gkbms.Repository
module Durable = Gkbms.Durable
module Wal = Durability.Wal

let cursor_file dir = Filename.concat dir "repl.cursor"

let g_chunks =
  Obs.Registry.counter Obs.Registry.default "gkbms_repl_chunks_received_total"
    ~help:"WAL frame chunks received from the leader"

let g_bytes =
  Obs.Registry.counter Obs.Registry.default "gkbms_repl_bytes_received_total"
    ~help:"WAL bytes received from the leader"

let g_bootstraps =
  Obs.Registry.counter Obs.Registry.default "gkbms_repl_bootstraps_total"
    ~help:"Snapshot bootstraps performed by this follower"

type t = {
  name : string;
  leader : string;  (** where to redirect writes *)
  dir : string;
  connect : unit -> (Client.t, string) result;
  daemon : Daemon.t;
  durable : Durable.t;
  repo : Repo.t;
  applier : Applier.t;
  m : Mutex.t;
  mutable cursor_gen : int;  (** scan cursor: where the next request reads *)
  mutable cursor_offset : int;
  mutable safe_gen : int;
      (** persisted-safe cursor: last frame-boundary (applier depth 0)
          position, outside every decision frame and batch; resuming
          here never replays half a decision *)
  mutable safe_offset : int;
  mutable applied_epoch : int;  (** leader token this state is caught up to *)
  mutable applied_version : int;
  mutable chunk_bytes : int;  (** adaptive request size *)
  mutable conn : Client.t option;
  mutable last_error : string option;
  mutable needs_resync : bool;
  mutable stop_flag : bool;
  mutable thread : Thread.t option;
}

let max_chunk = Protocol.max_frame - 4096

(* ------------------------------------------------------------------ *)
(* cursor persistence: tmp + rename, only ever describing a depth-0
   frame boundary.  A crash after apply but before persist just replays
   an overlap that the applier skips (already-logged decisions). *)

let persist_cursor t =
  let tmp = cursor_file t.dir ^ ".tmp" in
  let oc = open_out_bin tmp in
  Printf.fprintf oc "%d %d %d %d\n" t.safe_gen t.safe_offset t.applied_epoch
    t.applied_version;
  close_out oc;
  Sys.rename tmp (cursor_file t.dir)

let read_cursor dir =
  if not (Sys.file_exists (cursor_file dir)) then None
  else
    try
      let ic = open_in_bin (cursor_file dir) in
      let line = input_line ic in
      close_in ic;
      match
        List.filter_map int_of_string_opt
          (String.split_on_char ' ' (String.trim line))
      with
      | [ g; o; e; v ] -> Some (g, o, e, v)
      | _ -> None
    with _ -> None

let set_applied t epoch version =
  Mutex.lock t.m;
  if
    Wire.token_le (t.applied_epoch, t.applied_version) (epoch, version)
    && (epoch, version) <> (t.applied_epoch, t.applied_version)
  then begin
    t.applied_epoch <- epoch;
    t.applied_version <- version
  end;
  Mutex.unlock t.m;
  Obs.Registry.Gauge.set
    (Obs.Registry.gauge Obs.Registry.default "gkbms_repl_applied_version"
       ~labels:[ ("follower", t.name) ]
       ~help:"Leader (epoch, version) token this follower has applied \
              through (version half)")
    (float_of_int version)

let applied t =
  Mutex.lock t.m;
  let a = (t.applied_epoch, t.applied_version) in
  Mutex.unlock t.m;
  a

let cursor t = (t.cursor_gen, t.cursor_offset)
let daemon t = t.daemon
let repo t = t.repo
let last_error t = t.last_error
let needs_resync t = t.needs_resync

(* ------------------------------------------------------------------ *)
(* leader connection *)

let drop_conn t =
  (match t.conn with Some c -> (try Client.close c with _ -> ()) | None -> ());
  t.conn <- None

let ensure_conn t =
  match t.conn with
  | Some c -> Ok c
  | None -> (
    match t.connect () with
    | Error e -> Error ("cannot reach leader: " ^ e)
    | Ok c -> (
      match Result.bind (Client.request c Wire.hello) Wire.parse_hello with
      | Ok _ ->
        t.conn <- Some c;
        Ok c
      | Error e ->
        (try Client.close c with _ -> ());
        Error ("leader handshake failed: " ^ e)))

(* ------------------------------------------------------------------ *)
(* applying a shipped chunk *)

let apply_chunk t ~offset chunk =
  Result.bind
    (Result.map_error
       (Printf.sprintf "generation %d from byte %d: %s" t.cursor_gen offset)
       (Wal.scan_from ~expect_header:false chunk ~offset:0))
  @@ fun scan ->
  let consumed = scan.Wal.valid_bytes in
  if scan.Wal.frames = [] then Ok (0, consumed)
  else
    let apply acc r = Result.bind acc (fun () -> Applier.feed t.applier r) in
    let res =
      Daemon.exclusive t.daemon (fun () ->
          (* a frame ends where its decision does, unless the decision
             outgrew one frame: the safe cursor moves to each frame end
             that leaves no decision open *)
          let res =
            List.fold_left
              (fun acc (f : Wal.frame) ->
                let acc = List.fold_left apply acc f.records in
                if Result.is_ok acc && Applier.depth t.applier = 0 then begin
                  t.safe_gen <- t.cursor_gen;
                  t.safe_offset <- offset + f.stop
                end;
                acc)
              (Ok ()) scan.Wal.frames
          in
          (* the shell normally drains the change batch after each
             command; nobody else does it on a follower *)
          ignore (Repo.drain_changes t.repo);
          (* our own journal recorded the replayed decisions; make them
             durable before the cursor can move past them *)
          match Durable.sync t.durable with
          | () -> res
          | exception e -> Error ("journal sync: " ^ Printexc.to_string e))
    in
    let records =
      List.fold_left (fun n (f : Wal.frame) -> n + List.length f.records) 0 scan.Wal.frames
    in
    Result.map (fun () -> (records, consumed)) res

let send_ack t conn =
  (* best-effort: progress reporting must never stall replication *)
  ignore
    (Client.request conn
       (Wire.ack ~name:t.name ~gen:t.safe_gen ~offset:t.safe_offset
          ~epoch:t.applied_epoch ~version:t.applied_version))

(* One pull/apply round.  Returns the number of records applied; 0 with
   [Ok] means caught up (or a cursor redirect).  [wait_ms] long-polls on
   the leader when it has nothing new. *)
let step ?(wait_ms = 0) t =
  if t.needs_resync then
    Error "resync required: restart the follower to re-bootstrap"
  else
    match ensure_conn t with
    | Error e ->
      t.last_error <- Some e;
      Error e
    | Ok conn -> (
      let gen = t.cursor_gen and offset = t.cursor_offset in
      match
        Client.request conn
          (Wire.frames ~gen ~offset ~max_bytes:t.chunk_bytes ~wait_ms)
      with
      | Error msg when Wire.is_resync_error msg ->
        t.needs_resync <- true;
        t.last_error <- Some msg;
        Error msg
      | Error msg ->
        (* transport trouble or leader restart: reconnect next round *)
        drop_conn t;
        t.last_error <- Some msg;
        Error msg
      | Ok payload -> (
        match Wire.parse_frames payload with
        | Error e ->
          t.last_error <- Some e;
          Error e
        | Ok r ->
          t.last_error <- None;
          if r.Wire.f_chunk = "" then begin
            if r.Wire.f_next_gen <> t.cursor_gen then begin
              (* generation redirect: the archived log is exhausted.  A
                 recovery-archived generation can end inside a decision
                 frame or a batch the leader rolled back — drop it *)
              Daemon.exclusive t.daemon (fun () -> Applier.reset t.applier);
              t.cursor_gen <- r.Wire.f_next_gen;
              t.cursor_offset <- r.Wire.f_next_offset;
              t.safe_gen <- r.Wire.f_next_gen;
              t.safe_offset <- r.Wire.f_next_offset;
              persist_cursor t
            end
            else if r.Wire.f_caught_up then begin
              set_applied t r.Wire.f_epoch r.Wire.f_version;
              persist_cursor t;
              send_ack t conn
            end;
            Ok 0
          end
          else begin
            Obs.Registry.Counter.inc g_chunks;
            Obs.Registry.Counter.inc g_bytes
              ~by:(String.length r.Wire.f_chunk);
            match apply_chunk t ~offset r.Wire.f_chunk with
            | Error e ->
              t.last_error <- Some ("apply: " ^ e);
              Error ("apply: " ^ e)
            | Ok (records, consumed) ->
              if consumed = 0 then begin
                (* a single frame larger than the request window *)
                if t.chunk_bytes >= max_chunk then
                  Error "frame exceeds the maximum request window"
                else begin
                  t.chunk_bytes <- min (t.chunk_bytes * 2) max_chunk;
                  Ok 0
                end
              end
              else begin
                t.cursor_offset <- offset + consumed;
                if
                  consumed = String.length r.Wire.f_chunk
                  && r.Wire.f_caught_up
                then set_applied t r.Wire.f_epoch r.Wire.f_version;
                persist_cursor t;
                send_ack t conn;
                Ok records
              end
          end))

(* Pull until a round makes no progress at all: the cursor, the applied
   token and the request window are all unchanged — which only happens
   on an empty caught-up response. *)
let rec catch_up ?(wait_ms = 0) t =
  let before =
    (t.cursor_gen, t.cursor_offset, t.chunk_bytes, applied t)
  in
  match step ~wait_ms t with
  | Error e -> Error e
  | Ok _ ->
    if (t.cursor_gen, t.cursor_offset, t.chunk_bytes, applied t) = before then
      Ok ()
    else catch_up ~wait_ms t

(* ------------------------------------------------------------------ *)
(* read-your-writes: block until the applied token covers the client's *)

let wait_for t ~epoch ~version ~timeout_ms =
  Result.is_ok
    (Wire.await ~current:(fun () -> applied t) ~epoch ~version ~timeout_ms)

let extension t line =
  match Wire.words line with
  | [ "repl"; "applied" ] ->
    let e, v = applied t in
    Some (Wire.format_token ~epoch:e ~version:v)
  | [ "repl"; "status" ] ->
    Some
      (Printf.sprintf "follower %s gen %d offset %d epoch %d version %d%s"
         t.name t.cursor_gen t.cursor_offset t.applied_epoch t.applied_version
         (match t.last_error with
         | Some e when t.needs_resync -> " resync: " ^ e
         | _ -> ""))
  | "wait" :: args ->
    Some (Wire.answer_wait ~role:"follower" ~current:(fun () -> applied t) args)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* bootstrap / recover *)

let fetch_snapshot conn =
  let buf = Buffer.create 65536 in
  let rec go ~from ~expect_gen =
    match Result.bind (Client.request conn (Wire.snapshot ~from)) Wire.parse_snapshot
    with
    | Error e -> Error e
    | Ok r ->
      if
        match expect_gen with
        | Some g -> g <> r.Wire.s_generation
        | None -> false
      then begin
        (* the leader checkpointed mid-transfer; the file we were
           reading is gone — restart against the new generation *)
        Buffer.clear buf;
        go ~from:0 ~expect_gen:None
      end
      else begin
        Buffer.add_string buf r.Wire.s_chunk;
        let got = from + String.length r.Wire.s_chunk in
        if got >= r.Wire.s_total then
          Ok (r.Wire.s_generation, r.Wire.s_offset, Buffer.contents buf)
        else if r.Wire.s_chunk = "" then
          Error "leader sent an empty snapshot chunk before the total"
        else go ~from:got ~expect_gen:(Some r.Wire.s_generation)
      end
  in
  go ~from:0 ~expect_gen:None

let follower_config config leader =
  { config with Daemon.read_only = Some leader }

let create ?(config = Daemon.default_config) ?name ~leader ~connect ~dir () =
  let name =
    match name with
    | Some n -> n
    | None -> Printf.sprintf "follower-%d" (Unix.getpid ())
  in
  let fresh_bootstrap () =
    match connect () with
    | Error e -> Error ("cannot reach leader: " ^ e)
    | Ok conn -> (
      let r =
        match Result.bind (Client.request conn Wire.hello) Wire.parse_hello with
        | Error e -> Error ("leader handshake failed: " ^ e)
        | Ok _ -> (
          match fetch_snapshot conn with
          | Error e -> Error ("snapshot: " ^ e)
          | Ok (gen, offset, data) -> (
            match Gkbms.Persist.load_repository data with
            | Error e -> Error ("snapshot decode: " ^ e)
            | Ok repo -> (
              match Durable.attach ~dir repo with
              | Error e -> Error e
              | Ok durable ->
                Obs.Registry.Counter.inc g_bootstraps;
                Ok (repo, durable, gen, offset, 0, 0))))
      in
      (try Client.close conn with _ -> ());
      r)
  in
  let boot =
    if
      Sys.file_exists (Durable.checkpoint_path dir)
      && read_cursor dir <> None
    then
      (* warm restart: rebuild local state from our own WAL, resume the
         stream at the persisted frame-boundary cursor *)
      match Durable.open_ ~dir () with
      | Error e -> Error ("follower recovery: " ^ e)
      | Ok (durable, _report) ->
        let g, o, e, v = Option.get (read_cursor dir) in
        Ok (Durable.repo durable, durable, g, o, e, v)
    else fresh_bootstrap ()
  in
  match boot with
  | Error e -> Error e
  | Ok (repo, durable, gen, offset, epoch, version) -> (
    let daemon = Daemon.create ~config:(follower_config config leader) repo in
    match Daemon.attach_durable daemon durable with
    | Error e -> Error e
    | Ok () ->
      let t =
        {
          name;
          leader;
          dir;
          connect;
          daemon;
          durable;
          repo;
          applier = Applier.create repo;
          m = Mutex.create ();
          cursor_gen = gen;
          cursor_offset = offset;
          safe_gen = gen;
          safe_offset = offset;
          applied_epoch = epoch;
          applied_version = version;
          chunk_bytes = 1 lsl 20;
          conn = None;
          last_error = None;
          needs_resync = false;
          stop_flag = false;
          thread = None;
        }
      in
      persist_cursor t;
      Daemon.set_extension daemon (extension t);
      Ok t)

let leader_addr t = t.leader
let name t = t.name

(* ------------------------------------------------------------------ *)
(* the puller thread *)

let start ?(wait_ms = 500) t =
  if t.thread = None then
    t.thread <-
      Some
        (Thread.create
           (fun () ->
             while not t.stop_flag do
               match step ~wait_ms t with
               | Ok _ -> ()
               | Error _ ->
                 (* resync demands an operator restart; transient
                    failures back off briefly before reconnecting *)
                 if t.needs_resync then Thread.delay 0.5
                 else Thread.delay 0.2
             done)
           ())

let stop t =
  t.stop_flag <- true;
  (match t.thread with
  | Some th ->
    (try Thread.join th with _ -> ());
    t.thread <- None
  | None -> ());
  drop_conn t;
  Daemon.stop t.daemon
