module Daemon = Server.Daemon
module Protocol = Server.Protocol
module Repo = Gkbms.Repository
module Durable = Gkbms.Durable

let g_frames_shipped =
  Obs.Registry.counter Obs.Registry.default "gkbms_repl_frames_shipped_total"
    ~help:"WAL frame chunks shipped to followers"

let g_bytes_shipped =
  Obs.Registry.counter Obs.Registry.default "gkbms_repl_bytes_shipped_total"
    ~help:"WAL bytes shipped to followers"

let g_snapshots =
  Obs.Registry.counter Obs.Registry.default "gkbms_repl_snapshots_total"
    ~help:"Snapshot (checkpoint) transfers started by follower bootstraps"

type ack = {
  mutable k_gen : int;
  mutable k_offset : int;
  mutable k_epoch : int;
  mutable k_version : int;
}

type t = {
  daemon : Daemon.t;
  durable : Durable.t;
  repo : Repo.t;
  m : Mutex.t;  (** follower ack table *)
  followers : (string, ack) Hashtbl.t;
}

(* leave generous headroom under the protocol frame bound for the
   response header *)
let max_chunk = Protocol.max_frame - 4096

(* checkpoint bytes per snapshot response, well under [max_chunk] *)
let snapshot_chunk = 1 lsl 20

let retained_generations = 8

(* One consistent capture: under the repository lock no decision or
   batch is mid-commit, so the journal is at frame depth 0 and (ship
   result, generation, version) describe the same leader state — the
   invariant behind the (epoch, version) session token. *)
let capture t ~gen ~offset ~max_bytes =
  Daemon.exclusive t.daemon (fun () ->
      let shipped = Durable.ship t.durable ~gen ~offset ~max_bytes in
      let epoch = Durable.generation t.durable in
      let version = Repo.version t.repo in
      (shipped, epoch, version))

let resync_error =
  "error: resync: cursor unservable (archive pruned or past the log head); \
   re-bootstrap from a snapshot"

let handle_frames t ~gen ~offset ~max_bytes ~wait_ms =
  let max_bytes = max 1 (min max_bytes max_chunk) in
  let deadline = Unix.gettimeofday () +. (float_of_int wait_ms /. 1e3) in
  let rec go () =
    match capture t ~gen ~offset ~max_bytes with
    | Error `Resync, _, _ -> resync_error
    | Error (`Failure e), _, _ -> "error: " ^ e
    | Ok s, epoch, version ->
      if
        s.Durable.chunk = "" && s.Durable.at_head
        && Unix.gettimeofday () < deadline
      then begin
        (* long poll: nothing new yet; re-capture shortly *)
        Thread.delay 0.01;
        go ()
      end
      else if s.Durable.chunk <> "" then begin
        Obs.Registry.Counter.inc g_frames_shipped;
        Obs.Registry.Counter.inc g_bytes_shipped
          ~by:(String.length s.Durable.chunk);
        Obs.Trace.with_span "repl.ship"
          ~attrs:
            [
              ("gen", string_of_int gen);
              ("bytes", string_of_int (String.length s.Durable.chunk));
            ]
          (fun () ->
            Wire.format_frames ~next_gen:s.Durable.next_gen
              ~next_offset:s.Durable.next_offset ~caught_up:s.Durable.at_head
              ~epoch ~version ~chunk:s.Durable.chunk)
      end
      else
        Wire.format_frames ~next_gen:s.Durable.next_gen
          ~next_offset:s.Durable.next_offset ~caught_up:s.Durable.at_head
          ~epoch ~version ~chunk:s.Durable.chunk
  in
  go ()

let handle_snapshot t ~from =
  (* under the repository lock the checkpoint file cannot rotate
     underneath us, and it always describes the state at the current
     generation's first frame (both attach and checkpoint write it
     immediately before opening the generation's log).  Only the
     requested chunk is read: a bootstrap costs the file once, not once
     per chunk. *)
  Daemon.exclusive t.daemon (fun () ->
      let path = Durable.checkpoint_path (Durable.dir t.durable) in
      let cannot_read e = "error: cannot read checkpoint: " ^ e in
      match (Unix.stat path).Unix.st_size with
      | exception Unix.Unix_error (e, _, _) -> cannot_read (Unix.error_message e)
      | total ->
        if from < 0 || from > total then
          Printf.sprintf "error: snapshot offset %d out of range (total %d)"
            from total
        else begin
          let stop = min total (from + snapshot_chunk) in
          match Durable.read_range path ~offset:from ~stop with
          | exception Sys_error e -> cannot_read e
          | chunk ->
            if from = 0 then Obs.Registry.Counter.inc g_snapshots;
            Wire.format_snapshot
              ~generation:(Durable.generation t.durable)
              ~offset:Durability.Wal.header_bytes ~total ~chunk
        end)

let handle_ack t ~name ~gen ~offset ~epoch ~version =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.followers name with
  | Some a ->
    a.k_gen <- gen;
    a.k_offset <- offset;
    a.k_epoch <- epoch;
    a.k_version <- version
  | None ->
    Hashtbl.replace t.followers name
      { k_gen = gen; k_offset = offset; k_epoch = epoch; k_version = version });
  Mutex.unlock t.m;
  (* leader-side lag gauges, per follower *)
  let cur_gen = Durable.generation t.durable in
  let lag_bytes =
    if gen = cur_gen then max 0 (Durable.wal_bytes t.durable - offset)
    else Durable.wal_bytes t.durable
  in
  let lag_versions =
    if epoch = cur_gen then max 0 (Repo.version t.repo - version)
    else Repo.version t.repo
  in
  Obs.Registry.Gauge.set
    (Obs.Registry.gauge Obs.Registry.default "gkbms_repl_follower_lag_bytes"
       ~labels:[ ("follower", name) ]
       ~help:"Bytes of WAL the follower has not acknowledged")
    (float_of_int lag_bytes);
  Obs.Registry.Gauge.set
    (Obs.Registry.gauge Obs.Registry.default "gkbms_repl_follower_lag_versions"
       ~labels:[ ("follower", name) ]
       ~help:"Leader versions ahead of the follower's acknowledged token")
    (float_of_int lag_versions);
  "ok"

let handle_status t =
  let b = Buffer.create 128 in
  Buffer.add_string b
    (Printf.sprintf "leader gen %d offset %d version %d\n"
       (Durable.generation t.durable)
       (Durable.wal_bytes t.durable)
       (Repo.version t.repo));
  Mutex.lock t.m;
  let rows =
    Hashtbl.fold
      (fun name a acc ->
        Printf.sprintf "follower %s gen %d offset %d epoch %d version %d" name
          a.k_gen a.k_offset a.k_epoch a.k_version
        :: acc)
      t.followers []
  in
  Mutex.unlock t.m;
  List.iter
    (fun r ->
      Buffer.add_string b r;
      Buffer.add_char b '\n')
    (List.sort String.compare rows);
  String.trim (Buffer.contents b)

let int_arg s = int_of_string_opt s

let handle t line =
  match Wire.words line with
  | [ "repl"; "hello" ] ->
    Some
      (Daemon.exclusive t.daemon (fun () ->
           Wire.format_hello
             ~generation:(Durable.generation t.durable)
             ~version:(Repo.version t.repo)))
  | [ "repl"; "token" ] ->
    Some
      (Daemon.exclusive t.daemon (fun () ->
           Wire.format_token
             ~epoch:(Durable.generation t.durable)
             ~version:(Repo.version t.repo)))
  | [ "repl"; "snapshot"; from ] -> (
    match int_arg from with
    | Some from -> Some (handle_snapshot t ~from)
    | None -> Some "error: usage: repl snapshot FROM")
  | [ "repl"; "frames"; gen; offset; max_bytes; wait_ms ] -> (
    match (int_arg gen, int_arg offset, int_arg max_bytes, int_arg wait_ms) with
    | Some gen, Some offset, Some max_bytes, Some wait_ms ->
      let wait_ms = Wire.clamp_wait_ms wait_ms in
      Some (handle_frames t ~gen ~offset ~max_bytes ~wait_ms)
    | _ -> Some "error: usage: repl frames GEN OFFSET MAX_BYTES WAIT_MS")
  | [ "repl"; "ack"; name; gen; offset; epoch; version ] -> (
    match (int_arg gen, int_arg offset, int_arg epoch, int_arg version) with
    | Some gen, Some offset, Some epoch, Some version ->
      Some (handle_ack t ~name ~gen ~offset ~epoch ~version)
    | _ -> Some "error: usage: repl ack NAME GEN OFFSET EPOCH VERSION")
  | [ "repl"; "status" ] -> Some (handle_status t)
  | "repl" :: _ ->
    Some
      "error: unknown repl command (hello|token|snapshot|frames|ack|status)"
  | "wait" :: args ->
    Some
      (Wire.answer_wait ~role:"leader"
         ~current:(fun () -> (Durable.generation t.durable, Repo.version t.repo))
         args)
  | _ -> None

let attach daemon =
  match Daemon.durable daemon with
  | None ->
    Error
      "replication leader requires an attached WAL (start the server with \
       --wal DIR)"
  | Some durable ->
    Durable.set_retention durable retained_generations;
    let t =
      {
        daemon;
        durable;
        repo = Daemon.repo daemon;
        m = Mutex.create ();
        followers = Hashtbl.create 8;
      }
    in
    Daemon.set_extension daemon (handle t);
    Ok t

let followers t =
  Mutex.lock t.m;
  let rows =
    Hashtbl.fold
      (fun name a acc -> (name, (a.k_gen, a.k_offset, a.k_epoch, a.k_version)) :: acc)
      t.followers []
  in
  Mutex.unlock t.m;
  List.sort compare rows
