open Kernel
module Repo = Repository
module Wal = Durability.Wal
module Journal = Durability.Journal

let ( let* ) = Result.bind

let wal_path dir = Filename.concat dir "wal.log"
let checkpoint_path dir = Filename.concat dir "checkpoint.repo"
let archived_wal_path dir gen = Filename.concat dir (Printf.sprintf "wal.%d.log" gen)

(* The live [wal.log] belongs to a numbered generation; rotation
   (checkpoint) and re-attachment archive it as [wal.<gen>.log] so a
   replication follower holding a (generation, byte-offset) cursor can
   still stream the suffix it has not applied yet.  The current
   generation is always 1 + the highest archived number. *)
let parse_archived_gen name =
  match String.split_on_char '.' name with
  | [ "wal"; n; "log" ] -> int_of_string_opt n
  | _ -> None

let archived_generations dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.to_list entries |> List.filter_map parse_archived_gen |> List.sort compare

let derive_generation dir =
  match List.rev (archived_generations dir) with
  | g :: _ -> g + 1
  | [] -> 0

type t = {
  dir : string;
  repo : Repo.t;
  checkpoint_every : int;
  fsync : bool;
  retain_archives : int;
  mutable generation : int;
  mutable journal : Journal.t;
  mutable event_sub : Repo.event_subscription option;
  mutable batches : int;
  mutable closed : bool;
  m : Mutex.t;
      (* serializes log rotation against [ship] readers; appends are
         already serialized by the caller (the server's write lock) *)
}

type report = {
  checkpoint_loaded : bool;
  wal_records : int;
  replayed_ops : int;
  recovered_decisions : string list;
  dangling_frames : int;
  truncated : string option;
  valid_bytes : int;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>checkpoint loaded: %b@,log records: %d (%d bytes valid%s)@,\
     store ops replayed: %d@,decisions recovered: %s@,\
     in-flight decisions rolled back: %d@]"
    r.checkpoint_loaded r.wal_records r.valid_bytes
    (match r.truncated with
    | Some why -> ", tail cut: " ^ why
    | None -> "")
    r.replayed_ops
    (match r.recovered_decisions with
    | [] -> "none"
    | ds -> String.concat ", " ds)
    r.dangling_frames

let ensure_dir dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (dir ^ " exists and is not a directory")
  else
    try
      Unix.mkdir dir 0o755;
      Ok ()
    with Unix.Unix_error (e, _, _) ->
      Error (dir ^ ": " ^ Unix.error_message e)

let fresh_journal ~fsync dir base =
  let sink = Wal.file_sink ~fsync (wal_path dir) in
  Journal.attach (Wal.writer sink) base

let g_checkpoints =
  Obs.Registry.counter Obs.Registry.default "gkbms_checkpoints_total"
    ~help:"Durable snapshots taken (WAL truncations)"

let g_checkpoint_us =
  Obs.Registry.histogram Obs.Registry.default "gkbms_checkpoint_us"
    ~help:"Checkpoint duration: sync, snapshot write and log rotation"

let prune_archives t =
  List.iter
    (fun g ->
      if g < t.generation - t.retain_archives then
        try Sys.remove (archived_wal_path t.dir g) with Sys_error _ -> ())
    (archived_generations t.dir)

(* the archive's rename and the fresh log's entry *)
let sync_dir t = if t.fsync then Wal.sync_dir t.dir else Ok ()

let checkpoint t =
  if t.closed then Error "Durable.checkpoint: handle closed"
  else
    Obs.Trace.with_span "durable.checkpoint" @@ fun () ->
    let t0 = Obs.Runtime.now_s () in
    Journal.sync t.journal;
    let* () =
      Persist.save_to_file ~fsync:t.fsync t.repo (checkpoint_path t.dir)
    in
    (* the log is rotated only after the snapshot is durable (with
       [fsync]: its bytes, then its rename); a crash in between replays
       the (idempotent) suffix over the snapshot.  The old log is
       archived rather than deleted so followers can still stream from
       a pre-rotation cursor. *)
    let base = Cml.Kb.base (Repo.kb t.repo) in
    Mutex.lock t.m;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.m) @@ fun () ->
    Journal.detach t.journal;
    Wal.close (Journal.writer t.journal);
    (try Sys.rename (wal_path t.dir) (archived_wal_path t.dir t.generation)
     with Sys_error _ -> ());
    t.generation <- t.generation + 1;
    prune_archives t;
    t.journal <- fresh_journal ~fsync:t.fsync t.dir base;
    Obs.Registry.Counter.inc g_checkpoints;
    Obs.Histogram.observe g_checkpoint_us ((Obs.Runtime.now_s () -. t0) *. 1e6);
    sync_dir t

let maybe_checkpoint t =
  (* [checkpoint_every] is a floor, not the whole trigger: a snapshot
     costs O(base), so rotating every fixed number of records would
     charge each decision an O(base/k) checkpoint tax as the repository
     grows.  Waiting until the log carries at least as many records as
     the base holds propositions keeps the write-path amortized O(1):
     by then, replaying the log costs about as much as loading the
     snapshot it replaces. *)
  let threshold =
    max t.checkpoint_every (Store.Base.cardinal (Cml.Kb.base (Repo.kb t.repo)))
  in
  if
    Journal.depth t.journal = 0
    && Wal.records_written (Journal.writer t.journal) >= threshold
  then ignore (checkpoint t : (unit, string) result)

let handle_event t = function
  | Repo.Decision_begun cls -> Journal.begin_decision t.journal cls
  | Repo.Decision_committed id ->
    let name = Symbol.name id in
    Obs.Trace.with_span "wal.append" ~attrs:[ ("decision", name) ] (fun () ->
        (* the trace note travels inside the committed frame, ahead of
           the commit record: recovery ignores it, followers read it to
           compute per-decision visibility lag and continue the trace *)
        Journal.note t.journal Obs.Trace_context.note_key
          (Obs.Trace_context.note_value ~decision:name
             ~ctx:(Obs.Trace.current_context ())
             ~commit_s:(Obs.Runtime.now_s ()));
        Journal.commit_decision t.journal name);
    Obs.Recorder.record ~decision:name Obs.Recorder.Wal_appended;
    maybe_checkpoint t
  | Repo.Decision_aborted reason -> Journal.abort_decision t.journal reason
  | Repo.Decision_unlogged id ->
    Journal.note t.journal "unlog" (Symbol.name id);
    Journal.sync t.journal
  | Repo.Artifact_written id -> (
    match Repo.artifact t.repo id with
    | Some a ->
      Journal.artifact t.journal (Symbol.name id)
        (Sexp.to_string (Persist.sexp_of_artifact a))
    | None -> ())

let read_file path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    Ok text
  with Sys_error e -> Error e

(* Archive the valid prefix of a leftover [wal.log] under its
   generation number before a fresh log replaces it.  A torn or corrupt
   tail is cut at the scan boundary, so archives only ever hold frames
   that recovery would accept. *)
let archive_existing_log dir =
  let wal = wal_path dir in
  if not (Sys.file_exists wal) then derive_generation dir
  else
    let gen = derive_generation dir in
    (match read_file wal with
    | Error _ -> ()
    | Ok data ->
      let scan = Wal.scan data in
      let prefix = String.sub data 0 scan.Wal.valid_bytes in
      let oc = open_out_bin (archived_wal_path dir gen) in
      output_string oc prefix;
      close_out oc);
    gen + 1

let attach ?(checkpoint_every = 256) ?(fsync = false) ?(retain_archives = 8)
    ~dir repo =
  let* () = ensure_dir dir in
  let* () = Persist.save_to_file ~fsync repo (checkpoint_path dir) in
  let generation = archive_existing_log dir in
  let base = Cml.Kb.base (Repo.kb repo) in
  let t =
    {
      dir;
      repo;
      checkpoint_every;
      fsync;
      retain_archives;
      generation;
      journal = fresh_journal ~fsync dir base;
      event_sub = None;
      batches = 0;
      closed = false;
      m = Mutex.create ();
    }
  in
  prune_archives t;
  match sync_dir t with
  | Error e ->
    Journal.detach t.journal;
    Wal.close (Journal.writer t.journal);
    Error e
  | Ok () ->
    t.event_sub <- Some (Repo.on_event repo (fun e -> handle_event t e));
    Ok t

let replay_record repo = function
  | (Wal.Put _ | Wal.Tomb _) as r -> Journal.apply (Cml.Kb.base (Repo.kb repo)) r
  | Wal.Artifact (name, text) ->
    let* a =
      Result.map_error
        (Printf.sprintf "artifact %s: %s" name)
        (Result.bind (Sexp.parse text) Persist.artifact_of_sexp)
    in
    Repo.set_artifact repo (Symbol.intern name) a;
    Ok false
  | Wal.Note ("unlog", name) ->
    Repo.unlog_decision repo (Symbol.intern name);
    Ok false
  | Wal.Note _ | Wal.Decision_begin _ | Wal.Decision_commit _
  | Wal.Decision_abort _ ->
    Ok false

let recover ?register_tools ~dir () =
  let cp = checkpoint_path dir in
  let* repo, checkpoint_loaded =
    if Sys.file_exists cp then
      let* text = read_file cp in
      let* repo =
        Result.map_error
          (fun e -> cp ^ ": " ^ e)
          (Persist.load_repository_raw text)
      in
      Ok (repo, true)
    else Ok (Repo.create (), false)
  in
  let wal = wal_path dir in
  let* report =
    if not (Sys.file_exists wal) then
      Ok
        {
          checkpoint_loaded;
          wal_records = 0;
          replayed_ops = 0;
          recovered_decisions = [];
          dangling_frames = 0;
          truncated = None;
          valid_bytes = 0;
        }
    else
      let* scan = Wal.read_file wal in
      let replayer = Journal.Replayer.create () in
      let replayed = ref 0 and recovered = ref [] in
      let rec apply acc item =
        let* () = acc in
        match item with
        | Journal.Record r ->
          let* changed = replay_record repo r in
          if changed then incr replayed;
          Ok ()
        | Journal.Decision { id; items; _ } ->
          let* () = List.fold_left apply (Ok ()) items in
          let dec = Symbol.intern id in
          (* a decision already in the checkpoint's log is a replayed
             pre-checkpoint suffix record — skip it *)
          if not (Repo.is_logged repo dec) then begin
            Repo.log_decision repo dec;
            recovered := id :: !recovered
          end;
          Ok ()
      in
      let* () =
        List.fold_left
          (fun acc r -> List.fold_left apply acc (Journal.Replayer.feed replayer r))
          (Ok ()) scan.Wal.records
      in
      Ok
        {
          checkpoint_loaded;
          wal_records = List.length scan.Wal.records;
          replayed_ops = !replayed;
          recovered_decisions = List.rev !recovered;
          dangling_frames = Journal.Replayer.depth replayer;
          truncated = scan.Wal.truncated;
          valid_bytes = scan.Wal.valid_bytes;
        }
  in
  ignore (Repo.drain_changes repo : Store.Base.change list);
  Persist.finalize ?register_tools repo;
  Ok (repo, report)

let open_ ?register_tools ?checkpoint_every ?fsync ~dir () =
  let* repo, report = recover ?register_tools ~dir () in
  let* t = attach ?checkpoint_every ?fsync ~dir repo in
  Ok (t, report)

let repo t = t.repo
let dir t = t.dir
let sync t = Journal.sync t.journal

(* Group commit: the caller (the daemon's batch flusher, under the
   scheduler's exclusive lock) brackets a run of decision commits; the
   per-decision syncs in [handle_event] are deferred to the single
   end-of-batch sync in [commit_batch].  The checkpoint check is also
   deferred to the batch edge — [maybe_checkpoint] requires a
   frame-clean log and the open batch counts as a frame. *)
let begin_batch t =
  if not t.closed then begin
    t.batches <- t.batches + 1;
    Journal.begin_batch t.journal (string_of_int t.batches)
  end

let commit_batch t =
  if (not t.closed) && Journal.in_batch t.journal then begin
    Journal.commit_batch t.journal (string_of_int t.batches);
    maybe_checkpoint t
  end
let wal_records t = Wal.records_written (Journal.writer t.journal)
let wal_bytes t = Wal.bytes_written (Journal.writer t.journal)
let generation t = t.generation

(* ---------------- frame shipping (replication) ---------------- *)

type ship = {
  chunk : string;
  next_gen : int;
  next_offset : int;
  at_head : bool;
}

let read_range path ~offset ~stop =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  seek_in ic offset;
  really_input_string ic (stop - offset)

let ship t ~gen ~offset ~max_bytes =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) @@ fun () ->
  if t.closed then Error (`Failure "Durable.ship: handle closed")
  else if gen > t.generation || gen < 0 then Error `Resync
  else if gen = t.generation then begin
    (* make every appended frame visible to the read below; syncs only
       happen at decision boundaries, so the synced prefix never ends
       inside an open frame *)
    Journal.sync t.journal;
    let size = Wal.bytes_written (Journal.writer t.journal) in
    let offset = max offset Wal.header_bytes in
    if offset > size then Error `Resync
    else if offset = size then
      Ok { chunk = ""; next_gen = gen; next_offset = offset; at_head = true }
    else
      let stop = min size (offset + max_bytes) in
      match read_range (wal_path t.dir) ~offset ~stop with
      | chunk ->
        Ok { chunk; next_gen = gen; next_offset = stop; at_head = stop = size }
      | exception Sys_error e -> Error (`Failure e)
  end
  else
    let path = archived_wal_path t.dir gen in
    if not (Sys.file_exists path) then Error `Resync
    else
      let size = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0 in
      let offset = max offset Wal.header_bytes in
      if size <= Wal.header_bytes || offset = size then
        (* archive exhausted: continue at the start of the next one *)
        Ok
          {
            chunk = "";
            next_gen = gen + 1;
            next_offset = Wal.header_bytes;
            at_head = false;
          }
      else if offset > size then Error `Resync
      else
        let stop = min size (offset + max_bytes) in
        match read_range path ~offset ~stop with
        | chunk ->
          Ok { chunk; next_gen = gen; next_offset = stop; at_head = false }
        | exception Sys_error e -> Error (`Failure e)

let close t =
  if not t.closed then begin
    (match t.event_sub with
    | Some s -> Repo.off_event t.repo s
    | None -> ());
    Journal.detach t.journal;
    Wal.close (Journal.writer t.journal);
    t.closed <- true
  end
