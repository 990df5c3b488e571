open Kernel
module Repo = Gkbms.Repository
module Wal = Durability.Wal
module J = Tms.Jtms

let ( let* ) = Result.bind

let g_records =
  Obs.Registry.counter Obs.Registry.default "gkbms_repl_records_applied_total"
    ~help:"WAL records applied from the replication stream"

let g_decisions =
  Obs.Registry.counter Obs.Registry.default "gkbms_repl_decisions_applied_total"
    ~help:"Decision frames applied from the replication stream"

let g_visibility_lag =
  Obs.Registry.histogram Obs.Registry.default
    "gkbms_repl_visibility_lag_seconds"
    ~help:
      "Per-decision replication visibility lag: follower apply wall-clock \
       minus the leader's commit wall-clock, from the trace note in the \
       shipped frame"

(* Buffered decision frames.  The leader's WAL brackets every decision
   with begin/commit records (nested decisions nest their frames); the
   applier buffers records until the OUTERMOST commit arrives and only
   then touches the repository — so a follower killed mid-batch never
   exposes (or journals) half a decision: its own WAL either holds the
   whole replayed frame or a dangling one that its recovery rolls
   back. *)
type item = Rec of Wal.record | Sub of string * frame
and frame = { cls : string; mutable items : item list (* newest first *) }

type t = {
  repo : Repo.t;
  mutable stack : frame list;  (** open frames, innermost first *)
  mutable records_fed : int;
  mutable decisions_applied : int;
}

let create repo = { repo; stack = []; records_fed = 0; decisions_applied = 0 }
let depth t = List.length t.stack
let records_fed t = t.records_fed
let decisions_applied t = t.decisions_applied

(* dropped buffered frames: a generation boundary (or resync) starts
   from a clean frame edge, so open frames from a torn archive tail
   must not leak across *)
let reset t = t.stack <- []

let apply_put repo (p : Prop.t) =
  let base = Cml.Kb.base (Repo.kb repo) in
  match Store.Base.find base p.Prop.id with
  | Some existing when Prop.equal existing p -> Ok ()
  | Some _ ->
    let* _removed = Store.Base.remove base p.Prop.id in
    Store.Base.insert base p
  | None -> Store.Base.insert base p

let apply_tomb repo id =
  let base = Cml.Kb.base (Repo.kb repo) in
  if Store.Base.mem base id then
    let* _removed = Store.Base.remove base id in
    Ok ()
  else Ok ()

let apply_unlog repo dec =
  (* mirror of Backtrack.retract's reason-maintenance teardown *)
  let justs = Repo.justifications_of repo dec in
  J.retract_batch (Repo.jtms repo) justs;
  Repo.forget_justifications repo dec;
  Repo.unlog_decision repo dec;
  Ok ()

let apply_plain t r =
  let repo = t.repo in
  let* () =
    match r with
    | Wal.Put p -> apply_put repo p
    | Wal.Tomb id -> apply_tomb repo id
    | Wal.Artifact (name, text) ->
      let* a = Result.bind (Sexp.parse text) Gkbms.Persist.artifact_of_sexp in
      Repo.set_artifact repo (Symbol.intern name) a;
      Ok ()
    | Wal.Note ("unlog", name) -> apply_unlog repo (Symbol.intern name)
    | Wal.Note (key, v) when key = Wire.trace_note_key ->
      (* the leader stamped this decision's commit wall-clock: now minus
         then is exactly how long the decision took to become visible
         here.  Clock skew can make the difference negative on real
         hosts; clamp rather than poison the histogram. *)
      (match Wire.parse_trace_note v with
      | Ok (decision, ctx, commit_s) ->
        let lag = Float.max 0. (Obs.Runtime.now_s () -. commit_s) in
        Obs.Histogram.observe g_visibility_lag lag;
        Obs.Recorder.record
          ?trace:(Option.map Obs.Trace_context.trace_hex ctx)
          ~decision (Obs.Recorder.Applied lag)
      | Error _ -> ());
      Ok ()
    | Wal.Note _ -> Ok ()
    | Wal.Decision_begin _ | Wal.Decision_commit _ | Wal.Decision_abort _ ->
      Ok ()
  in
  Obs.Registry.Counter.inc g_records;
  Ok ()

let commit_decision t id =
  Repo.log_decision t.repo id;
  (* install this decision's reason-maintenance mirror incrementally:
     its KB records were just applied, and Jtms.justify does not
     deduplicate, so a whole-log rebuild here would pile up copies *)
  Gkbms.Decision.install_justifications t.repo id;
  Repo.emit_event t.repo (Repo.Decision_committed id);
  t.decisions_applied <- t.decisions_applied + 1;
  Obs.Registry.Counter.inc g_decisions

let rec apply_items t items =
  List.fold_left
    (fun acc item ->
      let* () = acc in
      match item with
      | Rec r -> apply_plain t r
      | Sub (name, f) -> apply_subframe t name f)
    (Ok ()) items

and apply_subframe t name f =
  (* replay the nested decision with its own begin/commit events so the
     follower's journal nests exactly like the leader's *)
  Repo.emit_event t.repo (Repo.Decision_begun f.cls);
  let* () = apply_items t (List.rev f.items) in
  commit_decision t (Symbol.intern name);
  Ok ()

(* the frame's trace note, if the leader shipped one (items are newest
   first, and the note is appended right before the commit record, so
   it sits near the head) *)
let frame_trace_ctx f =
  List.find_map
    (function
      | Rec (Wal.Note (key, v)) when key = Wire.trace_note_key -> (
        match Wire.parse_trace_note v with
        | Ok (_, ctx, _) -> ctx
        | Error _ -> None)
      | _ -> None)
    f.items

let apply_outer_frame t name f =
  let id = Symbol.intern name in
  if Repo.is_logged t.repo id then
    (* overlap replay after a crash left the persisted cursor behind the
       applied state: the whole frame is already in — skip it without
       journaling anything (an empty dangling frame in our own WAL
       would wedge every later record behind a begin that never
       commits) *)
    Ok ()
  else
    (* continue the originating trace: spans opened while this frame
       applies (including the follower's own wal.append) carry the
       leader-side trace id *)
    Obs.Trace.with_context (frame_trace_ctx f) @@ fun () ->
    Obs.Trace.with_span "follower.apply" ~attrs:[ ("decision", name) ]
    @@ fun () ->
    Repo.emit_event t.repo (Repo.Decision_begun f.cls);
    let* () = apply_items t (List.rev f.items) in
    commit_decision t id;
    Ok ()

let feed t r =
  t.records_fed <- t.records_fed + 1;
  match r with
  | Wal.Decision_begin cls ->
    t.stack <- { cls; items = [] } :: t.stack;
    Ok ()
  | Wal.Decision_abort _ -> (
    match t.stack with
    | _aborted :: rest ->
      t.stack <- rest;
      Ok ()
    | [] -> Ok ())
  | Wal.Decision_commit name -> (
    match t.stack with
    | f :: parent :: rest ->
      parent.items <- Sub (name, f) :: parent.items;
      t.stack <- parent :: rest;
      Ok ()
    | [ f ] ->
      t.stack <- [];
      apply_outer_frame t name f
    | [] ->
      (* a commit marker with no open frame: tolerated for streams that
         start mid-history (the guarded log keeps it idempotent) *)
      let id = Symbol.intern name in
      if Repo.is_logged t.repo id then Ok ()
      else begin
        commit_decision t id;
        Ok ()
      end)
  | r -> (
    match t.stack with
    | f :: _ ->
      f.items <- Rec r :: f.items;
      Ok ()
    | [] -> apply_plain t r)

let feed_all t records =
  List.fold_left
    (fun acc r ->
      let* () = acc in
      feed t r)
    (Ok ()) records
