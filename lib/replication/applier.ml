open Kernel
module Repo = Gkbms.Repository
module Wal = Durability.Wal
module Journal = Durability.Journal
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

type t = {
  repo : Repo.t;
  replayer : Journal.Replayer.t;
  mutable decisions_applied : int;
}

let create repo =
  { repo; replayer = Journal.Replayer.create (); decisions_applied = 0 }

let depth t = Journal.Replayer.depth t.replayer
let reset t = Journal.Replayer.reset t.replayer
let decisions_applied t = t.decisions_applied

let apply_record t r =
  (match r with
  | Wal.Note ("unlog", name) ->
    (* mirror of Backtrack.retract's reason-maintenance teardown *)
    let dec = Symbol.intern name in
    J.retract_batch (Repo.jtms t.repo) (Repo.justifications_of t.repo dec);
    Repo.forget_justifications t.repo dec
  | Wal.Note (key, v) when key = Wire.trace_note_key -> (
    (* the leader stamped this decision's commit wall-clock: now minus
       then is exactly how long the decision took to become visible
       here.  Clock skew can make the difference negative on real
       hosts; clamp rather than poison the histogram. *)
    match Wire.parse_trace_note v with
    | Ok (decision, ctx, commit_s) ->
      let lag = Float.max 0. (Obs.Runtime.now_s () -. commit_s) in
      Obs.Histogram.observe g_visibility_lag lag;
      Obs.Recorder.record
        ?trace:(Option.map Obs.Trace_context.trace_hex ctx)
        ~decision (Obs.Recorder.Applied lag)
    | Error _ -> ())
  | _ -> ());
  let* _changed = Gkbms.Durable.replay_record t.repo r in
  Obs.Registry.Counter.inc g_records;
  Ok ()

(* A committed decision, replayed with its own begin/commit events so
   the follower's attached journal nests it exactly like the leader's. *)
let rec apply_decision t ~cls ~id items =
  Repo.emit_event t.repo (Repo.Decision_begun cls);
  let* () = List.fold_left (apply_item t) (Ok ()) items in
  let dec = Symbol.intern id in
  Repo.log_decision t.repo dec;
  (* install this decision's reason-maintenance mirror incrementally:
     its KB records were just applied, and Jtms.justify does not
     deduplicate, so a whole-log rebuild here would pile up copies *)
  Gkbms.Decision.install_justifications t.repo dec;
  Repo.emit_event t.repo (Repo.Decision_committed dec);
  t.decisions_applied <- t.decisions_applied + 1;
  Obs.Registry.Counter.inc g_decisions;
  Ok ()

and apply_item t acc item =
  let* () = acc in
  match item with
  | Journal.Record r -> apply_record t r
  | Journal.Decision { cls; id; items } -> apply_decision t ~cls ~id items

(* the decision's trace note, if the leader shipped one *)
let trace_ctx items =
  List.find_map
    (function
      | Journal.Record (Wal.Note (key, v)) when key = Wire.trace_note_key -> (
        match Wire.parse_trace_note v with
        | Ok (_, ctx, _) -> ctx
        | Error _ -> None)
      | _ -> None)
    items

(* what the replayer committed, outermost decisions whole *)
let apply_outer t acc item =
  let* () = acc in
  match item with
  | Journal.Decision { id; _ } when Repo.is_logged t.repo (Symbol.intern id) ->
    (* overlap replay after a crash left the persisted cursor behind the
       applied state: the whole frame is already in — skip it without
       journaling anything (an empty dangling frame in our own WAL
       would wedge every later record behind a begin that never
       commits) *)
    Ok ()
  | Journal.Decision { cls; id; items } ->
    (* continue the originating trace: spans opened while this frame
       applies (including the follower's own wal.append) carry the
       leader-side trace id *)
    Obs.Trace.with_context (trace_ctx items) @@ fun () ->
    Obs.Trace.with_span "follower.apply" ~attrs:[ ("decision", id) ]
    @@ fun () -> apply_decision t ~cls ~id items
  | Journal.Record r -> apply_record t r

let feed t r =
  List.fold_left (apply_outer t) (Ok ()) (Journal.Replayer.feed t.replayer r)
