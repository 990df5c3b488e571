open Kernel

type t = {
  w : Wal.writer;
  base : Store.Base.t;
  sub : Store.Base.subscription;
  mutable open_frames : int;
  mutable batching : bool;
}

(* Group-commit batch markers.  A batch brackets whole decision frames
   with a pair of reserved [Note] records; the end marker is the
   batch's durability point (one sync for every decision inside).  The
   replayer holds the pair as a frame, so a torn batch (end marker
   missing after a crash) commits none of its decisions, in recovery
   and on followers alike: none of them were acknowledged, because
   acks only go out after the end-of-batch sync returns. *)
let batch_begin_key = "gc-begin"
let batch_end_key = "gc-end"

let attach w base =
  let sub =
    Store.Base.on_change base (function
      | Store.Base.Added p -> Wal.append w (Wal.Put p)
      | Store.Base.Removed p -> Wal.append w (Wal.Tomb p.Prop.id))
  in
  { w; base; sub; open_frames = 0; batching = false }

let detach t = Store.Base.off_change t.base t.sub
let writer t = t.w
let depth t = t.open_frames
let in_batch t = t.batching

let begin_decision t name =
  t.open_frames <- t.open_frames + 1;
  Wal.append t.w (Wal.Decision_begin name)

let commit_decision t name =
  if t.open_frames > 0 then t.open_frames <- t.open_frames - 1;
  Wal.append t.w (Wal.Decision_commit name);
  (* the commit record is the durability point — except inside a
     batch, where the end-of-batch marker is *)
  if not t.batching then Wal.sync t.w

let abort_decision t reason =
  if t.open_frames > 0 then t.open_frames <- t.open_frames - 1;
  Wal.append t.w (Wal.Decision_abort reason)

let begin_batch t id =
  if t.batching then invalid_arg "Journal.begin_batch: batch already open";
  if t.open_frames > 0 then
    invalid_arg "Journal.begin_batch: decision frame open";
  t.batching <- true;
  (* the batch counts as an open frame so [depth] keeps checkpoints
     (which require a frame-clean log) out of the middle of it *)
  t.open_frames <- t.open_frames + 1;
  Wal.append t.w (Wal.Note (batch_begin_key, id))

let commit_batch t id =
  if not t.batching then invalid_arg "Journal.commit_batch: no batch open";
  t.batching <- false;
  if t.open_frames > 0 then t.open_frames <- t.open_frames - 1;
  Wal.append t.w (Wal.Note (batch_end_key, id));
  (* the single sync that makes every decision in the batch durable *)
  Wal.sync t.w

let artifact t name text = Wal.append t.w (Wal.Artifact (name, text))
let note t k v = Wal.append t.w (Wal.Note (k, v))
let sync t = Wal.sync t.w

(* ---------------- replay ---------------- *)

type item =
  | Record of Wal.record
  | Decision of { cls : string; id : string; items : item list }

(* An open frame and its records so far, newest first.  A decision
   frame has the class its begin record named; a batch has none. *)
type frame = { cls : string option; mutable items : item list }

module Replayer = struct
  type t = { mutable frames : frame list (* innermost first *) }

  let create () = { frames = [] }
  let depth t = List.length t.frames
  let reset t = t.frames <- []

  (* what a frame's close (or a record outside any frame) commits goes
     to the enclosing frame, or out *)
  let emit t items =
    match t.frames with
    | [] -> items
    | f :: _ ->
      f.items <- List.rev_append items f.items;
      []

  let feed t r =
    match (r, t.frames) with
    | Wal.Decision_begin cls, _ ->
      t.frames <- { cls = Some cls; items = [] } :: t.frames;
      []
    | Wal.Note (k, _), _ when k = batch_begin_key ->
      t.frames <- { cls = None; items = [] } :: t.frames;
      []
    | Wal.Decision_commit id, { cls = Some cls; items } :: rest ->
      t.frames <- rest;
      emit t [ Decision { cls; id; items = List.rev items } ]
    | Wal.Decision_commit id, _ ->
      (* a commit whose begin is not in the log: the decision has no
         records of its own *)
      emit t [ Decision { cls = ""; id; items = [] } ]
    | Wal.Decision_abort _, { cls = Some _; _ } :: rest ->
      t.frames <- rest;
      []
    | Wal.Decision_abort _, _ -> []
    | Wal.Note (k, _), { cls = None; items } :: rest when k = batch_end_key ->
      t.frames <- rest;
      emit t (List.rev items)
    | (Wal.Put _ | Wal.Tomb _ | Wal.Artifact _ | Wal.Note _), _ ->
      emit t [ Record r ]
end

let apply base r =
  let changed = function Ok _ -> Ok true | Error e -> Error ("replay: " ^ e) in
  match r with
  | Wal.Put p -> (
    match Store.Base.find base p.Prop.id with
    | Some q when Prop.equal q p -> Ok false (* idempotent re-apply *)
    | Some _ ->
      changed
        (Result.bind (Store.Base.remove base p.Prop.id) (fun _ ->
             Store.Base.insert base p))
    | None -> changed (Store.Base.insert base p))
  | Wal.Tomb id when Store.Base.mem base id -> changed (Store.Base.remove base id)
  | Wal.Tomb _ | Wal.Decision_begin _ | Wal.Decision_commit _
  | Wal.Decision_abort _ | Wal.Artifact _ | Wal.Note _ ->
    Ok false
