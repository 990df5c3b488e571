(** Append-only physical representation.

    Propositions live in a growable array in insertion order; removal
    appends a tombstone.  An id→offset table gives O(1) lookup by id;
    pattern retrieval is still a linear scan.  When more than half the
    log is dead weight (tombstones and superseded entries) it is
    compacted in place — {!create_uncompacted} disables that, keeping
    the raw journal for the store index ablation bench (DESIGN.md §5)
    and for snapshotting. *)

open Kernel

type entry = Put of Prop.t | Tomb of Prop.id

type t = {
  mutable log : entry array;
  mutable len : int;
  live : int Symbol.Tbl.t;  (** id → offset of its live [Put] *)
  mutable dead : int;  (** entries not the live [Put] of any id *)
  compaction : bool;
}

let name = "log"

let make compaction =
  {
    log = Array.make 256 (Tomb (Symbol.intern ""));
    len = 0;
    live = Symbol.Tbl.create 256;
    dead = 0;
    compaction;
  }

let create () = make true
let create_uncompacted () = make false

let clear t =
  t.len <- 0;
  t.dead <- 0;
  Symbol.Tbl.reset t.live

let append t e =
  if t.len = Array.length t.log then begin
    let bigger = Array.make (2 * t.len) e in
    Array.blit t.log 0 bigger 0 t.len;
    t.log <- bigger
  end;
  t.log.(t.len) <- e;
  t.len <- t.len + 1

let mem t id = Symbol.Tbl.mem t.live id

(* Keep live entries in insertion order, rewriting their offsets. *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    match t.log.(i) with
    | Put p when Symbol.Tbl.find_opt t.live p.Prop.id = Some i ->
      t.log.(!j) <- t.log.(i);
      Symbol.Tbl.replace t.live p.Prop.id !j;
      incr j
    | Put _ | Tomb _ -> ()
  done;
  t.len <- !j;
  t.dead <- 0

let maybe_compact t =
  if t.compaction && t.len >= 32 && t.dead > t.len / 2 then compact t

let insert t (p : Prop.t) =
  if mem t p.id then false
  else begin
    Symbol.Tbl.replace t.live p.id t.len;
    append t (Put p);
    true
  end

let find t id =
  match Symbol.Tbl.find_opt t.live id with
  | Some off -> (
    match t.log.(off) with Put p -> Some p | Tomb _ -> None)
  | None -> None

let remove t id =
  match find t id with
  | None -> None
  | Some p ->
    append t (Tomb id);
    Symbol.Tbl.remove t.live id;
    (* the orphaned Put and the tombstone itself are both dead now *)
    t.dead <- t.dead + 2;
    maybe_compact t;
    Some p

let fold_live t f acc =
  let rec loop i acc =
    if i >= t.len then acc
    else
      match t.log.(i) with
      | Put p when Symbol.Tbl.find_opt t.live p.Prop.id = Some i ->
        loop (i + 1) (f acc p)
      | Put _ | Tomb _ -> loop (i + 1) acc
  in
  loop 0 acc

(* [f] over the live propositions satisfying [pred], newest first, so
   [fold_select t pred List.cons []] lists them oldest first *)
let fold_select t pred f acc =
  List.fold_left
    (fun acc p -> f p acc)
    acc
    (fold_live t (fun acc p -> if pred p then p :: acc else acc) [])

let select t pred = fold_select t pred List.cons []

let by_source t x = select t (fun p -> Symbol.equal p.Prop.source x)

let by_source_label t x l =
  select t (fun p -> Symbol.equal p.Prop.source x && Symbol.equal p.Prop.label l)

let by_dest t y = select t (fun p -> Symbol.equal p.Prop.dest y)
let by_label t l = select t (fun p -> Symbol.equal p.Prop.label l)
let fold_source t x f acc = fold_select t (fun p -> Symbol.equal p.Prop.source x) f acc
let fold_dest t y f acc = fold_select t (fun p -> Symbol.equal p.Prop.dest y) f acc
let iter t f = ignore (fold_live t (fun () p -> f p) ())
let cardinal t = Symbol.Tbl.length t.live
let insert_batch t ps = List.filter (fun p -> insert t p) ps
let fold_ids t f acc = fold_live t (fun acc (p : Prop.t) -> f acc p.id) acc

let fold_links t f acc =
  fold_live t (fun acc (p : Prop.t) -> f acc p.id p.source p.label p.dest) acc

let iter_by_label t l f =
  ignore
    (fold_live t
       (fun () (p : Prop.t) -> if Symbol.equal p.label l then f p)
       ())

let physical_length t = t.len
(** Entries in the journal including dead weight (exposed for tests and
    the compaction bench). *)
