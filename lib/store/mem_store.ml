(* One mutable node per proposition.  Next to the proposition it holds
   prev/next links into three circular doubly-linked chains: the
   propositions with the same source, the same destination and the
   same label.  A [Symbol.Tbl] per chain maps its key to the newest
   node, whose [prev] is the oldest; the id table maps ids to nodes.
   Insertion prepends and removal unlinks in O(1), and a drained chain
   drops its key.  No index holds a list bucket, a [ref] cell or a
   boxed pair key: [by_source_label] walks the source chain and keeps
   the label's matches, so it costs the source's out-degree.

   Reads walk a chain from its oldest node back to the head and cons,
   so an answer is a fresh list, newest first, allocated once; the
   [fold_*] reads let a caller that filters cons only what it keeps. *)

open Kernel

type node = {
  prop : Prop.t;
  mutable src_prev : node;
  mutable src_next : node;
  mutable dst_prev : node;
  mutable dst_next : node;
  mutable lbl_prev : node;
  mutable lbl_next : node;
}

type t = {
  by_id : node Symbol.Tbl.t;
  by_source : node Symbol.Tbl.t;
  by_dest : node Symbol.Tbl.t;
  by_label : node Symbol.Tbl.t;
}

let create () =
  {
    by_id = Symbol.Tbl.create 1024;
    by_source = Symbol.Tbl.create 1024;
    by_dest = Symbol.Tbl.create 1024;
    by_label = Symbol.Tbl.create 256;
  }

(* One chain's key and links, as static closures: link, unlink and
   fold are written once for all three chains. *)
type chain = {
  key : Prop.t -> Symbol.t;
  prev : node -> node;
  next : node -> node;
  set_prev : node -> node -> unit;
  set_next : node -> node -> unit;
}

let src =
  {
    key = (fun p -> p.source);
    prev = (fun n -> n.src_prev);
    next = (fun n -> n.src_next);
    set_prev = (fun n m -> n.src_prev <- m);
    set_next = (fun n m -> n.src_next <- m);
  }

let dst =
  {
    key = (fun p -> p.dest);
    prev = (fun n -> n.dst_prev);
    next = (fun n -> n.dst_next);
    set_prev = (fun n m -> n.dst_prev <- m);
    set_next = (fun n m -> n.dst_next <- m);
  }

let lbl =
  {
    key = (fun p -> p.label);
    prev = (fun n -> n.lbl_prev);
    next = (fun n -> n.lbl_next);
    set_prev = (fun n m -> n.lbl_prev <- m);
    set_next = (fun n m -> n.lbl_next <- m);
  }

(* prepend [n]: it becomes the head, between the old head and the
   oldest node *)
let link c heads n =
  let k = c.key n.prop in
  match Symbol.Tbl.find heads k with
  | head ->
    let tail = c.prev head in
    c.set_next n head;
    c.set_prev n tail;
    c.set_next tail n;
    c.set_prev head n;
    Symbol.Tbl.replace heads k n
  | exception Not_found ->
    c.set_next n n;
    c.set_prev n n;
    Symbol.Tbl.add heads k n

let unlink c heads n =
  let k = c.key n.prop in
  let next = c.next n in
  (* a drained chain drops its key: churning keys must not leak table
     entries *)
  if next == n then Symbol.Tbl.remove heads k
  else begin
    let prev = c.prev n in
    c.set_next prev next;
    c.set_prev next prev;
    if Symbol.Tbl.find heads k == n then Symbol.Tbl.replace heads k next
  end

(* The initial links of a fresh node: [link] overwrites all six before
   any read can reach it.  Its proposition is never read, and its code
   is not interned, so the store adds no symbol. *)
let no_prop =
  let none = Symbol.of_int (-1) in
  Prop.make ~belief:0 ~id:none ~source:none ~label:none ~dest:none ()

let rec placeholder =
  {
    prop = no_prop;
    src_prev = placeholder;
    src_next = placeholder;
    dst_prev = placeholder;
    dst_next = placeholder;
    lbl_prev = placeholder;
    lbl_next = placeholder;
  }

let insert t (p : Prop.t) =
  if Symbol.Tbl.mem t.by_id p.id then false
  else begin
    let n = { placeholder with prop = p } in
    Symbol.Tbl.add t.by_id p.id n;
    link src t.by_source n;
    link dst t.by_dest n;
    link lbl t.by_label n;
    true
  end

let find t id =
  match Symbol.Tbl.find t.by_id id with
  | n -> Some n.prop
  | exception Not_found -> None

let mem t id = Symbol.Tbl.mem t.by_id id

let remove t id =
  match Symbol.Tbl.find t.by_id id with
  | exception Not_found -> None
  | n ->
    Symbol.Tbl.remove t.by_id id;
    unlink src t.by_source n;
    unlink dst t.by_dest n;
    unlink lbl t.by_label n;
    Some n.prop

(* [f] over the chain from its oldest node [n] back to [head] *)
let rec fold_back c f head n acc =
  let acc = f n.prop acc in
  if n == head then acc else fold_back c f head (c.prev n) acc

(* [List.fold_right f (chain newest first) acc] without the list *)
let fold_chain c heads k f acc =
  match Symbol.Tbl.find heads k with
  | head -> fold_back c f head (c.prev head) acc
  | exception Not_found -> acc

let fold_source t x f acc = fold_chain src t.by_source x f acc
let fold_dest t y f acc = fold_chain dst t.by_dest y f acc
let by_source t x = fold_source t x List.cons []
let by_dest t y = fold_dest t y List.cons []
let by_label t l = fold_chain lbl t.by_label l List.cons []

(* the source chain's [l]-labelled nodes, oldest first from [n]; no
   closure over [l] *)
let rec labelled l head n acc =
  let p = n.prop in
  let acc = if Symbol.equal p.label l then p :: acc else acc in
  if n == head then acc else labelled l head n.src_prev acc

let by_source_label t x l =
  match Symbol.Tbl.find t.by_source x with
  | head -> labelled l head head.src_prev []
  | exception Not_found -> []

(* [Symbol.Tbl.fold] and [iter] visit the same buckets in the same
   order *)
let iter t f = Symbol.Tbl.iter (fun _ n -> f n.prop) t.by_id
let fold t f acc = Symbol.Tbl.fold (fun _ n acc -> f acc n.prop) t.by_id acc
let cardinal t = Symbol.Tbl.length t.by_id

(* newest first, like [List.iter f (by_label t l)] *)
let iter_by_label t l f =
  match Symbol.Tbl.find t.by_label l with
  | exception Not_found -> ()
  | head ->
    let rec go n =
      let next = n.lbl_next in
      f n.prop;
      if next != head then go next
    in
    go head

let index_keys t =
  Symbol.Tbl.length t.by_source + Symbol.Tbl.length t.by_dest
  + Symbol.Tbl.length t.by_label
