(* One mutable node per proposition.  Next to the proposition it holds
   prev/next links into three circular doubly-linked chains: the
   propositions with the same source, the same destination and the
   same label.  [next] leads from each node to the next older one and
   from the oldest round to the newest; [prev] leads the other way.  A
   [heads] table per chain maps its key to the oldest node, whose
   [next] is the newest; the id table, a {!Symtab} indexed by code,
   maps an id to its node in one slot.  Insertion puts the node after
   the newest without touching the key's entry, removal unlinks in
   O(1), and a drained chain drops its key.  No index holds a list
   bucket, a [ref] cell or a boxed pair key: [by_source_label] walks
   the source chain and keeps the label's matches, so it costs the
   source's out-degree.

   Reads walk a chain from its oldest node up to the newest and cons,
   so an answer is a fresh list, newest first, allocated once; the
   [fold_*] reads let a caller that filters cons only what it keeps.
   [iter] and [fold] visit ids in ascending code order, so serial ids
   come out in mint order: a checkpoint writes a decision's links in
   the order they were made, and a reload links them back so. *)

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

(* The initial links of a fresh node: [link] overwrites all six before
   any read can reach it.  Its proposition is never read, and its code
   is not interned, so the store adds no symbol.  It also fills the
   empty slots of a [heads] table and of the id table. *)
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

(* Chain heads by key: open addressing with linear probing, at most
   half full.  A slot holds a chain's oldest node, or [placeholder]
   when empty; the key is read off the node's proposition, so an entry
   costs one slot and no bucket cell.  Growing re-slots the old array
   in order instead of chasing bucket chains, and a removal shifts the
   rest of its cluster back, so no slot is ever a tombstone. *)
type heads = {
  key : Prop.t -> Symbol.t;  (** the chain's key *)
  mutable nodes : node array;
  mutable count : int;
}

let heads_create key cap = { key; nodes = Array.make cap placeholder; count = 0 }
let home h nodes n = Symbol.to_int (h.key n.prop) land (Array.length nodes - 1)

(* the slot holding [k]'s chain, or the empty slot ending its cluster *)
let rec slot h nodes k i =
  let n = nodes.(i) in
  if n == placeholder || Symbol.equal (h.key n.prop) k then i
  else slot h nodes k ((i + 1) land (Array.length nodes - 1))

let slot_of h k = slot h h.nodes k (Symbol.to_int k land (Array.length h.nodes - 1))

(* the oldest node of [k]'s chain, or [placeholder] when it has none *)
let head h k = h.nodes.(slot_of h k)

let grow h =
  let old = h.nodes in
  let nodes = Array.make (2 * Array.length old) placeholder in
  Array.iter
    (fun n -> if n != placeholder then nodes.(slot h nodes (h.key n.prop) (home h nodes n)) <- n)
    old;
  h.nodes <- nodes

(* [k] has no entry yet *)
let head_add h k n =
  if 2 * (h.count + 1) > Array.length h.nodes then grow h;
  h.nodes.(slot_of h k) <- n;
  h.count <- h.count + 1

(* [k] has an entry *)
let head_set h k n = h.nodes.(slot_of h k) <- n

(* Empty [k]'s slot, then move each later node of the cluster whose
   home slot does not lie after the hole (cyclically) back into it. *)
let head_remove h k =
  let nodes = h.nodes in
  let mask = Array.length nodes - 1 in
  let rec shift hole j =
    let j = (j + 1) land mask in
    let n = nodes.(j) in
    if n == placeholder then nodes.(hole) <- placeholder
    else
      let home = home h nodes n in
      let stays = if hole <= j then hole < home && home <= j else hole < home || home <= j in
      if stays then shift hole j
      else begin
        nodes.(hole) <- n;
        shift j j
      end
  in
  let i = slot_of h k in
  if nodes.(i) != placeholder then begin
    h.count <- h.count - 1;
    shift i i
  end

type t = {
  by_id : node Symtab.t;
  by_source : heads;
  by_dest : heads;
  by_label : heads;
}

let create () =
  {
    by_id = Symtab.create placeholder;
    by_source = heads_create (fun p -> p.source) 1024;
    by_dest = heads_create (fun p -> p.dest) 1024;
    by_label = heads_create (fun p -> p.label) 256;
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

(* [n] becomes the newest node, between the newest and the oldest;
   the key's entry, the oldest node, stays *)
let link c heads n =
  let k = c.key n.prop in
  let oldest = head heads k in
  if oldest == placeholder then begin
    c.set_next n n;
    c.set_prev n n;
    head_add heads k n
  end
  else begin
    let newest = c.next oldest in
    c.set_next n newest;
    c.set_prev n oldest;
    c.set_prev newest n;
    c.set_next oldest n
  end

let unlink c heads n =
  let k = c.key n.prop in
  let next = c.next n in
  (* a drained chain drops its key: churning keys must not leak table
     entries *)
  if next == n then head_remove heads k
  else begin
    let prev = c.prev n in
    c.set_next prev next;
    c.set_prev next prev;
    if head heads k == n then head_set heads k prev
  end

let insert t (p : Prop.t) =
  if Symtab.mem t.by_id p.id then false
  else begin
    let n = { placeholder with prop = p } in
    Symtab.replace t.by_id p.id n;
    link src t.by_source n;
    link dst t.by_dest n;
    link lbl t.by_label n;
    true
  end

let find t id =
  let n = Symtab.find t.by_id id in
  if n == placeholder then None else Some n.prop

let mem t id = Symtab.mem t.by_id id

let remove t id =
  let n = Symtab.find t.by_id id in
  if n == placeholder then None
  else begin
    Symtab.remove t.by_id id;
    unlink src t.by_source n;
    unlink dst t.by_dest n;
    unlink lbl t.by_label n;
    Some n.prop
  end

(* [f] over the chain from [n] up to its newest node [newest] *)
let rec fold_back c f newest n acc =
  let acc = f n.prop acc in
  if n == newest then acc else fold_back c f newest (c.prev n) acc

(* [List.fold_right f (chain newest first) acc] without the list *)
let fold_chain c heads k f acc =
  let oldest = head heads k in
  if oldest == placeholder then acc else fold_back c f (c.next oldest) oldest acc

let fold_source t x f acc = fold_chain src t.by_source x f acc
let fold_dest t y f acc = fold_chain dst t.by_dest y f acc
let by_source t x = fold_source t x List.cons []
let by_dest t y = fold_dest t y List.cons []
let by_label t l = fold_chain lbl t.by_label l List.cons []

(* the source chain's [l]-labelled nodes, oldest first from [n] up to
   [newest]; no closure over [l] *)
let rec labelled l newest n acc =
  let p = n.prop in
  let acc = if Symbol.equal p.label l then p :: acc else acc in
  if n == newest then acc else labelled l newest n.src_prev acc

let by_source_label t x l =
  let oldest = head t.by_source x in
  if oldest == placeholder then [] else labelled l oldest.src_next oldest []

let iter t f = Symtab.iter (fun _ n -> f n.prop) t.by_id
let fold t f acc = Symtab.fold (fun _ n acc -> f acc n.prop) t.by_id acc
let cardinal t = Symtab.length t.by_id

(* [f] over the chain from [n] on to (not round to) [newest], newest
   first *)
let rec iter_from c f newest n =
  let next = c.next n in
  f n.prop;
  if next != newest then iter_from c f newest next

(* newest first, like [List.iter f] of the chain's list *)
let iter_chain c heads k f =
  let oldest = head heads k in
  if oldest != placeholder then begin
    let newest = c.next oldest in
    iter_from c f newest newest
  end

let iter_source t x f = iter_chain src t.by_source x f
let iter_dest t y f = iter_chain dst t.by_dest y f
let iter_by_label t l f = iter_chain lbl t.by_label l f

let index_keys t = t.by_source.count + t.by_dest.count + t.by_label.count
