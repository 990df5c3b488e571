open Kernel

type node = {
  node_id : int;
  node_sym : Symbol.t;
  contradiction : bool;
  mutable in_ : bool;
  mutable justs : justification list;  (** justifications for this node *)
  mutable consumers : justification list;
      (** justifications with this node in their in- or out-list *)
  mutable support : justification option;  (** set while IN *)
  mutable prev_in : bool;  (** {!relabel}'s label from its previous round *)
}

and justification = {
  just_id : int;
  reason : string;
  inlist : node list;
  outlist : node list;
  consequence_ : node;
  mutable retracted : bool;
}

(* Nodes are found by symbol in a code-indexed table, whose empty slot
   is [no_node]. *)
type t = {
  by_sym : node Symtab.t;
  mutable all : node list;
  mutable next_node : int;
  mutable next_just : int;
  mutable relabels : int;
}

let make_node id sym contradiction =
  {
    node_id = id;
    node_sym = sym;
    contradiction;
    in_ = false;
    justs = [];
    consumers = [];
    support = None;
    prev_in = false;
  }

let no_node = make_node (-1) (Symbol.of_int (-1)) false
let create () =
  { by_sym = Symtab.create no_node; all = []; next_node = 0; next_just = 0; relabels = 0 }

let node_sym t ?(contradiction = false) sym =
  let n = Symtab.find t.by_sym sym in
  if n != no_node then n
  else begin
    let n = make_node t.next_node sym contradiction in
    t.next_node <- t.next_node + 1;
    Symtab.replace t.by_sym sym n;
    t.all <- n :: t.all;
    n
  end

let node t ?contradiction name = node_sym t ?contradiction (Symbol.intern name)
let name n = Symbol.name n.node_sym
let find_sym t sym = Symtab.find_opt t.by_sym sym
let find t name = Option.bind (Symbol.find_opt name) (find_sym t)

(* Alternating-fixpoint labeling.  Each round recomputes the labels from
   scratch: a justification is valid when its in-list is IN in the label
   being built (monotonic forward closure) and its out-list was OUT in
   the previous round's label, which each node keeps in [prev_in].
   Stratified networks (no loop runs through an out-list) converge to
   their unique grounded labeling; oscillating networks are cut off
   after a bounded number of rounds with the last label. *)
let valid_against_prev j =
  (not j.retracted)
  && List.for_all (fun m -> m.in_) j.inlist
  && List.for_all (fun m -> not m.prev_in) j.outlist

let relabel t =
  t.relabels <- t.relabels + 1;
  List.iter (fun n -> n.prev_in <- false) t.all;
  let max_rounds = List.length t.all + 4 in
  let stable = ref false in
  let round = ref 0 in
  while (not !stable) && !round < max_rounds do
    incr round;
    List.iter
      (fun n ->
        n.in_ <- false;
        n.support <- None)
      t.all;
    let progress = ref true in
    while !progress do
      progress := false;
      List.iter
        (fun n ->
          if not n.in_ then
            match List.find_opt valid_against_prev n.justs with
            | Some j ->
              n.in_ <- true;
              n.support <- Some j;
              progress := true
            | None -> ())
        t.all
    done;
    stable := List.for_all (fun n -> n.prev_in = n.in_) t.all;
    List.iter (fun n -> n.prev_in <- n.in_) t.all
  done

let relabels t = t.relabels

let valid j =
  (not j.retracted)
  && List.for_all (fun m -> m.in_) j.inlist
  && List.for_all (fun m -> not m.in_) j.outlist

let supports j =
  match j.consequence_.support with Some s -> s == j | None -> false

(* Bring [n] IN on its first valid justification in [justs] order, if it
   has one, and queue it for {!forward}. *)
let seek_support queue n =
  match List.find_opt valid n.justs with
  | Some j ->
    n.in_ <- true;
    n.support <- Some j;
    Queue.add n queue
  | None -> ()

(* Monotone forward propagation from the queued newly-IN nodes through
   the consumers index.  False, with the queue left undrained, when a
   newly-IN node sits in the out-list of a supporting justification (a
   nonmonotonic invalidation): only {!relabel} can settle that. *)
let forward queue =
  let monotone = ref true in
  while !monotone && not (Queue.is_empty queue) do
    let m = Queue.pop queue in
    List.iter
      (fun jc ->
        if not jc.retracted then
          if jc.consequence_.in_ then begin
            if supports jc && List.memq m jc.outlist then monotone := false
          end
          else if valid jc then seek_support queue jc.consequence_)
      m.consumers
  done;
  !monotone

(* A justification added valid for an OUT node brings it IN. *)
let propagate_addition t j =
  if (not j.consequence_.in_) && valid j then begin
    let queue = Queue.create () in
    seek_support queue j.consequence_;
    if not (forward queue) then relabel t
  end

let justify t ?(inlist = []) ?(outlist = []) ~reason consequence_ =
  let j =
    {
      just_id = t.next_just;
      reason;
      inlist;
      outlist;
      consequence_;
      retracted = false;
    }
  in
  t.next_just <- t.next_just + 1;
  consequence_.justs <- consequence_.justs @ [ j ];
  List.iter (fun n -> n.consumers <- j :: n.consumers) (inlist @ outlist);
  propagate_addition t j;
  j

let premise t n = justify t ~reason:("premise " ^ name n) n

(* Incremental retraction (Doyle 1979).  The OUT wave takes OUT each
   node whose support was retracted, then, through [consumers], each
   node supported through an in-list node the wave took OUT.  A node
   the wave takes OUT that sits in a live out-list may bring some other
   node IN, which may take others OUT: that is left to {!relabel}.
   Otherwise exactly the wave's nodes look for another valid
   justification, forward from the nodes still IN. *)
let retract_batch t js =
  List.iter (fun j -> j.retracted <- true) js;
  let wave = ref [] in
  let queue = Queue.create () in
  let take_out n =
    n.in_ <- false;
    n.support <- None;
    wave := n :: !wave;
    Queue.add n queue
  in
  List.iter (fun j -> if supports j then take_out j.consequence_) js;
  let monotone = ref true in
  while !monotone && not (Queue.is_empty queue) do
    let m = Queue.pop queue in
    List.iter
      (fun jc ->
        if (not jc.retracted) && List.memq m jc.outlist then monotone := false
        else if supports jc then take_out jc.consequence_)
      m.consumers
  done;
  if !monotone then List.iter (seek_support queue) (List.rev !wave);
  if not (!monotone && forward queue) then relabel t

let retract t j = retract_batch t [ j ]

let justifications _t n = List.filter (fun j -> not j.retracted) n.justs
let reason j = j.reason
let consequence j = j.consequence_
let inlist j = j.inlist
let outlist j = j.outlist
let is_in _t n = n.in_
let is_out _t n = not n.in_
let supporting _t n = if n.in_ then n.support else None

let why t n =
  let seen = Hashtbl.create 16 in
  let rec go acc n =
    if Hashtbl.mem seen n.node_id then acc
    else begin
      Hashtbl.add seen n.node_id ();
      match supporting t n with
      | None -> acc
      | Some j ->
        let acc = List.fold_left go acc j.inlist in
        j.reason :: acc
    end
  in
  List.rev (go [] n)

let contradictions t =
  List.filter (fun n -> n.contradiction && n.in_) t.all

let assumptions_under t n =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  let rec go n =
    if not (Hashtbl.mem seen n.node_id) then begin
      Hashtbl.add seen n.node_id ();
      match supporting t n with
      | None -> ()
      | Some j ->
        if j.outlist <> [] then acc := n :: !acc;
        List.iter go j.inlist
    end
  in
  go n;
  List.rev !acc

let backtrack t contra =
  if not contra.in_ then Error "node is not IN: nothing to backtrack"
  else
    match assumptions_under t contra with
    | [] -> Error "contradiction has no assumptions in its support"
    | culprit :: _ -> (
      match culprit.support with
      | Some j when j.outlist <> [] -> (
        match j.outlist with
        | defeater :: _ ->
          ignore
            (justify t ~inlist:[] ~outlist:[]
               ~reason:
                 (Printf.sprintf "nogood: defeat assumption %s (from %s)"
                    (name culprit) (name contra))
               defeater);
          Ok culprit
        | [] -> Error "unreachable: empty outlist")
      | Some _ | None -> Error "culprit lost its support concurrently")

let nodes t = List.rev t.all
let label_count t = List.fold_left (fun acc n -> if n.in_ then acc + 1 else acc) 0 t.all
