open Kernel

type node = {
  node_id : int;
  node_sym : Symbol.t;
  contradiction : bool;
  mutable in_ : bool;
  mutable justs : justification list;  (** justifications for this node *)
  mutable consumers : justification list;
      (** justifications with this node in their in- or out-list *)
  mutable support : justification option;
  mutable rank : int;  (** labeling round in which the node became IN *)
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
    rank = max_int;
  }

let no_node = make_node (-1) (Symbol.of_int (-1)) false
let create () = { by_sym = Symtab.create no_node; all = []; next_node = 0; next_just = 0 }

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
   the previous round's label.  Odd-loop-free networks — every GKBMS use
   is — converge to the unique grounded labeling; oscillating networks
   are cut off after a bounded number of rounds with the last label. *)
let relabel t =
  let prev = Hashtbl.create (List.length t.all) in
  List.iter (fun n -> Hashtbl.replace prev n.node_id false) t.all;
  let max_rounds = List.length t.all + 4 in
  let stable = ref false in
  let round = ref 0 in
  while (not !stable) && !round < max_rounds do
    incr round;
    List.iter
      (fun n ->
        n.in_ <- false;
        n.support <- None;
        n.rank <- max_int)
      t.all;
    let progress = ref true in
    let pass = ref 0 in
    while !progress do
      progress := false;
      incr pass;
      List.iter
        (fun n ->
          if not n.in_ then
            let valid j =
              (not j.retracted)
              && List.for_all (fun m -> m.in_) j.inlist
              && List.for_all
                   (fun m -> not (Hashtbl.find prev m.node_id))
                   j.outlist
            in
            match List.find_opt valid n.justs with
            | Some j ->
              n.in_ <- true;
              n.support <- Some j;
              n.rank <- !pass;
              progress := true
            | None -> ())
        t.all
    done;
    stable := List.for_all (fun n -> Hashtbl.find prev n.node_id = n.in_) t.all;
    List.iter (fun n -> Hashtbl.replace prev n.node_id n.in_) t.all
  done

let valid j =
  (not j.retracted)
  && List.for_all (fun m -> m.in_) j.inlist
  && List.for_all (fun m -> not m.in_) j.outlist

(* Monotone incremental labeling after adding justification [j]: newly-IN
   nodes propagate forward through the consumers index; if a newly-IN
   node appears in the out-list of some currently supporting
   justification (a nonmonotonic invalidation), fall back to the full
   alternating-fixpoint relabeling. *)
let propagate_addition t j =
  if j.consequence_.in_ || not (valid j) then ()
  else begin
    let nonmonotonic = ref false in
    let queue = Queue.create () in
    j.consequence_.in_ <- true;
    j.consequence_.support <- Some j;
    j.consequence_.rank <- 0;
    Queue.add j.consequence_ queue;
    while (not !nonmonotonic) && not (Queue.is_empty queue) do
      let m = Queue.pop queue in
      List.iter
        (fun jc ->
          if not jc.retracted then begin
            let is_support =
              match jc.consequence_.support with
              | Some s -> s == jc
              | None -> false
            in
            if
              List.exists (fun o -> o.node_id = m.node_id) jc.outlist
              && jc.consequence_.in_ && is_support
            then nonmonotonic := true
            else if (not jc.consequence_.in_) && valid jc then begin
              jc.consequence_.in_ <- true;
              jc.consequence_.support <- Some jc;
              jc.consequence_.rank <- 0;
              Queue.add jc.consequence_ queue
            end
          end)
        m.consumers
    done;
    if !nonmonotonic then relabel t
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

let retract t j =
  j.retracted <- true;
  relabel t

let retract_batch t js =
  List.iter (fun j -> j.retracted <- true) js;
  relabel t

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
