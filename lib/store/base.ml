open Kernel

type change = Added of Prop.t | Removed of Prop.t

(* Undo entries record how to revert an applied change. *)
type undo = Undo_insert of Prop.id | Undo_remove of Prop.t

type subscription = int

type t = {
  store : Mem_store.t;
  mutable undo : undo list;  (** most recent first; only while tx open *)
  mutable marks : int list;  (** lengths of [undo] at open savepoints *)
  mutable undo_len : int;
  mutable listeners : (subscription * (change -> unit)) list;
      (** newest first: registration is O(1) *)
  mutable notify_cache : (change -> unit) array option;
      (** registration-order snapshot, rebuilt lazily after (un)subscribe *)
  mutable next_sub : int;
}

let create () =
  { store = Mem_store.create (); undo = []; marks = []; undo_len = 0;
    listeners = []; notify_cache = None; next_sub = 0 }

let notify t change =
  let fs =
    match t.notify_cache with
    | Some fs -> fs
    | None ->
      let fs = Array.of_list (List.rev_map snd t.listeners) in
      t.notify_cache <- Some fs;
      fs
  in
  Array.iter (fun f -> f change) fs

let on_change t f =
  let id = t.next_sub in
  t.next_sub <- id + 1;
  t.listeners <- (id, f) :: t.listeners;
  t.notify_cache <- None;
  id

let off_change t id =
  t.listeners <- List.filter (fun (id', _) -> id' <> id) t.listeners;
  t.notify_cache <- None

let in_tx t = t.marks <> []

let push_undo t u =
  if in_tx t then begin
    t.undo <- u :: t.undo;
    t.undo_len <- t.undo_len + 1
  end

let insert t (p : Prop.t) =
  if Mem_store.insert t.store p then begin
    push_undo t (Undo_insert p.id);
    notify t (Added p);
    Ok ()
  end
  else
    Error
      (Printf.sprintf "proposition id %s already present" (Symbol.name p.id))

let remove t id =
  match Mem_store.remove t.store id with
  | Some p ->
    push_undo t (Undo_remove p);
    notify t (Removed p);
    Ok p
  | None ->
    Error (Printf.sprintf "no proposition with id %s" (Symbol.name id))

let find t id = Mem_store.find t.store id
let mem t id = Mem_store.mem t.store id
let by_source t x = Mem_store.by_source t.store x
let by_source_label t x l = Mem_store.by_source_label t.store x l
let by_dest t y = Mem_store.by_dest t.store y
let by_label t l = Mem_store.by_label t.store l
let fold_source t x f acc = Mem_store.fold_source t.store x f acc
let fold_dest t y f acc = Mem_store.fold_dest t.store y f acc
let iter_source t x f = Mem_store.iter_source t.store x f
let iter_dest t y f = Mem_store.iter_dest t.store y f

let links t ~source ~label ~dest =
  List.filter
    (fun (p : Prop.t) -> Symbol.equal p.dest dest)
    (by_source_label t source label)

let iter t f = Mem_store.iter t.store f
let fold t f acc = Mem_store.fold t.store f acc
let to_list t = List.rev (fold t (fun acc p -> p :: acc) [])
let cardinal t = Mem_store.cardinal t.store
let iter_by_label t l f = Mem_store.iter_by_label t.store l f

let query ?source ?label ?dest ?valid_at t =
  (* [residual]: the parts of the pattern the chosen index does not
     already guarantee.  When there is none, the indexed list is the
     answer — no rebuild. *)
  let candidates, residual =
    match (source, label, dest) with
    | Some x, Some l, _ -> (by_source_label t x l, dest <> None)
    | Some x, None, _ -> (by_source t x, dest <> None)
    | None, _, Some y -> (by_dest t y, label <> None)
    | None, Some l, None -> (by_label t l, false)
    | None, None, None -> (to_list t, false)
  in
  if (not residual) && valid_at = None then candidates
  else
    let keep (p : Prop.t) =
      (match source with None -> true | Some x -> Symbol.equal p.source x)
      && (match label with None -> true | Some l -> Symbol.equal p.label l)
      && (match dest with None -> true | Some y -> Symbol.equal p.dest y)
      && match valid_at with None -> true | Some pt -> Time.valid_at p.time pt
    in
    List.filter keep candidates

(* Transactions -------------------------------------------------------- *)

let begin_tx t = t.marks <- t.undo_len :: t.marks

let commit t =
  match t.marks with
  | [] -> Error "commit: no open transaction"
  | mark :: rest ->
    t.marks <- rest;
    (* Merging into the parent keeps the undo entries so an enclosing
       rollback still reverts the nested work; at top level the log is
       discarded. *)
    if rest = [] then begin
      t.undo <- [];
      t.undo_len <- 0
    end
    else ignore mark;
    Ok ()

let apply_undo t u =
  match u with
  | Undo_insert id -> (
    match Mem_store.remove t.store id with
    | Some p -> notify t (Removed p)
    | None -> ())
  | Undo_remove p -> if Mem_store.insert t.store p then notify t (Added p)

let rollback t =
  match t.marks with
  | [] -> Error "rollback: no open transaction"
  | mark :: rest ->
    while t.undo_len > mark do
      match t.undo with
      | [] -> t.undo_len <- mark (* unreachable: lengths kept in sync *)
      | u :: us ->
        t.undo <- us;
        t.undo_len <- t.undo_len - 1;
        apply_undo t u
    done;
    t.marks <- rest;
    Ok ()

let tx_depth t = List.length t.marks

let with_tx t f =
  begin_tx t;
  match f () with
  | Ok v ->
    (match commit t with Ok () -> () | Error _ -> ());
    Ok v
  | Error e ->
    (match rollback t with Ok () -> () | Error _ -> ());
    Error e
  | exception exn ->
    (match rollback t with Ok () -> () | Error _ -> ());
    raise exn

(* Persistence ---------------------------------------------------------- *)

(* One proposition per line: four escaped names, the valid time and
   the belief time, tab-separated.  Escaping keeps raw tabs and
   newlines out of the fields. *)
let escaping = Sexp.escaper [ ('\\', "\\\\"); ('\t', "\\t"); ('\n', "\\n") ]

let output_line sink (p : Prop.t) =
  let esc = escaping sink in
  let field sym =
    Sexp.add_string esc (Symbol.name sym);
    Sexp.add_string sink "\t"
  in
  field p.id;
  field p.source;
  field p.label;
  field p.dest;
  Sexp.add_string sink (Time.to_string p.time);
  Sexp.add_string sink "\t";
  Sexp.add_string sink (string_of_int p.belief)

let output_serialized ?(sorted = false) sink t =
  if not sorted then
    iter t (fun p ->
        output_line sink p;
        Sexp.add_string sink "\n")
  else
    let line p =
      let buf = Buffer.create 64 in
      output_line (Buffer.add_substring buf) p;
      Buffer.contents buf
    in
    fold t (fun acc p -> line p :: acc) []
    |> List.sort String.compare
    |> List.iter (fun l ->
           Sexp.add_string sink l;
           Sexp.add_string sink "\n")

let to_serialized t =
  let buf = Buffer.create 4096 in
  output_serialized (Buffer.add_substring buf) t;
  Buffer.contents buf

let save t oc = output_serialized (output_substring oc) t
