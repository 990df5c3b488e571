open Kernel

type tuple = Term.t array

(* A stored relation: the tuple set plus hash indexes on the first and
   last arguments, so lookups with either end bound (the two join
   directions of a binary relation, the common case in delta joins over
   recursive rules) avoid scanning the relation. *)
module Relation = struct
  type t = {
    tuples : (tuple, unit) Hashtbl.t;
    by_first : (Term.t, (tuple, unit) Hashtbl.t) Hashtbl.t;
    by_last : (Term.t, (tuple, unit) Hashtbl.t) Hashtbl.t;
  }

  let create () =
    {
      tuples = Hashtbl.create 64;
      by_first = Hashtbl.create 64;
      by_last = Hashtbl.create 64;
    }

  let mem r tup = Hashtbl.mem r.tuples tup

  let bucket_add idx key tup =
    let bucket =
      match Hashtbl.find_opt idx key with
      | Some b -> b
      | None ->
        let b = Hashtbl.create 8 in
        Hashtbl.add idx key b;
        b
    in
    Hashtbl.replace bucket tup ()

  let add r tup =
    if mem r tup then false
    else begin
      Hashtbl.add r.tuples tup ();
      let n = Array.length tup in
      if n > 0 then begin
        bucket_add r.by_first tup.(0) tup;
        if n > 1 then bucket_add r.by_last tup.(n - 1) tup
      end;
      true
    end

  let cardinal (r : t) = Hashtbl.length r.tuples
  let to_list (r : t) = Hashtbl.fold (fun tup () acc -> tup :: acc) r.tuples []

  let bucket_list idx key =
    match Hashtbl.find_opt idx key with
    | Some b -> Hashtbl.fold (fun tup () acc -> tup :: acc) b []
    | None -> []

  let find_first (r : t) key = bucket_list r.by_first key
  let find_last (r : t) key = bucket_list r.by_last key
end

type t = {
  facts : Relation.t Symbol.Tbl.t;  (** extensional, explicit *)
  externals : (Term.t list -> Term.t list list) Symbol.Tbl.t;
  mutable rules : Term.clause list;  (** reverse insertion order *)
  derived : Relation.t Symbol.Tbl.t;  (** materialized intensional *)
  mutable solved : bool;
  mutable idb_cache : Symbol.Set.t option;
}

let create () =
  {
    facts = Symbol.Tbl.create 64;
    externals = Symbol.Tbl.create 8;
    rules = [];
    derived = Symbol.Tbl.create 64;
    solved = false;
    idb_cache = None;
  }

let fact_count t p =
  match Symbol.Tbl.find_opt t.facts p with
  | Some r -> Relation.cardinal r
  | None -> 0

let set_of tbl p =
  match Symbol.Tbl.find_opt tbl p with
  | Some s -> s
  | None ->
    let s = Relation.create () in
    Symbol.Tbl.add tbl p s;
    s

let idb_preds t =
  match t.idb_cache with
  | Some s -> s
  | None ->
    let s =
      List.fold_left
        (fun acc (c : Term.clause) -> Symbol.Set.add c.head.pred acc)
        Symbol.Set.empty t.rules
    in
    t.idb_cache <- Some s;
    s

let add_clause t (c : Term.clause) =
  if not (Term.clause_safe c) then
    Error (Format.asprintf "unsafe clause %a" Term.pp_clause c)
  else if Symbol.Tbl.mem t.externals c.head.pred then
    Error
      (Format.asprintf "head predicate %a is an external relation" Symbol.pp
         c.head.pred)
  else begin
    t.rules <- c :: t.rules;
    t.solved <- false;
    t.idb_cache <- None;
    Ok ()
  end

let register_external t p enum =
  Symbol.Tbl.replace t.externals p enum;
  t.solved <- false

let clauses t = List.rev t.rules

(* Stratification ------------------------------------------------------- *)

let stratify t =
  let idb = idb_preds t in
  let stratum = Symbol.Tbl.create 16 in
  Symbol.Set.iter (fun p -> Symbol.Tbl.replace stratum p 0) idb;
  let get p = match Symbol.Tbl.find_opt stratum p with Some s -> s | None -> 0 in
  let n = Symbol.Set.cardinal idb in
  let changed = ref true in
  let rounds = ref 0 in
  let result = ref (Ok ()) in
  while !changed && !result = Ok () do
    changed := false;
    incr rounds;
    List.iter
      (fun (c : Term.clause) ->
        let h = c.head.pred in
        List.iter
          (fun lit ->
            let bump required =
              if get h < required then begin
                Symbol.Tbl.replace stratum h required;
                changed := true
              end
            in
            match lit with
            | Term.Pos a when Symbol.Set.mem a.pred idb -> bump (get a.pred)
            | Term.Neg a when Symbol.Set.mem a.pred idb ->
              bump (get a.pred + 1)
            | Term.Pos _ | Term.Neg _ | Term.Cmp _ -> ())
          c.body)
      t.rules;
    if !rounds > n + 1 then
      result := Error "program is not stratifiable (negation in a cycle)"
  done;
  match !result with
  | Error e -> Error e
  | Ok () ->
    let max_stratum = Symbol.Tbl.fold (fun _ s acc -> max s acc) stratum 0 in
    let strata =
      List.init (max_stratum + 1) (fun i ->
          Symbol.Tbl.fold
            (fun p s acc -> if s = i then p :: acc else acc)
            stratum []
          |> List.sort Symbol.compare)
    in
    Ok (List.filter (fun l -> l <> []) strata)

(* Matching ------------------------------------------------------------- *)

let match_tuple (pattern : Term.t array) (tup : tuple) subst =
  let n = Array.length pattern in
  if Array.length tup <> n then None
  else
    let rec loop i subst =
      if i = n then Some subst
      else
        match Term.unify pattern.(i) tup.(i) subst with
        | Some subst -> loop (i + 1) subst
        | None -> None
    in
    loop 0 subst

(* Tuples of the relation possibly matching [pattern]: when the first
   (or, failing that, the last) argument of the pattern is ground the
   per-predicate hash index narrows the scan to one bucket. *)
let rel_lookup (r : Relation.t) (pattern : Term.t array) =
  let n = Array.length pattern in
  if n > 0 && Term.is_ground pattern.(0) then Relation.find_first r pattern.(0)
  else if n > 1 && Term.is_ground pattern.(n - 1) then
    Relation.find_last r pattern.(n - 1)
  else Relation.to_list r

let stored_candidates tbl p pattern =
  match Symbol.Tbl.find_opt tbl p with
  | Some r -> rel_lookup r pattern
  | None -> []

(* All stored tuples of predicate [p] possibly matching [pattern]:
   explicit facts, materialized tuples, and external relations. *)
let candidates t p (pattern : Term.t array) =
  let explicit = stored_candidates t.facts p pattern in
  let derived = stored_candidates t.derived p pattern in
  let from_external =
    match Symbol.Tbl.find_opt t.externals p with
    | Some enum -> List.map Array.of_list (enum (Array.to_list pattern))
    | None -> []
  in
  List.rev_append explicit (List.rev_append derived from_external)

let match_against tuples (a : Term.atom) subst acc =
  let pattern = Array.map (Term.Subst.apply subst) a.args in
  List.fold_left
    (fun acc tup ->
      match match_tuple pattern tup subst with
      | Some subst -> subst :: acc
      | None -> acc)
    acc tuples

let holds_ground t (a : Term.atom) =
  let pattern = a.args in
  List.exists
    (fun tup -> match_tuple pattern tup Term.Subst.empty <> None)
    (candidates t a.pred pattern)

(* Evaluate a rule body.  [lookup] maps the running index of each
   positive literal to the tuple source for that occurrence (this is
   where semi-naive evaluation injects the delta).  Negations and
   comparisons are delayed until ground — clause safety guarantees they
   eventually are. *)
let eval_body t lookup body =
  let rec go pos_idx substs pending = function
    | [] ->
      (* discharge delayed negations / comparisons *)
      List.filter
        (fun subst ->
          List.for_all
            (fun lit ->
              match lit with
              | Term.Neg a -> not (holds_ground t (Term.Subst.apply_atom subst a))
              | Term.Cmp (op, l, r) -> (
                match
                  Term.eval_cmp op (Term.Subst.apply subst l)
                    (Term.Subst.apply subst r)
                with
                | Some b -> b
                | None -> false)
              | Term.Pos _ -> true)
            pending)
        substs
    | Term.Pos a :: rest ->
      let substs =
        List.fold_left
          (fun acc subst ->
            let pattern = Array.map (Term.Subst.apply subst) a.args in
            match_against (lookup pos_idx a.pred pattern) a subst acc)
          [] substs
      in
      if substs = [] then [] else go (pos_idx + 1) substs pending rest
    | Term.Neg a :: rest ->
      let ready, delayed =
        List.partition
          (fun subst -> Term.atom_ground (Term.Subst.apply_atom subst a))
          substs
      in
      let survivors =
        List.filter
          (fun subst -> not (holds_ground t (Term.Subst.apply_atom subst a)))
          ready
      in
      let pending =
        if delayed = [] then pending else Term.Neg a :: pending
      in
      go pos_idx (survivors @ delayed) pending rest
    | Term.Cmp (op, l, r) :: rest ->
      let keep, delay =
        List.fold_left
          (fun (keep, delay) subst ->
            match
              Term.eval_cmp op (Term.Subst.apply subst l)
                (Term.Subst.apply subst r)
            with
            | Some true -> (subst :: keep, delay)
            | Some false -> (keep, delay)
            | None -> (keep, subst :: delay))
          ([], []) substs
      in
      let pending = if delay = [] then pending else Term.Cmp (op, l, r) :: pending in
      go pos_idx (keep @ delay) pending rest
  in
  go 0 [ Term.Subst.empty ] [] body

let head_tuples (c : Term.clause) substs =
  List.filter_map
    (fun subst ->
      let inst = Term.Subst.apply_atom subst c.head in
      if Term.atom_ground inst then Some inst.args else None)
    substs

let full_lookup t _idx p pattern = candidates t p pattern

(* Positions (indexes among the positive body literals) paired with
   their predicates; the unit of semi-naive delta focusing. *)
let positive_positions (c : Term.clause) =
  List.filter_map
    (function
      | Term.Pos a -> Some a.Term.pred
      | Term.Neg _ | Term.Cmp _ -> None)
    c.body
  |> List.mapi (fun i p -> (i, p))

(* [c.body] reordered so the [focus]-th positive literal leads: its
   (ground) delta tuples then bind variables for the remaining joins,
   which can use the argument indexes instead of scanning.  Safe: join
   order is irrelevant for positive literals, and any Neg/Cmp literal
   keeps its relative position, so it is evaluated under at least the
   bindings it would have seen in the original order. *)
let focused_body (c : Term.clause) focus =
  let rec split i acc = function
    | [] -> c.body (* focus out of range: leave untouched *)
    | (Term.Pos _ as lit) :: rest when i = focus -> lit :: List.rev_append acc rest
    | (Term.Pos _ as lit) :: rest -> split (i + 1) (lit :: acc) rest
    | lit :: rest -> split i (lit :: acc) rest
  in
  split 0 [] c.body

let stratum_rules_of t stratum_preds =
  List.filter
    (fun (c : Term.clause) ->
      List.exists (Symbol.equal c.head.pred) stratum_preds)
    (clauses t)

(* Delta tables: predicate -> relation of tuples new in this round. *)

let delta_create () : Relation.t Symbol.Tbl.t = Symbol.Tbl.create 8

let delta_set (d : Relation.t Symbol.Tbl.t) p =
  match Symbol.Tbl.find_opt d p with
  | Some s -> s
  | None ->
    let s = Relation.create () in
    Symbol.Tbl.add d p s;
    s

let delta_nonempty (d : Relation.t Symbol.Tbl.t) =
  Symbol.Tbl.fold (fun _ s acc -> acc || Relation.cardinal s > 0) d false

let delta_lookup (d : Relation.t Symbol.Tbl.t) p pattern =
  match Symbol.Tbl.find_opt d p with
  | Some r -> rel_lookup r pattern
  | None -> []

(* Semi-naive evaluation ------------------------------------------------- *)

let eval_stratum_seminaive t stratum_preds stratum_rules =
  let in_stratum p = List.exists (Symbol.equal p) stratum_preds in
  (* round 0: full evaluation of every rule once *)
  let delta = ref (delta_create ()) in
  List.iter
    (fun (c : Term.clause) ->
      let substs = eval_body t (full_lookup t) c.body in
      List.iter
        (fun tup ->
          if Relation.add (set_of t.derived c.head.pred) tup then
            ignore (Relation.add (delta_set !delta c.head.pred) tup))
        (head_tuples c substs))
    stratum_rules;
  (* iterate: each round focuses one same-stratum positive literal on the
     previous round's delta *)
  while delta_nonempty !delta do
    let next = delta_create () in
    List.iter
      (fun (c : Term.clause) ->
        let recursive_positions =
          List.filter (fun (_, p) -> in_stratum p) (positive_positions c)
          |> List.map fst
        in
        List.iter
          (fun focus ->
            let lookup idx p pattern =
              if idx = 0 then delta_lookup !delta p pattern
              else candidates t p pattern
            in
            let substs = eval_body t lookup (focused_body c focus) in
            List.iter
              (fun tup ->
                if Relation.add (set_of t.derived c.head.pred) tup then
                  ignore (Relation.add (delta_set next c.head.pred) tup))
              (head_tuples c substs))
          recursive_positions)
      stratum_rules;
    delta := next
  done

let invalidate t =
  Symbol.Tbl.reset t.derived;
  t.solved <- false

let solve t =
  if t.solved then Ok ()
  else
    match stratify t with
    | Error e -> Error e
    | Ok strata ->
      Symbol.Tbl.reset t.derived;
      List.iter
        (fun stratum_preds ->
          eval_stratum_seminaive t stratum_preds
            (stratum_rules_of t stratum_preds))
        strata;
      t.solved <- true;
      Ok ()

(* A new fact drops a materialization rather than patching it: nothing
   in the system keeps one live, so the next [solve] recomputes. *)
let add_fact t (a : Term.atom) =
  if not (Term.atom_ground a) then
    Error (Format.asprintf "non-ground fact %a" Term.pp_atom a)
  else begin
    if Relation.add (set_of t.facts a.pred) a.args && t.solved then invalidate t;
    Ok ()
  end

let match_atom t (a : Term.atom) subst =
  let pattern = Array.map (Term.Subst.apply subst) a.args in
  match_against (candidates t a.pred pattern) a subst []

let query t a =
  match solve t with
  | Error e -> Error e
  | Ok () -> Ok (match_atom t a Term.Subst.empty)

let derived_count t =
  Symbol.Tbl.fold (fun _ s acc -> acc + Relation.cardinal s) t.derived 0
