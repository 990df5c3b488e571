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

  let bucket_remove idx key tup =
    match Hashtbl.find_opt idx key with
    | Some b -> Hashtbl.remove b tup
    | None -> ()

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

  let remove r tup =
    if mem r tup then begin
      Hashtbl.remove r.tuples tup;
      let n = Array.length tup in
      if n > 0 then begin
        bucket_remove r.by_first tup.(0) tup;
        if n > 1 then bucket_remove r.by_last tup.(n - 1) tup
      end;
      true
    end
    else false

  let iter f (r : t) = Hashtbl.iter (fun tup () -> f tup) r.tuples
  let cardinal (r : t) = Hashtbl.length r.tuples
  let to_list (r : t) = Hashtbl.fold (fun tup () acc -> tup :: acc) r.tuples []

  let bucket_list idx key =
    match Hashtbl.find_opt idx key with
    | Some b -> Hashtbl.fold (fun tup () acc -> tup :: acc) b []
    | None -> []

  let find_first (r : t) key = bucket_list r.by_first key
  let find_last (r : t) key = bucket_list r.by_last key
end

type strategy = [ `Naive | `Seminaive ]

type stats = {
  full_solves : int;  (** complete from-scratch materializations *)
  incr_inserts : int;  (** fact insertions absorbed by a delta round *)
  incr_deletes : int;  (** fact deletions absorbed by delete-rederive *)
  fallbacks : int;  (** updates that had to invalidate instead *)
  delta_rounds : int;  (** semi-naive / DRed rounds run incrementally *)
  delta_tuples : int;  (** tuples moved by incremental propagation *)
  index_hits : int;  (** bound-first-argument indexed lookups *)
  index_misses : int;  (** full-relation scans *)
}

type counters = {
  mutable c_full_solves : int;
  mutable c_incr_inserts : int;
  mutable c_incr_deletes : int;
  mutable c_fallbacks : int;
  mutable c_delta_rounds : int;
  mutable c_delta_tuples : int;
  mutable c_index_hits : int;
  mutable c_index_misses : int;
}

type t = {
  facts : Relation.t Symbol.Tbl.t;  (** extensional, explicit *)
  externals : (Term.t list -> Term.t list list) Symbol.Tbl.t;
  mutable rules : Term.clause list;  (** reverse insertion order *)
  derived : Relation.t Symbol.Tbl.t;  (** materialized intensional *)
  mutable solved : bool;
  mutable idb_cache : Symbol.Set.t option;
  mutable nonmonotone_cache : bool option;  (** any negated literal? *)
  mutable strata_cache : Symbol.t list list option;  (** set by [solve] *)
  counters : counters;
  pub : counters;  (** values already flushed to the global registry *)
}

(* Process-wide registry series.  Hot paths bump only the engine-local
   [counters] record; [publish] flushes the diff vs. [pub] at public
   operation boundaries so per-lookup work stays a plain field update. *)
let reg = Obs.Registry.default

let g_full_solves =
  Obs.Registry.counter reg "gkbms_datalog_full_solves_total"
    ~help:"Complete from-scratch datalog materializations"

let g_incr_inserts =
  Obs.Registry.counter reg "gkbms_datalog_incr_inserts_total"
    ~help:"Fact insertions absorbed by a delta round"

let g_incr_deletes =
  Obs.Registry.counter reg "gkbms_datalog_incr_deletes_total"
    ~help:"Fact deletions absorbed by delete-rederive"

let g_fallbacks =
  Obs.Registry.counter reg "gkbms_datalog_fallbacks_total"
    ~help:"Updates that invalidated instead of patching incrementally"

let g_delta_rounds =
  Obs.Registry.counter reg "gkbms_datalog_delta_rounds_total"
    ~help:"Semi-naive / DRed rounds run incrementally"

let g_delta_tuples =
  Obs.Registry.counter reg "gkbms_datalog_delta_tuples_total"
    ~help:"Tuples moved by incremental propagation"

let g_index_hits =
  Obs.Registry.counter reg "gkbms_datalog_index_hits_total"
    ~help:"Bound-first-argument indexed lookups"

let g_index_misses =
  Obs.Registry.counter reg "gkbms_datalog_index_misses_total"
    ~help:"Full-relation scans"

let publish t =
  let c = t.counters and p = t.pub in
  let flush g cur last = if cur > last then Obs.Registry.Counter.inc ~by:(cur - last) g in
  flush g_full_solves c.c_full_solves p.c_full_solves;
  flush g_incr_inserts c.c_incr_inserts p.c_incr_inserts;
  flush g_incr_deletes c.c_incr_deletes p.c_incr_deletes;
  flush g_fallbacks c.c_fallbacks p.c_fallbacks;
  flush g_delta_rounds c.c_delta_rounds p.c_delta_rounds;
  flush g_delta_tuples c.c_delta_tuples p.c_delta_tuples;
  flush g_index_hits c.c_index_hits p.c_index_hits;
  flush g_index_misses c.c_index_misses p.c_index_misses;
  p.c_full_solves <- c.c_full_solves;
  p.c_incr_inserts <- c.c_incr_inserts;
  p.c_incr_deletes <- c.c_incr_deletes;
  p.c_fallbacks <- c.c_fallbacks;
  p.c_delta_rounds <- c.c_delta_rounds;
  p.c_delta_tuples <- c.c_delta_tuples;
  p.c_index_hits <- c.c_index_hits;
  p.c_index_misses <- c.c_index_misses

let fresh_counters () =
  {
    c_full_solves = 0;
    c_incr_inserts = 0;
    c_incr_deletes = 0;
    c_fallbacks = 0;
    c_delta_rounds = 0;
    c_delta_tuples = 0;
    c_index_hits = 0;
    c_index_misses = 0;
  }

let create () =
  {
    facts = Symbol.Tbl.create 64;
    externals = Symbol.Tbl.create 8;
    rules = [];
    derived = Symbol.Tbl.create 64;
    solved = false;
    idb_cache = None;
    nonmonotone_cache = None;
    strata_cache = None;
    counters = fresh_counters ();
    pub = fresh_counters ();
  }

let stats t =
  let c = t.counters in
  {
    full_solves = c.c_full_solves;
    incr_inserts = c.c_incr_inserts;
    incr_deletes = c.c_incr_deletes;
    fallbacks = c.c_fallbacks;
    delta_rounds = c.c_delta_rounds;
    delta_tuples = c.c_delta_tuples;
    index_hits = c.c_index_hits;
    index_misses = c.c_index_misses;
  }

let reset_stats t =
  publish t;
  let zero c =
    c.c_full_solves <- 0;
    c.c_incr_inserts <- 0;
    c.c_incr_deletes <- 0;
    c.c_fallbacks <- 0;
    c.c_delta_rounds <- 0;
    c.c_delta_tuples <- 0;
    c.c_index_hits <- 0;
    c.c_index_misses <- 0
  in
  zero t.counters;
  zero t.pub

let copy t =
  let dup_sets tbl =
    let fresh = Symbol.Tbl.create (Symbol.Tbl.length tbl) in
    Symbol.Tbl.iter
      (fun p rel ->
        let r = Relation.create () in
        Relation.iter (fun tup -> ignore (Relation.add r tup)) rel;
        Symbol.Tbl.add fresh p r)
      tbl;
    fresh
  in
  {
    facts = dup_sets t.facts;
    externals = Symbol.Tbl.copy t.externals;
    rules = t.rules;
    derived = dup_sets t.derived;
    solved = t.solved;
    idb_cache = t.idb_cache;
    nonmonotone_cache = t.nonmonotone_cache;
    strata_cache = t.strata_cache;
    counters = fresh_counters ();
    pub = fresh_counters ();
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

(* Incremental maintenance is only attempted for monotone programs:
   a negated literal makes insertions able to retract derived tuples
   (and vice versa), which a pure delta round cannot express. *)
let nonmonotone t =
  match t.nonmonotone_cache with
  | Some b -> b
  | None ->
    let b =
      List.exists
        (fun (c : Term.clause) ->
          List.exists
            (function Term.Neg _ -> true | Term.Pos _ | Term.Cmp _ -> false)
            c.body)
        t.rules
    in
    t.nonmonotone_cache <- Some b;
    b

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
    t.nonmonotone_cache <- None;
    t.strata_cache <- None;
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
let rel_lookup t (r : Relation.t) (pattern : Term.t array) =
  let n = Array.length pattern in
  if n > 0 && Term.is_ground pattern.(0) then begin
    t.counters.c_index_hits <- t.counters.c_index_hits + 1;
    Relation.find_first r pattern.(0)
  end
  else if n > 1 && Term.is_ground pattern.(n - 1) then begin
    t.counters.c_index_hits <- t.counters.c_index_hits + 1;
    Relation.find_last r pattern.(n - 1)
  end
  else begin
    t.counters.c_index_misses <- t.counters.c_index_misses + 1;
    Relation.to_list r
  end

let stored_candidates t tbl p pattern =
  match Symbol.Tbl.find_opt tbl p with
  | Some r -> rel_lookup t r pattern
  | None -> []

(* All stored tuples of predicate [p] possibly matching [pattern]:
   explicit facts, materialized tuples, and external relations. *)
let candidates t p (pattern : Term.t array) =
  let explicit = stored_candidates t t.facts p pattern in
  let derived = stored_candidates t t.derived p pattern in
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
   eventually are.  [init] seeds the evaluation (used to rederive a
   specific head tuple by pre-binding the head variables). *)
let eval_body ?(init = [ Term.Subst.empty ]) t lookup body =
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
  go 0 init [] body

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

let delta_mem (d : Relation.t Symbol.Tbl.t) p =
  match Symbol.Tbl.find_opt d p with
  | Some s -> Relation.cardinal s > 0
  | None -> false

let delta_lookup t (d : Relation.t Symbol.Tbl.t) p pattern =
  match Symbol.Tbl.find_opt d p with
  | Some r -> rel_lookup t r pattern
  | None -> []

let delta_copy d =
  let fresh = delta_create () in
  Symbol.Tbl.iter
    (fun p r ->
      let s = delta_set fresh p in
      Relation.iter (fun tup -> ignore (Relation.add s tup)) r)
    d;
  fresh

(* Full evaluation ------------------------------------------------------- *)

let eval_stratum_naive t stratum_rules =
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (c : Term.clause) ->
        let substs = eval_body t (full_lookup t) c.body in
        List.iter
          (fun tup ->
            if Relation.add (set_of t.derived c.head.pred) tup then
              changed := true)
          (head_tuples c substs))
      stratum_rules
  done

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
              if idx = 0 then delta_lookup t !delta p pattern
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

(* Parallel semi-naive: the per-(rule, focus) delta joins of one round
   are independent reads, so they run on pool domains against a shim of
   [t] (shared fact/derived tables, private counters); each job returns
   its head tuples and the coordinator merges them into [t.derived] and
   the next delta sequentially, in job order.  Compared to the
   sequential loop above, a rule no longer sees tuples derived by
   earlier rules of the *same* round — those tuples are in the round's
   delta, and every same-stratum body position is a recursive focus, so
   the next round derives exactly the missed consequences: the fixpoint
   is identical, at worst one extra round.  Negated predicates are in
   lower (complete) strata by stratification, so deferral never changes
   a negation's outcome.  External relations must be safe to call from
   several domains (the Cml bridge reads only the store). *)
let eval_stratum_seminaive_par ~pool t stratum_preds stratum_rules =
  let in_stratum p = List.exists (Symbol.equal p) stratum_preds in
  let shim () = { t with counters = fresh_counters (); pub = fresh_counters () } in
  let absorb (c : counters) =
    t.counters.c_index_hits <- t.counters.c_index_hits + c.c_index_hits;
    t.counters.c_index_misses <- t.counters.c_index_misses + c.c_index_misses
  in
  let merge delta results =
    List.iter
      (fun (p, tups, ctrs) ->
        absorb ctrs;
        List.iter
          (fun tup ->
            if Relation.add (set_of t.derived p) tup then
              ignore (Relation.add (delta_set delta p) tup))
          tups)
      results
  in
  let delta = ref (delta_create ()) in
  Par.Pool.map_list ~pool
    (fun (c : Term.clause) ->
      let sh = shim () in
      let substs = eval_body sh (full_lookup sh) c.body in
      (c.head.pred, head_tuples c substs, sh.counters))
    stratum_rules
  |> merge !delta;
  let jobs =
    List.concat_map
      (fun (c : Term.clause) ->
        positive_positions c
        |> List.filter (fun (_, p) -> in_stratum p)
        |> List.map (fun (focus, _) -> (c, focus)))
      stratum_rules
  in
  while delta_nonempty !delta do
    let d = !delta in
    let results =
      Par.Pool.map_list ~pool
        (fun ((c : Term.clause), focus) ->
          let sh = shim () in
          let lookup idx p pattern =
            if idx = 0 then delta_lookup sh d p pattern
            else candidates sh p pattern
          in
          let substs = eval_body sh lookup (focused_body c focus) in
          (c.head.pred, head_tuples c substs, sh.counters))
        jobs
    in
    let next = delta_create () in
    merge next results;
    delta := next
  done

let invalidate t =
  Symbol.Tbl.reset t.derived;
  t.solved <- false

let solve ?(strategy = `Seminaive) ?pool t =
  (* the parallel path only engages on a real multi-domain pool from
     outside a pool task; otherwise the pre-parallel code runs verbatim *)
  let pool =
    match pool with
    | Some p when Par.Pool.size p > 1 && not (Par.Pool.in_worker ()) -> Some p
    | Some _ | None -> None
  in
  if t.solved then Ok ()
  else
    let r =
      match stratify t with
      | Error e -> Error e
      | Ok strata ->
        Symbol.Tbl.reset t.derived;
        List.iter
          (fun stratum_preds ->
            let stratum_rules = stratum_rules_of t stratum_preds in
            match (strategy, pool) with
            | `Naive, _ -> eval_stratum_naive t stratum_rules
            | `Seminaive, Some pool ->
              eval_stratum_seminaive_par ~pool t stratum_preds stratum_rules
            | `Seminaive, None ->
              eval_stratum_seminaive t stratum_preds stratum_rules)
          strata;
        t.strata_cache <- Some strata;
        t.solved <- true;
        t.counters.c_full_solves <- t.counters.c_full_solves + 1;
        Ok ()
    in
    publish t;
    r

(* Incremental insertion ------------------------------------------------- *)

(* Semi-naive propagation of already-inserted [seeds] through the given
   strata.  New head tuples are added to [t.derived]; the accumulated
   delta of one stratum feeds the rules of the higher strata. *)
let propagate_insertions t seeds strata =
  let acc = delta_create () in
  List.iter (fun (p, tup) -> ignore (Relation.add (delta_set acc p) tup)) seeds;
  List.iter
    (fun stratum_preds ->
      let stratum_rules = stratum_rules_of t stratum_preds in
      if stratum_rules <> [] then begin
        let cur = ref (delta_copy acc) in
        while delta_nonempty !cur do
          t.counters.c_delta_rounds <- t.counters.c_delta_rounds + 1;
          let next = delta_create () in
          List.iter
            (fun (c : Term.clause) ->
              List.iter
                (fun (focus, p) ->
                  if delta_mem !cur p then begin
                    let lookup idx q pattern =
                      if idx = 0 then delta_lookup t !cur q pattern
                      else candidates t q pattern
                    in
                    let substs = eval_body t lookup (focused_body c focus) in
                    List.iter
                      (fun tup ->
                        if Relation.add (set_of t.derived c.head.pred) tup
                        then begin
                          ignore (Relation.add (delta_set next c.head.pred) tup);
                          ignore (Relation.add (delta_set acc c.head.pred) tup);
                          t.counters.c_delta_tuples <-
                            t.counters.c_delta_tuples + 1
                        end)
                      (head_tuples c substs)
                  end)
                (positive_positions c))
            stratum_rules;
          cur := next
        done
      end)
    strata

let add_fact t (a : Term.atom) =
  if not (Term.atom_ground a) then
    Error (Format.asprintf "non-ground fact %a" Term.pp_atom a)
  else begin
    let rel = set_of t.facts a.pred in
    if Relation.mem rel a.args then Ok () (* duplicate: nothing to do *)
    else begin
      ignore (Relation.add rel a.args);
      (match (t.solved, t.strata_cache) with
      | true, Some strata when not (nonmonotone t) ->
        (* one delta round instead of re-solving from scratch *)
        t.counters.c_incr_inserts <- t.counters.c_incr_inserts + 1;
        propagate_insertions t [ (a.pred, a.args) ] strata
      | true, _ ->
        t.counters.c_fallbacks <- t.counters.c_fallbacks + 1;
        t.solved <- false
      | false, _ -> ());
      publish t;
      Ok ()
    end
  end

let add_facts t (atoms : Term.atom list) =
  match List.find_opt (fun a -> not (Term.atom_ground a)) atoms with
  | Some a -> Error (Format.asprintf "non-ground fact %a" Term.pp_atom a)
  | None ->
    (* Stage every new tuple first, then run ONE delta round over the
       whole batch — loading n facts costs one propagation instead of
       n (the semi-naive round already takes a seed list). *)
    let seeds =
      List.filter
        (fun (a : Term.atom) -> Relation.add (set_of t.facts a.pred) a.args)
        atoms
    in
    (if seeds <> [] then begin
       (match (t.solved, t.strata_cache) with
       | true, Some strata when not (nonmonotone t) ->
         t.counters.c_incr_inserts <- t.counters.c_incr_inserts + 1;
         propagate_insertions t
           (List.map (fun (a : Term.atom) -> (a.pred, a.args)) seeds)
           strata
       | true, _ ->
         t.counters.c_fallbacks <- t.counters.c_fallbacks + 1;
         t.solved <- false
       | false, _ -> ());
       publish t
     end);
    Ok ()

(* Incremental deletion (delete-rederive) -------------------------------- *)

(* Is there still a derivation of head tuple [tup] of [p] from the
   current database?  Pre-binds the head with the tuple and evaluates
   each rule body against the stored relations. *)
let rederivable t p (tup : tuple) =
  List.exists
    (fun (c : Term.clause) ->
      Symbol.equal c.head.pred p
      &&
      match
        Term.unify_atoms c.head
          { Term.pred = p; args = tup }
          Term.Subst.empty
      with
      | None -> false
      | Some subst -> eval_body ~init:[ subst ] t (full_lookup t) c.body <> [])
    t.rules

(* DRed, stratum by stratum: over-delete everything with a derivation
   through a deleted tuple (other body positions see the pre-deletion
   database, i.e. current ∪ deleted), then put back and re-propagate the
   tuples that still have an independent derivation. *)
let propagate_deletions t seeds strata =
  (* The lookups below (and especially the per-tuple body probes of
     [rederivable]) are maintenance work, not query answering: a
     retraction storm would otherwise swamp the hit/miss ratio with
     thousands of internal probes and make the steady-state index
     statistics meaningless.  Snapshot the two counters and restore them
     on exit; the delta counters ([delta_rounds]/[delta_tuples]) keep
     counting, they genuinely describe DRed work. *)
  let h0 = t.counters.c_index_hits and m0 = t.counters.c_index_misses in
  Fun.protect ~finally:(fun () ->
      t.counters.c_index_hits <- h0;
      t.counters.c_index_misses <- m0)
  @@ fun () ->
  let deleted = delta_create () in
  List.iter
    (fun (p, tup) -> ignore (Relation.add (delta_set deleted p) tup))
    seeds;
  List.iter
    (fun stratum_preds ->
      let stratum_rules = stratum_rules_of t stratum_preds in
      if stratum_rules <> [] then begin
        (* phase 1: over-delete *)
        let del_s = delta_create () in
        let cur = ref (delta_copy deleted) in
        while delta_nonempty !cur do
          t.counters.c_delta_rounds <- t.counters.c_delta_rounds + 1;
          let next = delta_create () in
          List.iter
            (fun (c : Term.clause) ->
              List.iter
                (fun (focus, p) ->
                  if delta_mem !cur p then begin
                    let lookup idx q pattern =
                      if idx = 0 then delta_lookup t !cur q pattern
                      else
                        List.rev_append
                          (delta_lookup t deleted q pattern)
                          (candidates t q pattern)
                    in
                    let substs = eval_body t lookup (focused_body c focus) in
                    List.iter
                      (fun tup ->
                        match Symbol.Tbl.find_opt t.derived c.head.pred with
                        | Some rel when Relation.remove rel tup ->
                          ignore
                            (Relation.add (delta_set deleted c.head.pred) tup);
                          ignore
                            (Relation.add (delta_set del_s c.head.pred) tup);
                          ignore
                            (Relation.add (delta_set next c.head.pred) tup);
                          t.counters.c_delta_tuples <-
                            t.counters.c_delta_tuples + 1
                        | Some _ | None -> ())
                      (head_tuples c substs)
                  end)
                (positive_positions c))
            stratum_rules;
          cur := next
        done;
        (* phase 2: rederive over-deleted tuples that survive *)
        let survivors = ref [] in
        Symbol.Tbl.iter
          (fun p rel ->
            Relation.iter
              (fun tup ->
                if rederivable t p tup then survivors := (p, tup) :: !survivors)
              rel)
          del_s;
        List.iter
          (fun (p, tup) -> ignore (Relation.add (set_of t.derived p) tup))
          !survivors;
        if !survivors <> [] then
          propagate_insertions t !survivors [ stratum_preds ];
        (* anything back in [derived] is no longer deleted: later strata
           must not propagate its removal *)
        Symbol.Tbl.iter
          (fun p rel ->
            Relation.iter
              (fun tup ->
                match Symbol.Tbl.find_opt t.derived p with
                | Some d when Relation.mem d tup ->
                  ignore (Relation.remove (delta_set deleted p) tup)
                | Some _ | None -> ())
              rel)
          del_s
      end)
    strata

let remove_fact t (a : Term.atom) =
  if not (Term.atom_ground a) then
    Error (Format.asprintf "non-ground fact %a" Term.pp_atom a)
  else begin
    (match Symbol.Tbl.find_opt t.facts a.pred with
    | None -> ()
    | Some rel ->
      if Relation.remove rel a.args then (
        match (t.solved, t.strata_cache) with
        | true, Some strata when not (nonmonotone t) ->
          t.counters.c_incr_deletes <- t.counters.c_incr_deletes + 1;
          propagate_deletions t [ (a.pred, a.args) ] strata
        | true, _ ->
          t.counters.c_fallbacks <- t.counters.c_fallbacks + 1;
          t.solved <- false
        | false, _ -> ()));
    publish t;
    Ok ()
  end

let facts_of t p =
  let explicit =
    match Symbol.Tbl.find_opt t.facts p with
    | Some s -> Relation.to_list s
    | None -> []
  in
  let derived =
    match Symbol.Tbl.find_opt t.derived p with
    | Some s -> Relation.to_list s
    | None -> []
  in
  List.map Array.to_list (List.rev_append explicit derived)

let match_atom t (a : Term.atom) subst =
  let pattern = Array.map (Term.Subst.apply subst) a.args in
  match_against (candidates t a.pred pattern) a subst []

let query ?strategy ?pool t a =
  match solve ?strategy ?pool t with
  | Error e -> Error e
  | Ok () ->
    let r = match_atom t a Term.Subst.empty in
    publish t;
    Ok r

let derived_count t =
  Symbol.Tbl.fold (fun _ s acc -> acc + Relation.cardinal s) t.derived 0
