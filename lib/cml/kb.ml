open Kernel
module Base = Store.Base
module Term = Logic.Term
module Formula = Logic.Formula
module Datalog = Logic.Datalog
module Prover = Logic.Prover

(* A memoized instance set: [members] in [Symbol.compare] order, and
   the instances absorbed since it was last read, in any order and
   possibly members already.  [room] is the member count less the
   absorbed count: a set nobody reads is dropped before its pending
   list outgrows it (see [absorb]). *)
type instances = {
  mutable members : Symbol.t list;
  mutable absorbed : Symbol.t list;
  mutable room : int;
}

(* Memoized transitive-closure caches over the isa graph, keyed by
   class.  Entries are invalidated selectively by the base-change
   listener installed in [create]; steady-state class-level queries are
   then O(1) table lookups.  An object's own classification is not
   memoized: it is its [instanceof] links plus the memoized closures of
   those classes, so the tables hold one entry per class, not one per
   individual.  An instance set takes in a new instance instead of
   being dropped (see [absorb]), so a commit that creates objects keeps
   its classes' sets.

   The attribute classes a class defines are memoized per class too
   ([class_attributes]): the write path classifies every attribute it
   adds by them, and the consistency check tests unclassified
   attributes against them.

   [m] guards the four tables and the counters: a KB shared by server
   handlers on several domains (each client of the E18 and E22 benches,
   with the daemon thread serving its socket pair, has its own) takes
   closure queries from all of them.
   Closures are computed *outside* the lock (they recurse back
   into [memo]); a race can at worst compute the same deterministic
   closure twice. *)
type cache = {
  m : Mutex.t;
  isa_up : Symbol.t list Symbol.Tbl.t;  (** isa_closure *)
  isa_down : Symbol.t list Symbol.Tbl.t;  (** isa_subs_closure *)
  all_instances : instances Symbol.Tbl.t;  (** all_instances_of *)
  class_attrs : Prop.t list Symbol.Tbl.t;
      (** a class's own attribute propositions, newest first *)
  mutable hits : int;
  mutable misses : int;
  mutable invalidations : int;
}

type cache_stats = { hits : int; misses : int; invalidations : int; entries : int }

type t = {
  base : Base.t;
  mutable rules : (Symbol.t * Term.clause) list;  (** newest first *)
  constraint_defs : Formula.t Symbol.Tbl.t;  (** constraint object -> formula *)
  mutable behaviour_defs : (Symbol.t * string * (t -> Prop.id -> unit)) list;
  cache : cache;
}

let base t = t.base
let now _t = Time.Clock.now ()
let tick _t = Time.Clock.tick ()

let exists t name =
  match Symbol.find_opt name with
  | Some id -> Base.mem t.base id
  | None -> false
let find t id = Base.find t.base id

(* Explicit classification / specialization ----------------------------- *)

let dests_by t source label =
  List.map (fun (p : Prop.t) -> p.dest) (Base.by_source_label t.base source label)

let sources_by t dest label =
  Base.fold_dest t.base dest
    (fun (p : Prop.t) sources ->
      if Symbol.equal p.label label then p.source :: sources else sources)
    []

let classes_of t x = List.sort_uniq Symbol.compare (dests_by t x Axioms.instanceof)
let isa_supers t x = List.sort_uniq Symbol.compare (dests_by t x Axioms.isa)
let instances_of t c = List.sort_uniq Symbol.compare (sources_by t c Axioms.instanceof)

let closure next start =
  let seen = ref Symbol.Set.empty in
  let rec visit x =
    List.iter
      (fun y ->
        if not (Symbol.Set.mem y !seen) then begin
          seen := Symbol.Set.add y !seen;
          visit y
        end)
      (next x)
  in
  visit start;
  Symbol.Set.elements !seen

let g_cache_hits =
  Obs.Registry.counter Obs.Registry.default "gkbms_kb_cache_hits_total"
    ~help:"KB closure cache hits"

let g_cache_misses =
  Obs.Registry.counter Obs.Registry.default "gkbms_kb_cache_misses_total"
    ~help:"KB closure cache misses"

let g_cache_invalidations =
  Obs.Registry.counter Obs.Registry.default "gkbms_kb_cache_invalidations_total"
    ~help:"KB closure cache entries dropped by selective invalidation"

(* [compute t x] answers [None] when [x] needs no entry: its closure is
   empty and found with one index probe.  Such lookups count as neither
   hit nor miss.  [read] turns an entry into its closure (under the
   lock) and [entry] a fresh closure into an entry. *)
let memo t tbl x ~read ~entry compute =
  let c = t.cache in
  Mutex.lock c.m;
  match Symbol.Tbl.find tbl x with
  | e ->
    c.hits <- c.hits + 1;
    let v = read e in
    Mutex.unlock c.m;
    Obs.Registry.Counter.inc g_cache_hits;
    v
  | exception Not_found -> (
    Mutex.unlock c.m;
    match compute t x with
    | None -> []
    | Some v ->
      Mutex.lock c.m;
      c.misses <- c.misses + 1;
      Symbol.Tbl.replace tbl x (entry v);
      Mutex.unlock c.m;
      Obs.Registry.Counter.inc g_cache_misses;
      v)

(* only objects with a generalization get an entry: an individual's
   closure is [] *)
let isa_up t x =
  match Base.by_source_label t.base x Axioms.isa with
  | [] -> None
  | _ -> Some (closure (fun y -> dests_by t y Axioms.isa) x)

let isa_down t x = Some (closure (fun y -> sources_by t y Axioms.isa) x)
let isa_closure t x = memo t t.cache.isa_up x ~read:Fun.id ~entry:Fun.id isa_up
let isa_subs_closure t x = memo t t.cache.isa_down x ~read:Fun.id ~entry:Fun.id isa_down

let[@tail_mod_cons] rec merge xs ys =
  match (xs, ys) with
  | [], l | l, [] -> l
  | x :: xs', y :: ys' ->
    let c = Symbol.compare x y in
    if c < 0 then x :: merge xs' ys
    else if c > 0 then y :: merge xs ys'
    else x :: merge xs' ys'

(* the members, with the absorbed ones merged in (once) *)
let read_instances e =
  if e.absorbed <> [] then begin
    e.members <- merge e.members (List.sort_uniq Symbol.compare e.absorbed);
    e.absorbed <- [];
    e.room <- List.length e.members
  end;
  e.members

let all_classes_of t x =
  let direct = classes_of t x in
  let inherited = List.concat_map (fun c -> isa_closure t c) direct in
  (* keep explicit classes first: they are the most specific *)
  let seen = ref Symbol.Set.empty in
  List.filter
    (fun c ->
      if Symbol.Set.mem c !seen then false
      else begin
        seen := Symbol.Set.add c !seen;
        true
      end)
    (direct @ inherited)

let instances_entry members = { members; absorbed = []; room = List.length members }

let all_instances t c =
  let classes = c :: isa_subs_closure t c in
  Some (List.sort_uniq Symbol.compare (List.concat_map (fun c -> instances_of t c) classes))

let all_instances_of t c =
  memo t t.cache.all_instances c ~read:read_instances ~entry:instances_entry all_instances

let instance_memos t =
  Mutex.lock t.cache.m;
  let memos =
    Symbol.Tbl.fold
      (fun c e acc -> (c, read_instances e) :: acc)
      t.cache.all_instances []
  in
  Mutex.unlock t.cache.m;
  List.sort (fun (a, _) (b, _) -> Symbol.compare a b) memos

(* Selective invalidation ------------------------------------------------ *)

let cache_drop_unlocked t tbl key =
  if Symbol.Tbl.mem tbl key then begin
    Symbol.Tbl.remove tbl key;
    t.cache.invalidations <- t.cache.invalidations + 1;
    Obs.Registry.Counter.inc g_cache_invalidations
  end

let cache_drop t tbl key =
  Mutex.lock t.cache.m;
  cache_drop_unlocked t tbl key;
  Mutex.unlock t.cache.m

(* Drop every entry whose memoized closure mentions [s] (plus the entry
   of [s] itself): exactly the entries a change at [s] can reach. *)
let cache_drop_mentioning t tbl s =
  Mutex.lock t.cache.m;
  let stale =
    Symbol.Tbl.fold
      (fun k v acc ->
        if Symbol.equal k s || List.exists (Symbol.equal s) v then k :: acc
        else acc)
      tbl []
  in
  List.iter (fun k -> cache_drop_unlocked t tbl k) stale;
  Mutex.unlock t.cache.m

(* [x] became an instance of [cls]: a memoized set takes it in, and
   its next read merges it into order.  A set whose pending list would
   outgrow its members is dropped instead, so one that nobody reads
   stops growing; its next read recomputes it. *)
let absorb t cls x =
  let c = t.cache in
  Mutex.lock c.m;
  (match Symbol.Tbl.find_opt c.all_instances cls with
  | Some e when e.room > 0 ->
    e.absorbed <- x :: e.absorbed;
    e.room <- e.room - 1
  | Some _ -> cache_drop_unlocked t c.all_instances cls
  | None -> ());
  Mutex.unlock c.m

let invalidate_for_change t change =
  let p = match change with Base.Added p | Base.Removed p -> p in
  let c = t.cache in
  if Prop.is_individual p then begin
    (* an object appearing or disappearing only touches its own entries *)
    Mutex.lock c.m;
    cache_drop_unlocked t c.isa_up p.id;
    cache_drop_unlocked t c.isa_down p.id;
    cache_drop_unlocked t c.all_instances p.id;
    cache_drop_unlocked t c.class_attrs p.id;
    Mutex.unlock c.m
  end
  else if Symbol.equal p.label Axioms.isa then begin
    (* an isa edge source -> dest changes the up-closure of everything
       below the source and the down-closure of everything above the
       dest.  Up-closure entries reaching [source] are stale; refresh
       them before using isa_closure to locate the classes whose
       instance sets changed. *)
    cache_drop_mentioning t c.isa_up p.source;
    cache_drop_mentioning t c.isa_down p.dest;
    List.iter
      (fun cls -> cache_drop t c.all_instances cls)
      (p.dest :: isa_closure t p.dest)
  end
  else if Symbol.equal p.label Axioms.instanceof then begin
    (* source gained/lost a class: the instance sets of the class and
       its generalizations change *)
    let classes = p.dest :: isa_closure t p.dest in
    match change with
    | Base.Added _ -> List.iter (fun cls -> absorb t cls p.source) classes
    | Base.Removed _ -> List.iter (fun cls -> cache_drop t c.all_instances cls) classes
  end
  else if not (Axioms.is_reserved_label p.label) then
    (* an attribute changes its source's attribute classes; the other
       links affect no memo *)
    cache_drop t c.class_attrs p.source

let cache_stats t =
  Mutex.lock t.cache.m;
  let s =
    {
      hits = t.cache.hits;
      misses = t.cache.misses;
      invalidations = t.cache.invalidations;
      entries =
        Symbol.Tbl.length t.cache.isa_up + Symbol.Tbl.length t.cache.isa_down
        + Symbol.Tbl.length t.cache.all_instances
        + Symbol.Tbl.length t.cache.class_attrs;
    }
  in
  Mutex.unlock t.cache.m;
  s

let rec mem_sym x = function
  | [] -> false
  | y :: rest -> Symbol.equal x y || mem_sym x rest

let rec classified t cls = function
  | [] -> false
  | (p : Prop.t) :: rest ->
    Symbol.equal p.dest cls || mem_sym cls (isa_closure t p.dest) || classified t cls rest

let is_instance t ~inst ~cls =
  classified t cls (Base.by_source_label t.base inst Axioms.instanceof)

(* Creation with axiom checks ------------------------------------------- *)

let err fmt = Format.kasprintf (fun s -> Error s) fmt

let check_axioms t (p : Prop.t) =
  if Prop.is_individual p then Ok ()
  else if not (Base.mem t.base p.source) then
    err "axiom violation: source %a of %a does not exist" Symbol.pp p.source
      Prop.pp p
  else if not (Base.mem t.base p.dest) then
    err "axiom violation: destination %a of %a does not exist" Symbol.pp p.dest
      Prop.pp p
  else if Symbol.equal p.label Axioms.isa then begin
    (* specialization must stay acyclic *)
    if
      Symbol.equal p.source p.dest
      || List.exists (Symbol.equal p.source) (isa_closure t p.dest)
    then err "axiom violation: isa cycle through %a" Symbol.pp p.source
    else Ok ()
  end
  else Ok ()

let create_proposition t p =
  match check_axioms t p with
  | Error e -> Error e
  | Ok () -> Base.insert t.base p

let remove_proposition t id =
  match Base.find t.base id with
  | None -> err "no proposition %a" Symbol.pp id
  | Some p ->
    let dependents =
      List.filter
        (fun (q : Prop.t) -> not (Symbol.equal q.id id))
        (Base.by_source t.base id @ Base.by_dest t.base id)
    in
    if dependents <> [] && Prop.is_individual p then
      err "cannot remove %a: %d propositions still refer to it" Symbol.pp id
        (List.length dependents)
    else Base.remove t.base id

(* Attributes ------------------------------------------------------------ *)

let is_attribute_prop (p : Prop.t) =
  (not (Prop.is_individual p)) && not (Axioms.is_reserved_label p.label)

let category_of t id =
  match Base.by_source_label t.base id Axioms.instanceof with
  | p :: _ -> Some p.dest
  | [] -> None

let attributes t ?category x =
  let attrs =
    Base.fold_source t.base x
      (fun p acc -> if is_attribute_prop p then p :: acc else acc)
      []
  in
  match category with
  | None -> attrs
  | Some cat ->
    let cat = Symbol.intern cat in
    List.filter
      (fun (p : Prop.t) ->
        match category_of t p.id with
        | Some c ->
          Symbol.equal c cat
          || (match Base.find t.base c with
             | Some cp -> Symbol.equal cp.Prop.label cat
             | None -> false)
        | None -> false)
      attrs

let attribute_values t x label =
  let label = Symbol.intern label in
  Base.fold_source t.base x
    (fun (p : Prop.t) acc ->
      if Symbol.equal p.label label && is_attribute_prop p then p.dest :: acc
      else acc)
    []

(* a class without attributes needs no entry *)
let own_attributes t c = match attributes t c with [] -> None | attrs -> Some attrs
let class_attributes t c = memo t t.cache.class_attrs c ~read:Fun.id ~entry:Fun.id own_attributes

let rec labelled label = function
  | [] -> None
  | (p : Prop.t) :: rest ->
    if Symbol.equal p.label label then Some p else labelled label rest

(* the first of [classes] defining an attribute labelled [label] *)
let rec defining t label = function
  | [] -> None
  | c :: rest -> (
    match labelled label (class_attributes t c) with
    | Some _ as found -> found
    | None -> defining t label rest)

let rec inherited t label = function
  | [] -> None
  | c :: rest -> (
    match defining t label (isa_closure t c) with
    | Some _ as found -> found
    | None -> inherited t label rest)

(* The first of [source]'s classes in {!all_classes_of} order (its
   explicit classes, then what they inherit) that defines an attribute
   labelled [label]; a class's newest such attribute.  A class met
   twice was passed over the first time, so no dedup is needed. *)
let attribute_class t source label =
  let direct = classes_of t source in
  match defining t label direct with
  | Some _ as found -> found
  | None -> inherited t label direct

(* The symbol-typed write path; the string-typed functions below
   intern their names and call these. *)

(* A chosen id that spells a minted one, serial symbol [n], raises the
   id counter past [n], so no later {!Prop.fresh_id} mints it again
   (a reload does the same in [Persist.finalize]). *)
let claim id = match Symbol.serial_number id with 0 -> () | n -> Prop.advance_ids n

let declare_sym ?(time = Time.always) t id =
  match Base.insert t.base (Prop.individual ~time id) with
  | Ok () ->
    claim id;
    Ok id
  | Error _ when Base.mem t.base id -> Ok id
  | Error e -> Error e

let link ?(time = Time.always) ?id t source label dest =
  let chosen = Option.is_some id in
  let id = match id with Some i -> i | None -> Prop.fresh_id () in
  let p = Prop.make ~time ~id ~source ~label ~dest () in
  match create_proposition t p with
  | Ok () ->
    if chosen then claim id;
    Ok p
  | Error e -> Error e

let add_instanceof_sym ?time t ~inst ~cls = link ?time t inst Axioms.instanceof cls

let add_attribute_sym ?time ?category ?id t ~source ~label ~dest =
  if Axioms.is_reserved_label label then err "label %a is reserved" Symbol.pp label
  else
    match link ?time ?id t source label dest with
    | Error e -> Error e
    | Ok p -> (
      let category = match category with Some c -> c | None -> label in
      match attribute_class t source category with
      | None -> Ok p (* uncategorized: flagged by the consistency checker *)
      | Some cls_attr -> (
        match link ?time t p.id Axioms.instanceof cls_attr.Prop.id with
        | Ok _ -> Ok p
        | Error e -> Error e))

let declare ?time t name = declare_sym ?time t (Symbol.intern name)

let add_instanceof ?time t ~inst ~cls =
  add_instanceof_sym ?time t ~inst:(Symbol.intern inst) ~cls:(Symbol.intern cls)

let add_isa ?time t ~sub ~super =
  link ?time t (Symbol.intern sub) Axioms.isa (Symbol.intern super)

let add_attribute ?time ?category ?id t ~source ~label ~dest =
  let intern = Symbol.intern in
  add_attribute_sym ?time ?category:(Option.map intern category) ?id:(Option.map intern id) t
    ~source:(intern source) ~label:(intern label) ~dest:(intern dest)

(* Rules, constraints, behaviours ----------------------------------------- *)

let add_rule t ~name clause =
  if not (Term.clause_safe clause) then
    err "unsafe rule %a" Term.pp_clause clause
  else
    match declare t name with
    | Error e -> Error e
    | Ok id -> (
      match link t id Axioms.instanceof Axioms.rule_class with
      | Error e -> Error e
      | Ok _ ->
        t.rules <- (id, clause) :: t.rules;
        Ok ())

let add_constraint t ~name ~cls formula =
  let cls_id = Symbol.intern cls in
  if not (Base.mem t.base cls_id) then
    err "constraint target class %s does not exist" cls
  else
    match declare t name with
    | Error e -> Error e
    | Ok id -> (
      match link t cls_id Axioms.constraint_ id with
      | Error e -> Error e
      | Ok _ ->
        Symbol.Tbl.replace t.constraint_defs id formula;
        Ok ())

let constraint_formula t id = Symbol.Tbl.find_opt t.constraint_defs id

let all_constraints t =
  Base.fold t.base
    (fun acc (p : Prop.t) ->
      if Symbol.equal p.label Axioms.constraint_ then
        match Symbol.Tbl.find_opt t.constraint_defs p.dest with
        | Some f -> (p.source, p.dest, f) :: acc
        | None -> acc
      else acc)
    []

let add_behaviour t ~cls ~event f =
  let cls_id = Symbol.intern cls in
  if not (Base.mem t.base cls_id) then err "class %s does not exist" cls
  else begin
    let event_obj = Printf.sprintf "%s!%s" cls event in
    match declare t event_obj with
    | Error e -> Error e
    | Ok event_id -> (
      match link t cls_id Axioms.behaviour event_id with
      | Error e -> Error e
      | Ok _ ->
        t.behaviour_defs <- (cls_id, event, f) :: t.behaviour_defs;
        Ok ())
  end

let trigger t obj event =
  if not (Base.mem t.base obj) then err "object %a does not exist" Symbol.pp obj
  else begin
    let classes = all_classes_of t obj in
    let ran = ref 0 in
    List.iter
      (fun (cls, ev, f) ->
        if ev = event && List.exists (Symbol.equal cls) classes then begin
          f t obj;
          incr ran
        end)
      (List.rev t.behaviour_defs);
    Ok !ran
  end

(* Deductive view --------------------------------------------------------- *)

let term_sym s = Term.symbol s

let match_sym pattern s =
  match pattern with
  | Term.Var _ -> true
  | Term.Sym s' -> Symbol.equal s s'
  | Term.Int _ -> false

let datalog t =
  let d = Datalog.create () in
  (* The unbound enumeration paths scan the EDB with {!Base.fold} /
     {!Base.iter_by_label}, consing only the tuples they keep. *)
  let enum_props pattern =
    (* pattern: [id; source; label; dest] *)
    match pattern with
    | [ pid; psrc; plab; pdst ] ->
      let keep_link id src lab dst =
        match_sym pid id && match_sym psrc src && match_sym plab lab
        && match_sym pdst dst
      in
      let tuple id src lab dst =
        [ term_sym id; term_sym src; term_sym lab; term_sym dst ]
      in
      let of_props candidates =
        List.filter_map
          (fun (p : Prop.t) ->
            if keep_link p.id p.source p.label p.dest then
              Some (tuple p.id p.source p.label p.dest)
            else None)
          candidates
      in
      (match (pid, psrc, pdst) with
      | Term.Sym id, _, _ ->
        of_props
          (match Base.find t.base id with Some p -> [ p ] | None -> [])
      | _, Term.Sym src, _ -> of_props (Base.by_source t.base src)
      | _, _, Term.Sym dst -> of_props (Base.by_dest t.base dst)
      | _ ->
        List.rev
          (Base.fold t.base
             (fun acc (p : Prop.t) ->
               if keep_link p.id p.source p.label p.dest then
                 tuple p.id p.source p.label p.dest :: acc
               else acc)
             []))
    | _ -> []
  in
  let enum_label label keep pattern =
    match pattern with
    | [ psrc; pdst ] ->
      let of_props candidates =
        List.filter_map
          (fun (p : Prop.t) ->
            if
              Symbol.equal p.label label && keep p && match_sym psrc p.source
              && match_sym pdst p.dest
            then Some [ term_sym p.source; term_sym p.dest ]
            else None)
          candidates
      in
      (match (psrc, pdst) with
      | Term.Sym src, _ -> of_props (Base.by_source_label t.base src label)
      | _, Term.Sym dst -> of_props (Base.by_dest t.base dst)
      | _ ->
        let acc = ref [] in
        Base.iter_by_label t.base label (fun (p : Prop.t) ->
            if keep p && match_sym psrc p.source && match_sym pdst p.dest
            then acc := [ term_sym p.source; term_sym p.dest ] :: !acc);
        List.rev !acc)
    | _ -> []
  in
  let enum_attr pattern =
    match pattern with
    | [ psrc; plab; pdst ] ->
      (* attribute-ness is decidable from the link symbols alone:
         individual markers have id = source = label = dest, and the
         reserved labels are a fixed symbol set *)
      let keep_link id src lab dst =
        (not (Symbol.equal src id && Symbol.equal dst id
              && Symbol.equal lab id))
        && (not (Axioms.is_reserved_label lab))
        && match_sym psrc src && match_sym plab lab && match_sym pdst dst
      in
      let of_props candidates =
        List.filter_map
          (fun (p : Prop.t) ->
            if keep_link p.id p.source p.label p.dest then
              Some [ term_sym p.source; term_sym p.label; term_sym p.dest ]
            else None)
          candidates
      in
      (match (psrc, pdst) with
      | Term.Sym src, _ -> of_props (Base.by_source t.base src)
      | _, Term.Sym dst -> of_props (Base.by_dest t.base dst)
      | _ ->
        List.rev
          (Base.fold t.base
             (fun acc (p : Prop.t) ->
               if keep_link p.id p.source p.label p.dest then
                 [ term_sym p.source; term_sym p.label; term_sym p.dest ] :: acc
               else acc)
             []))
    | _ -> []
  in
  Datalog.register_external d (Symbol.intern "prop") enum_props;
  Datalog.register_external d (Symbol.intern "instanceof")
    (enum_label Axioms.instanceof (fun _ -> true));
  Datalog.register_external d (Symbol.intern "isa")
    (enum_label Axioms.isa (fun _ -> true));
  Datalog.register_external d (Symbol.intern "attr") enum_attr;
  (* inheritance prelude: transitive isa and classification through it *)
  let v = Term.var and atom = Term.atom in
  let prelude =
    [
      Term.clause (atom "isa_tc" [ v "X"; v "Y" ])
        [ Term.Pos (atom "isa" [ v "X"; v "Y" ]) ];
      Term.clause (atom "isa_tc" [ v "X"; v "Y" ])
        [ Term.Pos (atom "isa" [ v "X"; v "Z" ]);
          Term.Pos (atom "isa_tc" [ v "Z"; v "Y" ]) ];
      Term.clause (atom "in" [ v "X"; v "C" ])
        [ Term.Pos (atom "instanceof" [ v "X"; v "C" ]) ];
      Term.clause (atom "in" [ v "X"; v "C" ])
        [ Term.Pos (atom "instanceof" [ v "X"; v "C0" ]);
          Term.Pos (atom "isa_tc" [ v "C0"; v "C" ]) ];
    ]
  in
  List.iter (fun c -> ignore (Datalog.add_clause d c)) prelude;
  List.iter
    (fun (_, c) -> ignore (Datalog.add_clause d c))
    (List.rev t.rules);
  d

(* [derive] and [explain] share one run: a fresh tabled prover over the
   deductive view, evaluated once.  Nothing it builds outlives the call. *)
let prove t goal =
  let p = Prover.make (datalog t) in
  (p, Prover.solve p [ goal ])

let derive t goal = Ok (snd (prove t goal))

(* The subgoal lines are sorted: the lemma table iterates in hash order,
   which the interning order of the symbols sets. *)
let explain t goal =
  let p, answers = prove t goal in
  let count n what =
    Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")
  in
  let subgoals =
    List.sort String.compare
      (List.map
         (fun (g, n) ->
           Format.asprintf "  %a: %s" Term.pp_atom g (count n "answer"))
         (Prover.subgoals p))
  in
  let stats = Prover.stats p in
  Ok
    (String.concat "\n"
       (Format.asprintf "query: %a" Term.pp_atom goal
        :: Printf.sprintf "engine: tabled prover, %s"
             (count (List.length subgoals) "subgoal")
        :: subgoals
       @ [ Printf.sprintf "resolutions: %d" stats.Prover.resolutions;
           Printf.sprintf "lemma hits: %d" stats.Prover.lemma_hits;
           Printf.sprintf "answers: %d" (List.length answers);
           "" ]))

let enum_holds t (a : Term.atom) =
  match Array.to_list a.args with
  | [ Term.Sym id; _; _; _ ] -> (
    match Base.find t.base id with
    | Some p ->
      match_sym a.args.(1) p.source && match_sym a.args.(2) p.label
      && match_sym a.args.(3) p.dest
    | None -> false)
  | _ -> false

let formula_env t =
  {
    Formula.instances_of = (fun c -> List.map term_sym (all_instances_of t c));
    holds =
      (fun (a : Term.atom) ->
        let name = Symbol.name a.pred in
        let arg i =
          match a.args.(i) with
          | Term.Sym s -> Some s
          | Term.Var _ | Term.Int _ -> None
        in
        match (name, Array.length a.args) with
        | "instanceof", 2 -> (
          match (arg 0, arg 1) with
          | Some x, Some c ->
            List.exists (Symbol.equal c) (classes_of t x)
          | _ -> false)
        | "in", 2 -> (
          match (arg 0, arg 1) with
          | Some x, Some c -> is_instance t ~inst:x ~cls:c
          | _ -> false)
        | "isa", 2 -> (
          match (arg 0, arg 1) with
          | Some x, Some c -> List.exists (Symbol.equal c) (isa_supers t x)
          | _ -> false)
        | "isa_tc", 2 -> (
          match (arg 0, arg 1) with
          | Some x, Some c -> List.exists (Symbol.equal c) (isa_closure t x)
          | _ -> false)
        | "attr", 3 -> (
          match (arg 0, arg 2) with
          | Some x, Some y ->
            List.exists
              (fun (p : Prop.t) ->
                match_sym a.args.(1) p.label && Symbol.equal p.dest y)
              (List.filter is_attribute_prop (Base.by_source t.base x))
          | _ -> false)
        | "prop", 4 -> enum_holds t a
        | _ ->
          (* fall back to the deductive view for user predicates *)
          (match derive t a with
          | Ok (_ :: _) -> true
          | Ok [] | Error _ -> false));
  }

let ask t f = Formula.eval (formula_env t) Term.Subst.empty f

let create () =
  let base = Base.create () in
  let t =
    {
      base;
      rules = [];
      constraint_defs = Symbol.Tbl.create 32;
      behaviour_defs = [];
      cache =
        {
          m = Mutex.create ();
          isa_up = Symbol.Tbl.create 256;
          isa_down = Symbol.Tbl.create 256;
          all_instances = Symbol.Tbl.create 256;
          class_attrs = Symbol.Tbl.create 64;
          hits = 0;
          misses = 0;
          invalidations = 0;
        };
    }
  in
  (* keep the closure caches consistent with every base change,
     including those replayed by transaction rollback *)
  ignore
    (Base.on_change base (fun change -> invalidate_for_change t change)
      : Base.subscription);
  List.iter
    (fun p ->
      match Base.insert base p with
      | Ok () -> ()
      | Error e -> invalid_arg ("Kb.create bootstrap: " ^ e))
    (Axioms.bootstrap_props ());
  t
