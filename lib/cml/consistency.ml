open Kernel
module Base = Store.Base
module Formula = Logic.Formula
module Term = Logic.Term

type violation = { subject : Prop.id; rule : string; message : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%s] %a: %s" v.rule Symbol.pp v.subject v.message

let violation subject rule fmt =
  Format.kasprintf (fun message -> { subject; rule; message }) fmt

(* Classes whose extension is universal: everything is a PROPOSITION and
   every proposition can act as a CLASS in principle. *)
let universal c =
  Symbol.equal c Axioms.proposition || Symbol.equal c Axioms.class_

(* an endpoint conforms to the category's endpoint class if it is an
   instance of it; or — at the class level, where attributes refine their
   category — the class itself or one of its specializations; or — one
   omega level down, when the category's endpoint is a metaclass — an
   instance of an instance of it *)
let instance_ok kb ~inst ~cls =
  universal cls || Kb.is_instance kb ~inst ~cls || Symbol.equal inst cls
  || List.exists (Symbol.equal cls) (Kb.isa_closure kb inst)
  || List.exists
       (fun c -> Kb.is_instance kb ~inst:c ~cls)
       (Kb.classes_of kb inst)

(* --- structural checks on a single proposition ----------------------- *)

let missing (p : Prop.t) which id =
  violation p.id "referential-integrity" "%s %s of %s does not exist" which
    (Symbol.name id) (Symbol.name p.id)

let contained (p : Prop.t) which id = function
  | Some (endpoint : Prop.t) ->
    if Time.during p.time endpoint.time then []
    else
      [
        violation p.id "temporal-containment"
          "valid time %s of %s exceeds %s %s's valid time %s"
          (Time.to_string p.time) (Symbol.name p.id) which (Symbol.name id)
          (Time.to_string endpoint.time);
      ]
  | None -> []

(* Referential integrity (a missing destination reported before a
   missing source), then temporal containment in the source's and the
   destination's valid time, from one lookup of each endpoint. *)
let check_endpoints kb (p : Prop.t) =
  let base = Kb.base kb in
  if Prop.is_individual p then
    if Base.mem base p.id then []
    else [ missing p "destination" p.dest; missing p "source" p.source ]
  else
    let source = Base.find base p.source and dest = Base.find base p.dest in
    let referential =
      match (source, dest) with
      | Some _, Some _ -> []
      | None, Some _ -> [ missing p "source" p.source ]
      | Some _, None -> [ missing p "destination" p.dest ]
      | None, None -> [ missing p "destination" p.dest; missing p "source" p.source ]
    in
    referential @ contained p "source" p.source source @ contained p "destination" p.dest dest

let check_attribute_conformance kb (p : Prop.t) =
  if Prop.is_individual p || Axioms.is_reserved_label p.Prop.label then []
  else
    match Kb.category_of kb p.id with
    | Some cat -> (
      match Kb.find kb cat with
      | None ->
        [ violation p.id "attribute-category"
            "attribute category %s does not exist" (Symbol.name cat) ]
      | Some cls_attr ->
        if Prop.is_individual cls_attr then
          (* classified directly under a plain object (e.g. the bootstrap
             Attribute class handles this level) — accept *)
          []
        else
          let bad_source =
            if instance_ok kb ~inst:p.source ~cls:cls_attr.Prop.source then []
            else
              [
                violation p.id "attribute-conformance"
                  "source %s is not an instance of %s (required by category %s)"
                  (Symbol.name p.source)
                  (Symbol.name cls_attr.Prop.source)
                  (Symbol.name cat);
              ]
          in
          let bad_dest =
            if instance_ok kb ~inst:p.dest ~cls:cls_attr.Prop.dest then []
            else
              [
                violation p.id "attribute-conformance"
                  "destination %s is not an instance of %s (required by category %s)"
                  (Symbol.name p.dest)
                  (Symbol.name cls_attr.Prop.dest)
                  (Symbol.name cat);
              ]
          in
          bad_source @ bad_dest)
    | None -> (
      (* a category with this label is defined on one of the source's
         classes, not all of them universal: the attribute should
         instantiate it.  The class walk is the write path's own
         lookup; a second one runs only for a violation. *)
      match Kb.attribute_class kb p.source p.label with
      | Some _
        when List.exists (fun c -> not (universal c)) (Kb.all_classes_of kb p.source) ->
        [
          violation p.id "attribute-classification"
            "attribute %s of %s matches a class-level category but is not \
             classified under it"
            (Symbol.name p.Prop.label) (Symbol.name p.source);
        ]
      | Some _ | None -> [])

let check_prop kb p = check_endpoints kb p @ check_attribute_conformance kb p

(* --- isa acyclicity --------------------------------------------------- *)

let check_isa_acyclic kb =
  let g = Kbgraph.Digraph.create () in
  Base.iter (Kb.base kb) (fun (p : Prop.t) ->
      (* self-loops such as the predefined [IsA_1 = <SimpleClass, isa,
         SimpleClass>] declare the category of isa links rather than a
         specialization, so they are not edges of the isa order *)
      if
        Symbol.equal p.label Axioms.isa
        && (not (Prop.is_individual p))
        && not (Symbol.equal p.source p.dest)
      then Kbgraph.Digraph.add_edge g p.source (Symbol.intern "isa") p.dest);
  match Kbgraph.Digraph.topo_sort g with
  | Ok _ -> []
  | Error cyclic ->
    List.map
      (fun n ->
        violation n "isa-acyclicity" "class %s participates in an isa cycle"
          (Symbol.name n))
      cyclic

(* --- class constraints ------------------------------------------------ *)

let check_constraint kb (cls, cid, formula) =
  let env = Kb.formula_env kb in
  match Formula.first_violation env Term.Subst.empty formula with
  | Ok None -> []
  | Ok (Some viol) ->
    [
      violation cls "class-constraint" "constraint %s on %s: %s"
        (Symbol.name cid) (Symbol.name cls)
        (Format.asprintf "%a" Formula.pp_violation viol);
    ]
  | Error e ->
    [
      violation cls "class-constraint" "constraint %s on %s cannot be \
                                        evaluated: %s"
        (Symbol.name cid) (Symbol.name cls) e;
    ]

(* --- public entry points ---------------------------------------------- *)

let check_all kb =
  let structural =
    Base.fold (Kb.base kb) (fun acc p -> check_prop kb p @ acc) []
  in
  let cycles = check_isa_acyclic kb in
  let constraints =
    List.concat_map (check_constraint kb) (Kb.all_constraints kb)
  in
  structural @ cycles @ constraints

(* The ids one [check_delta] has enqueued: open addressing over their
   symbol codes, which a delta mints nearly consecutively, in one array
   grown at half load. *)
type seen = { mutable slots : int array; mutable used : int }

(* [k] is in [seen] from slot [i] on, or is put in the first free one:
   [true] when it was not there *)
let rec probe seen k i =
  let slots = seen.slots in
  let v = slots.(i) in
  if v = k then false
  else if v < 0 then begin
    slots.(i) <- k;
    seen.used <- seen.used + 1;
    true
  end
  else probe seen k ((i + 1) land (Array.length slots - 1))

let rec mark seen id =
  let slots = seen.slots in
  if 2 * (seen.used + 1) > Array.length slots then begin
    seen.slots <- Array.make (2 * Array.length slots) (-1);
    seen.used <- 0;
    Array.iter (fun k -> if k >= 0 then ignore (mark seen (Symbol.of_int k))) slots;
    mark seen id
  end
  else
    let k = Symbol.to_int id in
    probe seen k (k land (Array.length slots - 1))

let check_delta kb changes =
  let base = Kb.base kb in
  (* The structural re-check set: a newly ADDED proposition can only
     invalidate itself or propositions that reference it by id (temporal
     containment of links whose endpoint's valid time it defines) — its
     class-side endpoints keep their old propositions valid, because
     [instance_ok] and referential integrity are monotone under
     additions.  Expanding the endpoints of additions would re-enqueue
     the full extension of every class the delta mentions (all past
     instanceof links of a decision class, say), turning each commit
     into an O(base) scan.  REMOVALS keep the full expansion: deleting
     an object or link can break referential integrity, temporal
     containment, and conformance of anything incident to either
     endpoint.

     Each proposition is checked as it is first enqueued, against the
     state after the whole delta.  The violations come out last
     enqueued first, each proposition's in its own order. *)
  let seen = { slots = Array.make 64 (-1); used = 0 } in
  let structural = ref [] in
  let enqueue (p : Prop.t) =
    if mark seen p.id then
      match check_prop kb p with [] -> () | vs -> structural := vs @ !structural
  in
  let incident s =
    Base.iter_source base s enqueue;
    Base.iter_dest base s enqueue
  in
  let expand s =
    (match Base.find base s with Some p -> enqueue p | None -> ());
    incident s
  in
  let isa_changed = ref false in
  List.iter
    (fun change ->
      match change with
      | Base.Added p ->
        if Symbol.equal p.Prop.label Axioms.isa then isa_changed := true;
        (* [expand p.id]: the proposition now under [p.id] is enqueued
           already, as [p.id] is *)
        enqueue p;
        incident p.Prop.id
      | Base.Removed p ->
        if Symbol.equal p.Prop.label Axioms.isa then isa_changed := true;
        expand p.Prop.id;
        expand p.Prop.source;
        expand p.Prop.dest)
    changes;
  let cycles = if !isa_changed then check_isa_acyclic kb else [] in
  (* A class constraint is re-evaluated when an endpoint of a change
     (id, source or destination) is the class, one of its
     specializations or one of its instances.  Few classes carry a
     constraint, so the constrained classes are read off the
     [constraint] label chain (no link beyond the bootstrap category
     when none does) and each is tested against the endpoints, rather
     than classifying every endpoint to probe its classes.  The classes
     are folded in increasing order, each one's constraints taken from
     its own links, so the violations come out in the same order as the
     classify-every-endpoint expansion would give. *)
  let constrained = ref Symbol.Set.empty in
  Base.iter_by_label base Axioms.constraint_ (fun (p : Prop.t) ->
      if Option.is_some (Kb.constraint_formula kb p.dest) then
        constrained := Symbol.Set.add p.source !constrained);
  let affected cls =
    let reaches s =
      Symbol.equal s cls
      || List.exists (Symbol.equal cls) (Kb.isa_closure kb s)
      || Kb.is_instance kb ~inst:s ~cls
    in
    List.exists
      (fun change ->
        let p = match change with Base.Added p | Base.Removed p -> p in
        reaches p.Prop.id || reaches p.Prop.source || reaches p.Prop.dest)
      changes
  in
  let constraints =
    Symbol.Set.fold
      (fun cls acc ->
        if not (affected cls) then acc
        else
          List.fold_left
            (fun acc (p : Prop.t) ->
              if Symbol.equal p.Prop.label Axioms.constraint_ then
                match Kb.constraint_formula kb p.Prop.dest with
                | Some f -> check_constraint kb (cls, p.Prop.dest, f) @ acc
                | None -> acc
              else acc)
            acc (Base.by_source base cls))
      !constrained []
  in
  !structural @ cycles @ constraints
