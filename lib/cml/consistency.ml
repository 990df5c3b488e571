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

let check_referential kb (p : Prop.t) =
  let missing which id =
    violation p.id "referential-integrity" "%s %s of %s does not exist" which
      (Symbol.name id) (Symbol.name p.id)
  in
  let base = Kb.base kb in
  let acc = [] in
  let acc = if Base.mem base p.source then acc else missing "source" p.source :: acc in
  let acc = if Base.mem base p.dest then acc else missing "destination" p.dest :: acc in
  acc

let check_temporal kb (p : Prop.t) =
  if Prop.is_individual p then []
  else
    let base = Kb.base kb in
    let contained which id =
      match Base.find base id with
      | Some endpoint ->
        if Time.during p.time endpoint.Prop.time then []
        else
          [
            violation p.id "temporal-containment"
              "valid time %s of %s exceeds %s %s's valid time %s"
              (Time.to_string p.time) (Symbol.name p.id) which (Symbol.name id)
              (Time.to_string endpoint.Prop.time);
          ]
      | None -> []
    in
    contained "source" p.source @ contained "destination" p.dest

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
    | None ->
      (* a category with this label is defined on the source's classes:
         the attribute should instantiate it *)
      (match
         List.find_opt
           (fun c -> not (universal c))
           (Kb.all_classes_of kb p.source)
       with
      | Some _ -> (
        let defined =
          List.exists
            (fun c ->
              List.exists
                (fun (q : Prop.t) ->
                  (not (Prop.is_individual q))
                  && (not (Axioms.is_reserved_label q.Prop.label))
                  && Symbol.equal q.Prop.label p.Prop.label)
                (Base.by_source (Kb.base kb) c))
            (Kb.all_classes_of kb p.source)
        in
        if defined then
          [
            violation p.id "attribute-classification"
              "attribute %s of %s matches a class-level category but is not \
               classified under it"
              (Symbol.name p.Prop.label) (Symbol.name p.source);
          ]
        else [])
      | None -> [])

let check_prop kb p =
  check_referential kb p @ check_temporal kb p
  @ check_attribute_conformance kb p

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
     endpoint. *)
  let isa_changed = ref false in
  let props_to_check = ref [] in
  let seen = ref Symbol.Set.empty in
  let enqueue (p : Prop.t) =
    if not (Symbol.Set.mem p.id !seen) then begin
      seen := Symbol.Set.add p.id !seen;
      props_to_check := p :: !props_to_check
    end
  in
  let expand s =
    (match Base.find base s with Some p -> enqueue p | None -> ());
    List.iter enqueue (Base.by_source base s);
    List.iter enqueue (Base.by_dest base s)
  in
  List.iter
    (fun change ->
      let p =
        match change with Base.Added p -> p | Base.Removed p -> p
      in
      if Symbol.equal p.Prop.label Axioms.isa then isa_changed := true;
      match change with
      | Base.Added p -> enqueue p; expand p.Prop.id
      | Base.Removed p ->
        expand p.Prop.id;
        expand p.Prop.source;
        expand p.Prop.dest)
    changes;
  let structural =
    List.concat_map (fun p -> check_prop kb p) !props_to_check
  in
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
  structural @ cycles @ constraints
