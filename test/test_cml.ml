open Kernel
module Kb = Cml.Kb
module Op = Cml.Object_processor
module Cons = Cml.Consistency
module Model = Cml.Model
module Display = Cml.Display
module Term = Logic.Term
module Formula = Logic.Formula

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let sym = Symbol.intern

open Helpers

let names ids = List.sort String.compare (List.map Symbol.name ids)

(* The running example of the paper: a document model. *)
let document_kb () =
  let kb = Kb.create () in
  List.iter
    (fun n -> ignore (ok (Kb.declare kb n)))
    [ "TDL_EntityClass"; "Document"; "Paper"; "Invitation"; "Minutes";
      "Person" ];
  List.iter
    (fun i -> ignore (ok (Kb.add_instanceof kb ~inst:i ~cls:"TDL_EntityClass")))
    [ "Document"; "Paper"; "Invitation"; "Minutes" ];
  ignore (ok (Kb.add_isa kb ~sub:"Paper" ~super:"Document"));
  ignore (ok (Kb.add_isa kb ~sub:"Invitation" ~super:"Paper"));
  ignore (ok (Kb.add_isa kb ~sub:"Minutes" ~super:"Paper"));
  ignore
    (ok (Kb.add_attribute kb ~source:"Invitation" ~label:"sender" ~dest:"Person"));
  kb

let test_bootstrap () =
  let kb = Kb.create () in
  check bool "PROPOSITION exists" true (Kb.exists kb "PROPOSITION");
  check bool "CLASS exists" true (Kb.exists kb "CLASS");
  check bool "CLASS is self-instance" true
    (List.exists (Symbol.equal (sym "CLASS")) (Kb.classes_of kb (sym "CLASS")));
  check bool "bootstrap consistent" true (Cons.check_all kb = [])

let test_declare_idempotent () =
  let kb = Kb.create () in
  let a = ok (Kb.declare kb "Invitation") in
  let b = ok (Kb.declare kb "Invitation") in
  check bool "same id" true (Symbol.equal a b)

let test_instanceof_requires_endpoints () =
  let kb = Kb.create () in
  match Kb.add_instanceof kb ~inst:"ghost" ~cls:"CLASS" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "dangling instanceof accepted"

let test_classification () =
  let kb = document_kb () in
  check Alcotest.(list string) "classes of Invitation" [ "TDL_EntityClass" ]
    (names (Kb.classes_of kb (sym "Invitation")));
  check Alcotest.(list string) "direct instances"
    [ "Document"; "Invitation"; "Minutes"; "Paper" ]
    (names (Kb.instances_of kb (sym "TDL_EntityClass")));
  check bool "is_instance via class" true
    (Kb.is_instance kb ~inst:(sym "Invitation") ~cls:(sym "TDL_EntityClass"))

let test_specialization () =
  let kb = document_kb () in
  check Alcotest.(list string) "supers of Invitation" [ "Paper" ]
    (names (Kb.isa_supers kb (sym "Invitation")));
  check Alcotest.(list string) "isa closure"
    [ "Document"; "Paper" ]
    (names (Kb.isa_closure kb (sym "Invitation")))

let test_isa_cycle_rejected () =
  let kb = document_kb () in
  match Kb.add_isa kb ~sub:"Document" ~super:"Invitation" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "isa cycle accepted"

let test_isa_self_rejected () =
  let kb = document_kb () in
  match Kb.add_isa kb ~sub:"Paper" ~super:"Paper" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reflexive isa accepted"

let test_all_instances_through_subclasses () =
  let kb = document_kb () in
  ignore (ok (Kb.declare kb "inv1"));
  ignore (ok (Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  check Alcotest.(list string) "instances of Paper include inv1" [ "inv1" ]
    (names (Kb.all_instances_of kb (sym "Paper")));
  check bool "inv1 is a Document" true
    (Kb.is_instance kb ~inst:(sym "inv1") ~cls:(sym "Document"))

let test_attributes () =
  let kb = document_kb () in
  let attrs = Kb.attributes kb (sym "Invitation") in
  check int "one attribute" 1 (List.length attrs);
  check Alcotest.(list string) "attribute values" [ "Person" ]
    (names (Kb.attribute_values kb (sym "Invitation") "sender"))

let test_attribute_reserved_label_rejected () =
  let kb = document_kb () in
  match Kb.add_attribute kb ~source:"Invitation" ~label:"isa" ~dest:"Paper" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "reserved label accepted as attribute"

let test_attribute_instantiation_principle () =
  (* instance-level attribute classified under the class-level category *)
  let kb = document_kb () in
  ignore (ok (Kb.declare kb "inv1"));
  ignore (ok (Kb.declare kb "jarke"));
  ignore (ok (Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  ignore (ok (Kb.add_instanceof kb ~inst:"jarke" ~cls:"Person"));
  let p =
    ok
      (Kb.add_attribute kb ~category:"sender" ~source:"inv1" ~label:"sender"
         ~dest:"jarke")
  in
  match Kb.category_of kb p.Prop.id with
  | Some cat -> (
    match Kb.find kb cat with
    | Some cp ->
      check bool "category is the class-level sender attribute" true
        (Symbol.equal cp.Prop.source (sym "Invitation")
        && Symbol.equal cp.Prop.label (sym "sender"))
    | None -> Alcotest.fail "category object missing")
  | None -> Alcotest.fail "attribute not classified"

let test_attributes_by_category () =
  let kb = document_kb () in
  ignore (ok (Kb.declare kb "inv1"));
  ignore (ok (Kb.declare kb "jarke"));
  ignore (ok (Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  ignore
    (ok
       (Kb.add_attribute kb ~category:"sender" ~source:"inv1" ~label:"sender"
          ~dest:"jarke"));
  check int "by category" 1
    (List.length (Kb.attributes kb ~category:"sender" (sym "inv1")))

(* deduction ------------------------------------------------------------- *)

let test_deductive_view_inheritance () =
  let kb = document_kb () in
  ignore (ok (Kb.declare kb "inv1"));
  ignore (ok (Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  let substs =
    ok (Kb.derive kb (Term.atom "in" [ Term.sym "inv1"; Term.var "C" ]))
  in
  let classes =
    List.sort_uniq compare
      (List.map
         (fun s -> Format.asprintf "%a" Term.pp (Term.Subst.apply s (Term.var "C")))
         substs)
  in
  check Alcotest.(list string) "deduced classification"
    [ "Document"; "Invitation"; "Paper" ]
    classes

let test_user_rule () =
  let kb = document_kb () in
  ignore (ok (Kb.declare kb "inv1"));
  ignore (ok (Kb.declare kb "jarke"));
  ignore (ok (Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  ignore
    (ok (Kb.add_attribute kb ~source:"inv1" ~label:"sender" ~dest:"jarke"));
  ok
    (Kb.add_rule kb ~name:"SenderRule"
       (Term.clause
          (Term.atom "sends" [ Term.var "P"; Term.var "I" ])
          [ Term.Pos (Term.atom "attr" [ Term.var "I"; Term.sym "sender"; Term.var "P" ]) ]));
  let substs =
    ok (Kb.derive kb (Term.atom "sends" [ Term.var "P"; Term.sym "inv1" ]))
  in
  check int "one sender deduced" 1 (List.length substs);
  check bool "rule object recorded" true (Kb.exists kb "SenderRule")

let test_ask_formula () =
  let kb = document_kb () in
  ignore (ok (Kb.declare kb "inv1"));
  ignore (ok (Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  check bool "every Paper instance is a Document instance" true
    (ok
       (Kb.ask kb
          (Formula.Forall
             ("x", sym "Paper",
              Formula.Atom (Term.atom "in" [ Term.var "x"; Term.sym "Document" ])))));
  check bool "no Minutes instances yet" false
    (ok
       (Kb.ask kb
          (Formula.Exists
             ("x", sym "Minutes",
              Formula.Atom (Term.atom "in" [ Term.var "x"; Term.sym "Paper" ])))))

(* behaviours ------------------------------------------------------------ *)

let test_behaviours () =
  let kb = document_kb () in
  ignore (ok (Kb.declare kb "inv1"));
  ignore (ok (Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  let log = ref [] in
  ok
    (Kb.add_behaviour kb ~cls:"Paper" ~event:"display" (fun _kb obj ->
         log := Symbol.name obj :: !log));
  let ran = ok (Kb.trigger kb (sym "inv1") "display") in
  check int "inherited behaviour ran" 1 ran;
  check Alcotest.(list string) "behaviour saw the object" [ "inv1" ] !log;
  let ran2 = ok (Kb.trigger kb (sym "inv1") "create") in
  check int "no such event" 0 ran2

(* object processor ------------------------------------------------------ *)

let test_frame_store_retrieve_roundtrip () =
  let kb = document_kb () in
  let f =
    Op.frame ~classes:[ "TDL_EntityClass" ] ~supers:[ "Paper" ]
      ~attrs:[ ("receivers", "Person"); ("venue", "Place") ]
      "Workshop"
  in
  let id = ok (Op.store kb f) in
  let g = ok (Op.retrieve kb id) in
  check bool "roundtrip equal" true (Op.equal_modulo_order f g);
  check bool "consistent" true (Cons.check_all kb = [])

let test_frame_store_idempotent () =
  let kb = document_kb () in
  let f =
    Op.frame ~classes:[ "TDL_EntityClass" ] ~attrs:[ ("a", "Person") ] "X"
  in
  ignore (ok (Op.store kb f));
  let before = Store.Base.cardinal (Kb.base kb) in
  ignore (ok (Op.store kb f));
  check int "no duplicates" before (Store.Base.cardinal (Kb.base kb))

let test_frame_pp () =
  let f =
    Op.frame ~classes:[ "TDL_EntityClass" ] ~supers:[ "Paper" ]
      ~attrs:[ ("sender", "Person") ]
      "Invitation"
  in
  let text = Format.asprintf "%a" Op.pp f in
  check bool "header" true
    (contains "Class Invitation in TDL_EntityClass isA Paper with" text);
  check bool "attribute line" true (contains "sender : Person" text);
  check bool "end" true (contains "end" text)

let test_paper_fig_3_2 () =
  (* the Invitation example of fig 3-2: the frame expands to an
     individual, an instanceof link, and a classified attribute *)
  let kb = Kb.create () in
  ignore (ok (Kb.declare kb "TDL_EntityClass"));
  ignore (ok (Kb.declare kb "Person"));
  let f =
    Op.frame ~classes:[ "TDL_EntityClass" ] ~attrs:[ ("sender", "Person") ]
      "Invitation"
  in
  let id = ok (Op.store kb f) in
  let props = Store.Base.by_source (Kb.base kb) id in
  (* individual + instanceof + attribute *)
  check int "three propositions from Invitation" 3 (List.length props);
  check bool "instanceof present" true
    (List.exists
       (fun (p : Prop.t) ->
         Symbol.equal p.label (sym "instanceof")
         && Symbol.equal p.dest (sym "TDL_EntityClass"))
       props);
  check bool "attribute present" true
    (List.exists
       (fun (p : Prop.t) ->
         Symbol.equal p.label (sym "sender") && Symbol.equal p.dest (sym "Person"))
       props)

(* consistency ------------------------------------------------------------ *)

let test_consistency_clean () =
  let kb = document_kb () in
  check Alcotest.(list string) "no violations" []
    (List.map (fun v -> v.Cons.rule) (Cons.check_all kb))

let test_consistency_dangling_reference () =
  let kb = document_kb () in
  (* bypass the axiom checks by inserting directly into the base *)
  let p =
    Prop.make ~id:(Prop.fresh_id ()) ~source:(sym "Invitation")
      ~label:(sym "about") ~dest:(sym "NoSuchThing") ()
  in
  ignore (Store.Base.insert (Kb.base kb) p);
  let rules = List.map (fun v -> v.Cons.rule) (Cons.check_all kb) in
  check bool "referential violation found" true
    (List.mem "referential-integrity" rules)

let test_consistency_attribute_conformance () =
  let kb = document_kb () in
  ignore (ok (Kb.declare kb "inv1"));
  ignore (ok (Kb.declare kb "notAPerson"));
  ignore (ok (Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  (* classify the attribute under the sender category although the target
     is not a Person *)
  let p =
    ok
      (Kb.add_attribute kb ~category:"sender" ~source:"inv1" ~label:"sender"
         ~dest:"notAPerson")
  in
  ignore p;
  let rules = List.map (fun v -> v.Cons.rule) (Cons.check_all kb) in
  check bool "conformance violation" true (List.mem "attribute-conformance" rules)

let test_consistency_unclassified_attribute () =
  let kb = document_kb () in
  ignore (ok (Kb.declare kb "inv1"));
  ignore (ok (Kb.declare kb "jarke"));
  ignore (ok (Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  (* raw insert of a sender attribute with no instanceof link *)
  let p =
    Prop.make ~id:(Prop.fresh_id ()) ~source:(sym "inv1") ~label:(sym "sender")
      ~dest:(sym "jarke") ()
  in
  ignore (Store.Base.insert (Kb.base kb) p);
  let rules = List.map (fun v -> v.Cons.rule) (Cons.check_all kb) in
  check bool "classification violation" true
    (List.mem "attribute-classification" rules)

let test_consistency_temporal () =
  let kb = Kb.create () in
  ignore (ok (Kb.declare ~time:(Time.between 0 5) kb "shortLived"));
  ignore (ok (Kb.declare kb "Other"));
  ignore
    (ok
       (Kb.add_attribute ~time:(Time.between 3 9) kb ~source:"shortLived"
          ~label:"ref" ~dest:"Other"));
  let rules = List.map (fun v -> v.Cons.rule) (Cons.check_all kb) in
  check bool "temporal violation" true (List.mem "temporal-containment" rules)

let test_consistency_class_constraint () =
  let kb = document_kb () in
  ok
    (Kb.add_constraint kb ~name:"InvitationHasSender" ~cls:"Invitation"
       (Formula.Forall
          ("i", sym "Invitation",
           Formula.Exists
             ("p", sym "Person",
              Formula.Atom
                (Term.atom "attr" [ Term.var "i"; Term.sym "sender"; Term.var "p" ])))));
  check bool "vacuously satisfied" true
    (List.for_all
       (fun v -> v.Cons.rule <> "class-constraint")
       (Cons.check_all kb));
  ignore (ok (Kb.declare kb "inv1"));
  ignore (ok (Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  let rules = List.map (fun v -> v.Cons.rule) (Cons.check_all kb) in
  check bool "violated once an instance lacks a sender" true
    (List.mem "class-constraint" rules);
  ignore (ok (Kb.declare kb "jarke"));
  ignore (ok (Kb.add_instanceof kb ~inst:"jarke" ~cls:"Person"));
  ignore
    (ok (Kb.add_attribute kb ~source:"inv1" ~label:"sender" ~dest:"jarke"));
  check bool "satisfied after repair" true
    (List.for_all
       (fun v -> v.Cons.rule <> "class-constraint")
       (Cons.check_all kb))

(* the changes on the KB's base from now on, in order, for
   [Cons.check_delta] *)
let record_changes kb =
  let changes = ref [] in
  ignore
    (Store.Base.on_change (Kb.base kb) (fun c -> changes := c :: !changes)
      : Store.Base.subscription);
  fun () -> List.rev !changes

let test_consistency_incremental_agrees () =
  let kb = document_kb () in
  let drain = record_changes kb in
  ignore (ok (Kb.declare kb "inv1"));
  ignore (ok (Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  let p =
    Prop.make ~id:(Prop.fresh_id ()) ~source:(sym "inv1") ~label:(sym "sender")
      ~dest:(sym "jarkeX") ()
  in
  ignore (Store.Base.insert (Kb.base kb) p);
  let delta = drain () in
  let inc = List.map (fun v -> v.Cons.rule) (Cons.check_delta kb delta) in
  let full = List.map (fun v -> v.Cons.rule) (Cons.check_all kb) in
  check bool "incremental finds the dangling reference" true
    (List.mem "referential-integrity" inc);
  check bool "incremental subset of full" true
    (List.for_all (fun r -> List.mem r full) inc)

let test_consistency_incremental_empty_delta () =
  let kb = document_kb () in
  check Alcotest.(list string) "empty delta, no violations" []
    (List.map (fun v -> v.Cons.rule) (Cons.check_delta kb []))

(* class-constraint lookup: differential against the per-endpoint
   expansion ------------------------------------------------------------ *)

(* [Consistency.check_delta] as it stood before its rewrite without
   intermediate sets and lists, kept verbatim (its [check_all] and
   printer left out): the reference the rewrite must match violation
   for violation, in order. *)
module Reference_check = struct
  module Base = Store.Base
  module Axioms = Cml.Axioms

  type violation = Cons.violation = { subject : Prop.id; rule : string; message : string }

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
end


(* The reference: the lookup [check_delta] replaced, kept as it was.  It
   classifies every endpoint of every change (its classes, its
   generalizations) and probes each class found for its own
   [constraint] links. *)
let reference_check_constraint kb (cls, cid, formula) =
  let violation message =
    { Cons.subject = cls; rule = "class-constraint"; message }
  in
  match Formula.first_violation (Kb.formula_env kb) Term.Subst.empty formula with
  | Ok None -> []
  | Ok (Some viol) ->
    [
      violation
        (Format.asprintf "constraint %s on %s: %a" (Symbol.name cid)
           (Symbol.name cls) Formula.pp_violation viol);
    ]
  | Error e ->
    [
      violation
        (Printf.sprintf "constraint %s on %s cannot be evaluated: %s"
           (Symbol.name cid) (Symbol.name cls) e);
    ]

let reference_constraint_violations kb changes =
  let base = Kb.base kb in
  let touched = ref Symbol.Set.empty in
  let add_sym s = touched := Symbol.Set.add s !touched in
  List.iter
    (fun change ->
      let p =
        match change with Store.Base.Added p -> p | Store.Base.Removed p -> p
      in
      add_sym p.Prop.id;
      add_sym p.Prop.source;
      add_sym p.Prop.dest)
    changes;
  (* constraints of classes related to any touched object *)
  let affected_classes =
    Symbol.Set.fold
      (fun s acc ->
        let classes = Kb.all_classes_of kb s in
        let with_subs =
          List.concat_map
            (fun c -> c :: Kb.isa_closure kb c)
            (s :: classes)
        in
        List.fold_left (fun acc c -> Symbol.Set.add c acc) acc with_subs)
      !touched Symbol.Set.empty
  in
  Symbol.Set.fold
    (fun cls acc ->
      List.fold_left
        (fun acc (p : Prop.t) ->
          if Symbol.equal p.Prop.label Cml.Axioms.constraint_ then
            match Kb.constraint_formula kb p.Prop.dest with
            | Some f -> reference_check_constraint kb (cls, p.Prop.dest, f) @ acc
            | None -> acc
          else acc)
        acc
        (Store.Base.by_source base cls))
    affected_classes []

(* A script over eight objects that play class and instance alike. *)
type kb_op =
  | Isa of int * int  (** skipped when it would close a cycle *)
  | Inst of int * int
  | Ref of int * int  (** a [qcref] attribute *)
  | Define of int * int  (** a [qcattr] attribute class on the first *)
  | Raw of int * int  (** a [qcattr] link, left unclassified *)
  | Classified of int * int  (** a [qcattr] attribute, classified if it can be *)
  | Constrain of int * int * int  (** formula kind, class, other object *)
  | Unlink of int  (** remove one of the script's links still present *)
  | Readd of int * int
      (** remove one of the script's links and add its id back, pointing
          at the second object (or where it pointed, when that is
          refused) *)

let pp_kb_op = function
  | Isa (a, b) -> Printf.sprintf "Isa(%d,%d)" a b
  | Inst (a, b) -> Printf.sprintf "Inst(%d,%d)" a b
  | Ref (a, b) -> Printf.sprintf "Ref(%d,%d)" a b
  | Define (a, b) -> Printf.sprintf "Define(%d,%d)" a b
  | Raw (a, b) -> Printf.sprintf "Raw(%d,%d)" a b
  | Classified (a, b) -> Printf.sprintf "Classified(%d,%d)" a b
  | Constrain (k, a, b) -> Printf.sprintf "Constrain(%d,%d,%d)" k a b
  | Unlink k -> Printf.sprintf "Unlink(%d)" k
  | Readd (k, d) -> Printf.sprintf "Readd(%d,%d)" k d

let qc_obj i = Printf.sprintf "qco%d" i

(* Formulas that fail on reachable states: every instance of [c] refers
   to an instance of [d]; every instance of [c] is one of [d]; [c] has
   no instance. *)
let qc_formula k c d =
  let c = sym (qc_obj c) and d = sym (qc_obj d) in
  let atom pred args = Formula.Atom (Term.atom pred args) in
  match k with
  | 0 ->
    Formula.Forall
      ( "x", c,
        Formula.Exists
          ("y", d, atom "attr" [ Term.var "x"; Term.sym "qcref"; Term.var "y" ]) )
  | 1 -> Formula.Forall ("x", c, atom "in" [ Term.var "x"; Term.Sym d ])
  | _ -> Formula.Not (Formula.Exists ("x", c, Formula.True))

let apply_kb_op kb links n_constraints op =
  let linked = function
    | Ok (p : Prop.t) -> links := p.id :: !links
    | Error _ -> ()
  in
  let live () = List.filter (fun id -> Store.Base.mem (Kb.base kb) id) !links in
  match op with
  | Isa (a, b) -> linked (Kb.add_isa kb ~sub:(qc_obj a) ~super:(qc_obj b))
  | Inst (a, b) -> linked (Kb.add_instanceof kb ~inst:(qc_obj a) ~cls:(qc_obj b))
  | Ref (a, b) ->
    linked (Kb.add_attribute kb ~source:(qc_obj a) ~label:"qcref" ~dest:(qc_obj b))
  | Define (a, b) | Classified (a, b) ->
    linked (Kb.add_attribute kb ~source:(qc_obj a) ~label:"qcattr" ~dest:(qc_obj b))
  | Raw (a, b) -> linked (Kb.link kb (sym (qc_obj a)) (sym "qcattr") (sym (qc_obj b)))
  | Readd (k, d) -> (
    match live () with
    | [] -> ()
    | ids -> (
      match Kb.remove_proposition kb (List.nth ids (k mod List.length ids)) with
      | Error _ -> ()
      | Ok p -> (
        match Kb.create_proposition kb { p with Prop.dest = sym (qc_obj d) } with
        | Ok () -> ()
        | Error _ -> ignore (Kb.create_proposition kb p))))
  | Constrain (k, a, b) ->
    incr n_constraints;
    ok
      (Kb.add_constraint kb
         ~name:(Printf.sprintf "qck%d" !n_constraints)
         ~cls:(qc_obj a) (qc_formula k a b))
  | Unlink k -> (
    match live () with
    | [] -> ()
    | live ->
      ignore (Kb.remove_proposition kb (List.nth live (k mod List.length live))))

let gen_kb_op =
  QCheck.Gen.(
    let obj = int_bound 7 in
    frequency
      [
        (2, map2 (fun a b -> Isa (a, b)) obj obj);
        (3, map2 (fun a b -> Inst (a, b)) obj obj);
        (3, map2 (fun a b -> Ref (a, b)) obj obj);
        (2, map2 (fun a b -> Define (a, b)) obj obj);
        (2, map2 (fun a b -> Raw (a, b)) obj obj);
        (2, map2 (fun a b -> Classified (a, b)) obj obj);
        (1, map3 (fun k a b -> Constrain (k, a, b)) (int_bound 2) obj obj);
        (2, map (fun k -> Unlink k) (int_bound 15));
        (2, map2 (fun k d -> Readd (k, d)) (int_bound 15) obj);
      ])

let gen_constrained_script =
  QCheck.Gen.(
    triple
      (list_size (int_range 0 14) gen_kb_op)
      (list_size (int_range 0 3)
         (map3
            (fun k a b -> Constrain (k, a, b))
            (int_bound 2) (int_bound 7) (int_bound 7)))
      (list_size (int_range 1 6) gen_kb_op))

(* On random class lattices, instances, attributes (unclassified ones,
   ones under an attribute class, and ids removed and added back within
   the delta) and 0-3 constraints, [check_delta] reports every
   violation the reference reports, structural, isa-cycle and
   constraint, in the same order; and it re-evaluates exactly the
   constraints the per-endpoint expansion selects. *)
let prop_constraint_lookup_matches_expansion =
  QCheck.Test.make ~name:"consistency constraint lookup = per-endpoint expansion"
    ~count:600
    (QCheck.make gen_constrained_script
       ~print:(fun (setup, constraints, delta) ->
         let ops l = String.concat " " (List.map pp_kb_op l) in
         Printf.sprintf "setup: %s\nconstraints: %s\ndelta: %s" (ops setup)
           (ops constraints) (ops delta)))
    (fun (setup, constraints, delta) ->
      let kb = Kb.create () in
      for i = 0 to 7 do
        ignore (ok (Kb.declare kb (qc_obj i)))
      done;
      let links = ref [] and n_constraints = ref 0 in
      List.iter (apply_kb_op kb links n_constraints) (setup @ constraints);
      let drain = record_changes kb in
      List.iter (apply_kb_op kb links n_constraints) delta;
      let changes = drain () in
      let all = Cons.check_delta kb changes in
      let reference = Reference_check.check_delta kb changes in
      if all <> reference then
        QCheck.Test.fail_reportf "check_delta, expected:@.%a@.got:@.%a"
          (Format.pp_print_list Cons.pp_violation) reference
          (Format.pp_print_list Cons.pp_violation) all;
      let actual = List.filter (fun v -> v.Cons.rule = "class-constraint") all in
      let expected = reference_constraint_violations kb changes in
      if actual <> expected then
        QCheck.Test.fail_reportf "constraints, expected:@.%a@.got:@.%a"
          (Format.pp_print_list Cons.pp_violation) expected
          (Format.pp_print_list Cons.pp_violation) actual;
      true)

(* model configuration ----------------------------------------------------- *)

let test_model_basics () =
  let kb = document_kb () in
  let mb = Model.create kb in
  ok (Model.define mb "world");
  ok (Model.define mb "system");
  (match Model.define mb "world" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate model accepted");
  ok (Model.add_object mb ~model:"world" (sym "Document"));
  ok (Model.add_object mb ~model:"system" (sym "Invitation"));
  check Alcotest.(list string) "models" [ "system"; "world" ] (Model.models mb)

let test_model_includes_and_sharing () =
  let kb = document_kb () in
  let mb = Model.create kb in
  ok (Model.define mb "base");
  ok (Model.define mb "design");
  ok (Model.add_object mb ~model:"base" (sym "Document"));
  ok (Model.add_object mb ~model:"design" (sym "Invitation"));
  ok (Model.include_model mb ~model:"design" ~included:"base");
  let objs = ok (Model.objects mb "design") in
  check Alcotest.(list string) "transitive objects"
    [ "Document"; "Invitation" ]
    (names (Symbol.Set.elements objs));
  (match Model.include_model mb ~model:"base" ~included:"design" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "lattice cycle accepted");
  match Model.sharing mb with
  | sharing ->
    let design_sharers = List.assoc "design" sharing in
    check Alcotest.(list string) "sharing detected" [ "base" ] design_sharers

let test_model_configure_project () =
  let kb = document_kb () in
  let mb = Model.create kb in
  ok (Model.define mb "docs");
  List.iter
    (fun n -> ok (Model.add_object mb ~model:"docs" (sym n)))
    [ "Document"; "Paper"; "Invitation" ];
  ok (Model.configure mb [ "docs" ]);
  check bool "active" true (Model.is_active mb (sym "Paper"));
  check bool "inactive" false (Model.is_active mb (sym "Minutes"));
  let projected = ok (Model.project mb) in
  (* individuals Document, Paper, Invitation + isa links between them *)
  check int "projection size" 5 (Store.Base.cardinal projected);
  check bool "link kept" true
    (List.exists
       (fun (p : Prop.t) -> Symbol.equal p.dest (sym "Paper"))
       (Store.Base.by_source projected (sym "Invitation")))

(* closure caches ----------------------------------------------------------- *)

let test_closure_cache_hits () =
  let kb = document_kb () in
  ignore (Kb.all_classes_of kb (sym "Invitation"));
  let before = (Kb.cache_stats kb).Kb.hits in
  ignore (Kb.all_classes_of kb (sym "Invitation"));
  ignore (Kb.isa_closure kb (sym "Invitation"));
  ignore (Kb.isa_closure kb (sym "Invitation"));
  check bool "steady-state queries are cache hits" true
    ((Kb.cache_stats kb).Kb.hits > before)

let test_closure_cache_invalidation () =
  let kb = document_kb () in
  (* warm every cache *)
  check Alcotest.(list string) "closure before"
    [ "Document"; "Paper" ]
    (names (Kb.isa_closure kb (sym "Invitation")));
  ignore (Kb.all_instances_of kb (sym "Document"));
  (* grow the hierarchy above Document: cached closures must follow *)
  ignore (ok (Kb.declare kb "Artifact"));
  ignore (ok (Kb.add_isa kb ~sub:"Document" ~super:"Artifact"));
  check Alcotest.(list string) "closure sees new super"
    [ "Artifact"; "Document"; "Paper" ]
    (names (Kb.isa_closure kb (sym "Invitation")));
  check Alcotest.(list string) "instances inherited up"
    (names (Kb.all_instances_of kb (sym "Document")))
    (names (Kb.all_instances_of kb (sym "Artifact")));
  (* retract the new edge again *)
  let link =
    List.find
      (fun (p : Prop.t) -> Symbol.equal p.dest (sym "Artifact"))
      (Store.Base.by_source_label (Kb.base kb) (sym "Document") (sym "isa"))
  in
  ignore (ok (Kb.remove_proposition kb link.Prop.id));
  check Alcotest.(list string) "closure shrinks after removal"
    [ "Document"; "Paper" ]
    (names (Kb.isa_closure kb (sym "Invitation")));
  check bool "entries were invalidated" true
    ((Kb.cache_stats kb).Kb.invalidations > 0)

let test_closure_cache_instanceof_invalidation () =
  let kb = document_kb () in
  ignore (ok (Kb.declare kb "doc1"));
  ignore (Kb.all_classes_of kb (sym "doc1"));
  ignore (Kb.all_instances_of kb (sym "Document"));
  ignore (ok (Kb.add_instanceof kb ~inst:"doc1" ~cls:"Invitation"));
  check bool "new class visible through inheritance" true
    (Kb.is_instance kb ~inst:(sym "doc1") ~cls:(sym "Document"));
  check bool "instance listed transitively" true
    (List.exists (Symbol.equal (sym "doc1"))
       (Kb.all_instances_of kb (sym "Document")))

(* a name interned before the set's members, as a version name that a
   retraction freed and the next edit reuses: the set takes it in *)
let test_closure_cache_keeps_set_on_older_name () =
  let kb = document_kb () in
  let early = sym "MemoEarlyDoc" in
  List.iter
    (fun (inst, cls) ->
      ignore (ok (Kb.declare kb inst));
      ignore (ok (Kb.add_instanceof kb ~inst ~cls)))
    [ ("MemoLateDoc1", "Invitation"); ("MemoLateDoc2", "Minutes") ];
  let document = sym "Document" in
  ignore (Kb.all_instances_of kb document);
  let misses = (Kb.cache_stats kb).Kb.misses in
  ignore (ok (Kb.declare kb "MemoEarlyDoc"));
  ignore (ok (Kb.add_instanceof kb ~inst:"MemoEarlyDoc" ~cls:"Paper"));
  (* a second class for a member: taken in once *)
  ignore (ok (Kb.add_instanceof kb ~inst:"MemoLateDoc1" ~cls:"Paper"));
  let members = Kb.all_instances_of kb document in
  check int "the set was kept" misses (Kb.cache_stats kb).Kb.misses;
  let scratch =
    List.sort_uniq Symbol.compare
      (List.concat_map (Kb.instances_of kb)
         (List.map sym [ "Document"; "Paper"; "Invitation"; "Minutes" ]))
  in
  check Alcotest.(list string) "equal to a from-scratch computation"
    (List.map Symbol.name scratch) (List.map Symbol.name members);
  check bool "the older name is in" true (List.exists (Symbol.equal early) members)

(* a set nobody reads stops growing: it takes in as many new instances
   as it has members, and is dropped at the next one *)
let test_closure_cache_bounds_unread_set () =
  let kb = document_kb () in
  let add_doc name cls =
    ignore (ok (Kb.declare kb name));
    ignore (ok (Kb.add_instanceof kb ~inst:name ~cls))
  in
  add_doc "BoundDoc" "Invitation";
  add_doc "BoundMinutes" "Minutes";
  let document = sym "Document" in
  let members = List.length (Kb.all_instances_of kb document) in
  let invalidations () = (Kb.cache_stats kb).Kb.invalidations in
  let before = invalidations () in
  for i = 1 to members do
    add_doc (Printf.sprintf "BoundNew%d" i) "Paper"
  done;
  check int "as many pending as members: kept" before (invalidations ());
  add_doc "BoundOneMore" "Minutes";
  check int "one more: dropped" (before + 1) (invalidations ());
  check bool "gone from the memos" false
    (List.mem_assoc document (Kb.instance_memos kb));
  let scratch =
    List.sort_uniq Symbol.compare
      (List.concat_map (Kb.instances_of kb)
         (List.map sym [ "Document"; "Paper"; "Invitation"; "Minutes" ]))
  in
  check Alcotest.(list string) "the next read equals a from-scratch computation"
    (List.map Symbol.name scratch)
    (List.map Symbol.name (Kb.all_instances_of kb document))

let test_closure_cache_rollback () =
  let kb = document_kb () in
  let base = Kb.base kb in
  let before = names (Kb.isa_closure kb (sym "Invitation")) in
  let r : (unit, string) result =
    Store.Base.with_tx base (fun () ->
        ignore (ok (Kb.declare kb "Artifact"));
        ignore (ok (Kb.add_isa kb ~sub:"Document" ~super:"Artifact"));
        (* query inside the transaction so the cache picks up the edge *)
        check bool "closure inside tx sees Artifact" true
          (List.exists (Symbol.equal (sym "Artifact"))
             (Kb.isa_closure kb (sym "Invitation")));
        Error "abort")
  in
  (match r with Error "abort" -> () | _ -> Alcotest.fail "tx not aborted");
  check Alcotest.(list string) "rollback replay restored the cache" before
    (names (Kb.isa_closure kb (sym "Invitation")))

(* display ------------------------------------------------------------------ *)

let test_text_dag_browser () =
  let kb = document_kb () in
  let out =
    Format.asprintf "%a"
      (Display.text_dag_browser ~max_depth:4
         ~labels:[ sym "isa" ] kb)
      (sym "Invitation")
  in
  check bool "chain rendered" true (contains "--isa--> Paper" out);
  check bool "document reached" true (contains "--isa--> Document" out)

let test_relational_display () =
  let kb = document_kb () in
  let out = Format.asprintf "%a" (Display.relational_display kb) (sym "Invitation") in
  check bool "object header" true (contains "object: Invitation" out);
  check bool "attribute row" true (contains "sender" out);
  check bool "class row" true (contains "TDL_EntityClass" out)

let test_proposition_table () =
  let kb = document_kb () in
  let out = Format.asprintf "%a" (Display.proposition_table kb) (sym "Invitation") in
  check bool "quadruple shown" true (contains "isa, Paper, Always>" out)

let test_dot_of_focus () =
  let kb = document_kb () in
  let dot = Display.dot_of_focus ~labels:[ sym "isa" ] kb (sym "Invitation") in
  check bool "dot header" true (contains "digraph focus" dot);
  check bool "isa edge" true (contains "\"Invitation\" -> \"Paper\"" dot);
  check bool "unrelated pruned" false (contains "Minutes" dot)

let suite =
  [
    ("bootstrap", `Quick, test_bootstrap);
    ("declare idempotent", `Quick, test_declare_idempotent);
    ("instanceof requires endpoints", `Quick, test_instanceof_requires_endpoints);
    ("classification", `Quick, test_classification);
    ("specialization", `Quick, test_specialization);
    ("isa cycle rejected", `Quick, test_isa_cycle_rejected);
    ("isa self rejected", `Quick, test_isa_self_rejected);
    ("instances through subclasses", `Quick, test_all_instances_through_subclasses);
    ("attributes", `Quick, test_attributes);
    ("reserved label rejected", `Quick, test_attribute_reserved_label_rejected);
    ("attribute instantiation principle", `Quick,
     test_attribute_instantiation_principle);
    ("attributes by category", `Quick, test_attributes_by_category);
    ("deductive view inheritance", `Quick, test_deductive_view_inheritance);
    ("user rule", `Quick, test_user_rule);
    ("ask formula", `Quick, test_ask_formula);
    ("behaviours", `Quick, test_behaviours);
    ("frame roundtrip", `Quick, test_frame_store_retrieve_roundtrip);
    ("frame store idempotent", `Quick, test_frame_store_idempotent);
    ("frame pp", `Quick, test_frame_pp);
    ("paper fig 3-2", `Quick, test_paper_fig_3_2);
    ("consistency clean", `Quick, test_consistency_clean);
    ("consistency dangling reference", `Quick, test_consistency_dangling_reference);
    ("consistency attribute conformance", `Quick,
     test_consistency_attribute_conformance);
    ("consistency unclassified attribute", `Quick,
     test_consistency_unclassified_attribute);
    ("consistency temporal", `Quick, test_consistency_temporal);
    ("consistency class constraint", `Quick, test_consistency_class_constraint);
    ("consistency incremental agrees", `Quick, test_consistency_incremental_agrees);
    ("consistency incremental empty delta", `Quick,
     test_consistency_incremental_empty_delta);
    QCheck_alcotest.to_alcotest prop_constraint_lookup_matches_expansion;
    ("closure cache hits", `Quick, test_closure_cache_hits);
    ("closure cache invalidation", `Quick, test_closure_cache_invalidation);
    ("closure cache instanceof invalidation", `Quick,
     test_closure_cache_instanceof_invalidation);
    ("closure cache keeps a set on an older name", `Quick,
     test_closure_cache_keeps_set_on_older_name);
    ("closure cache bounds an unread set", `Quick,
     test_closure_cache_bounds_unread_set);
    ("closure cache rollback", `Quick, test_closure_cache_rollback);
    ("model basics", `Quick, test_model_basics);
    ("model includes and sharing", `Quick, test_model_includes_and_sharing);
    ("model configure and project", `Quick, test_model_configure_project);
    ("text dag browser", `Quick, test_text_dag_browser);
    ("relational display", `Quick, test_relational_display);
    ("proposition table", `Quick, test_proposition_table);
    ("dot of focus", `Quick, test_dot_of_focus);
  ]
