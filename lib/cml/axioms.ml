(** The CML axiom base: predefined propositions and reserved labels.

    "Axioms of CML restrict the set of well-formed networks ... They
    reflect the existence of propositions with predefined interpretation."
    The six predefined link kinds are classification ([instanceof]),
    specialization ([isa]), aggregation ([attribute]), deduction
    ([rule]), [constraint] and [behaviour].  The axioms are themselves
    propositions in the base, so the language is self-describing and
    extensible. *)

open Kernel

let proposition = Symbol.intern "PROPOSITION"
let class_ = Symbol.intern "CLASS"
let token = Symbol.intern "TOKEN"
let simple_class = Symbol.intern "SimpleClass"
let metaclass = Symbol.intern "MetaClass"
let metametaclass = Symbol.intern "MetametaClass"

(* reserved link labels *)
let instanceof = Symbol.intern "instanceof"
let isa = Symbol.intern "isa"
let attribute = Symbol.intern "attribute"
let rule = Symbol.intern "rule"
let constraint_ = Symbol.intern "constraint"
let behaviour = Symbol.intern "behaviour"

(* predefined link classes, e.g. [IsA_1 = <SimpleClass, isa, SimpleClass,
   Always>] *)
let instanceof_omega = Symbol.intern "InstanceOf_omega"
let isa_1 = Symbol.intern "IsA_1"
let attribute_class = Symbol.intern "Attribute"
let rule_class = Symbol.intern "Rule"
let constraint_class = Symbol.intern "Constraint"
let behaviour_class = Symbol.intern "Behaviour"

let is_reserved_label l =
  Symbol.equal l instanceof || Symbol.equal l isa || Symbol.equal l rule
  || Symbol.equal l constraint_ || Symbol.equal l behaviour

(** Propositions present in every knowledge base.  Individuals first so
    referential checks succeed during bootstrap. *)
let bootstrap_props () =
  let ind name = Prop.individual name in
  let link id source label dest =
    Prop.make ~id ~source ~label ~dest ()
  in
  [
    ind proposition;
    ind class_;
    ind token;
    ind simple_class;
    ind metaclass;
    ind metametaclass;
    (* the omega hierarchy: every proposition is a PROPOSITION; CLASS is
       an instance of itself, closing the tower *)
    link instanceof_omega proposition instanceof class_;
    link (Symbol.intern "Class_self") class_ instanceof class_;
    link (Symbol.intern "Token_class") token instanceof class_;
    link (Symbol.intern "SimpleClass_class") simple_class instanceof class_;
    link (Symbol.intern "MetaClass_class") metaclass instanceof class_;
    link (Symbol.intern "MetametaClass_class") metametaclass instanceof class_;
    link isa_1 simple_class isa simple_class;
    (* the six predefined link kinds exist as (self-describing) classes *)
    link attribute_class proposition attribute proposition;
    link rule_class proposition rule proposition;
    link constraint_class proposition constraint_ proposition;
    link behaviour_class proposition behaviour proposition;
  ]
