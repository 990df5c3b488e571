(** The ConceptBase proposition processor.

    Wraps the proposition base with the CML axioms: classification
    ([instanceof]), specialization ([isa]), aggregation (attribute
    propositions with instantiation into attribute categories), deduction
    (Horn rules), constraints (first-order formulas on class instances)
    and behaviours (operations attached to classes).  Exposes explicit,
    inherited and deduced propositions, and the deductive-database view,
    which {!derive} queries and {!explain} reports on, both through the
    tabled prover. *)

open Kernel

type t

val create : unit -> t
(** A fresh KB containing the axiom-base bootstrap propositions. *)

val base : t -> Store.Base.t
(** The underlying proposition base (for transactions and persistence). *)

val now : t -> Time.point
val tick : t -> Time.point
(** Advance the KB's logical clock (used for belief-time stamping). *)

(** {1 Creating propositions} *)

val declare : ?time:Time.t -> t -> string -> (Prop.id, string) result
(** Create an individual object.  Idempotent: re-declaring an existing
    object returns its id. *)

val add_instanceof :
  ?time:Time.t -> t -> inst:string -> cls:string -> (Prop.t, string) result
(** Classification link.  Both endpoints must exist. *)

val add_isa :
  ?time:Time.t -> t -> sub:string -> super:string -> (Prop.t, string) result
(** Specialization link; rejected if it would close an isa-cycle. *)

val add_attribute :
  ?time:Time.t -> ?category:string -> ?id:string -> t -> source:string ->
  label:string -> dest:string -> (Prop.t, string) result
(** Aggregation.  When [category] is given (or the label matches), the
    new proposition is classified under the attribute class of that name
    defined on (a superclass of) one of the source's classes, per the
    instantiation principle "links labeled with small letters are
    instances of those denoted by capitals". *)

val create_proposition : t -> Prop.t -> (unit, string) result
(** Raw axiom-checked insertion (the paper's [create_proposition(p)]). *)

val remove_proposition : t -> Prop.id -> (Prop.t, string) result
(** Remove by id; link propositions depending on it (having it as source
    or destination) must be removed first. *)

(** {1 Retrieval: explicit, inherited, deduced} *)

val exists : t -> string -> bool
(** Does a proposition of this name exist?  Never interns the name. *)

val find : t -> Prop.id -> Prop.t option

val classes_of : t -> Prop.id -> Prop.id list
(** Explicit classes (direct [instanceof]). *)

val all_classes_of : t -> Prop.id -> Prop.id list
(** Classes including those inherited through [isa] generalization. *)

val instances_of : t -> Prop.id -> Prop.id list
(** Direct instances. *)

val all_instances_of : t -> Prop.id -> Prop.id list
(** Instances of the class or any of its specializations. *)

val isa_supers : t -> Prop.id -> Prop.id list
(** Direct generalizations. *)

val isa_closure : t -> Prop.id -> Prop.id list
(** All (transitive) generalizations, excluding the class itself. *)

val is_instance : t -> inst:Prop.id -> cls:Prop.id -> bool
(** Classification including inheritance. *)

type cache_stats = {
  hits : int;
  misses : int;
  invalidations : int;
  entries : int;  (** memo entries held now *)
}

val cache_stats : t -> cache_stats
(** Counters for the class-level closure memos behind {!isa_closure},
    {!all_instances_of} and the generalization closure those use.  The
    memos subscribe to base changes and invalidate only the affected
    entries, so steady-state class-level queries are O(1).  An object
    without a generalization gets no entry (its closure is [[]]), and
    {!all_classes_of} and {!is_instance} read the object's
    [instanceof] links plus its classes' memoized closures, so the
    memos hold O(classes) entries however many individuals are
    classified.  Lookups that need no entry count as neither hit nor
    miss.

    An [instanceof] link added from [x] keeps the instance sets of its
    class and that class's generalizations: the set takes [x] in at
    O(1), and its next read merges what it took in, once each, in
    {!Kernel.Symbol.compare} order.  A removed [instanceof] link and
    any [isa] change drop the sets they touch, which the next read
    recomputes.  So a commit that creates design objects keeps
    its level's set, and a read after it costs what it lists.  The
    memos follow the base's change feed: a path that filled the base
    without it would have to leave them empty. *)

val instance_memos : t -> (Prop.id * Prop.id list) list
(** Every memoized {!all_instances_of} set, by class: what a
    differential test compares with a from-scratch computation. *)

val attributes : t -> ?category:string -> Prop.id -> Prop.t list
(** Attribute propositions leaving the object (non-reserved labels),
    optionally restricted to instances of the named attribute category. *)

val attribute_values : t -> Prop.id -> string -> Prop.id list
(** Destinations of the object's attributes with the given label. *)

val category_of : t -> Prop.id -> Prop.id option
(** The attribute class a given attribute proposition instantiates. *)

(** {1 Deduction, constraints, behaviours} *)

val add_rule : t -> name:string -> Logic.Term.clause -> (unit, string) result
(** Install a deduction rule; a rule object is recorded in the KB and
    the clause becomes part of the deductive view. *)

val add_constraint :
  t -> name:string -> cls:string -> Logic.Formula.t -> (unit, string) result
(** Attach a first-order constraint to a class. *)

val all_constraints : t -> (Prop.id * Prop.id * Logic.Formula.t) list
(** All (class, constraint-object, formula) triples.  Scans the whole
    base.  A hot path reads the [constraint] links instead, through
    {!Store.Base.iter_by_label} and {!constraint_formula}: the label
    chain holds one link per constraint (plus the bootstrap
    [Constraint] category), so the lookup costs nothing when no class
    carries a constraint. *)

val constraint_formula : t -> Prop.id -> Logic.Formula.t option
(** The formula registered for a constraint object, if any. *)

val add_behaviour :
  t -> cls:string -> event:string -> (t -> Prop.id -> unit) -> (unit, string) result
(** Attach an operation (e.g. [create], [display]) to the instances of a
    class, like SMALLTALK methods. *)

val trigger : t -> Prop.id -> string -> (int, string) result
(** Run every behaviour named [event] attached to any class of the
    object; returns how many ran. *)

val datalog : t -> Logic.Datalog.t
(** The deductive-relational view: externals [prop/4], [instanceof/2],
    [isa/2], [attr/3] over the proposition base, the inheritance prelude
    ([isa_tc/2], [in/2]), and all user rules. *)

val derive : t -> Logic.Term.atom -> (Logic.Term.Subst.t list, string) result
(** Query the deductive view with a fresh tabled top-down prover (the
    paper's Horn-clause prover with negation and lemma generation), the
    KB's one deductive engine.  Never fails: the result type is kept
    for the callers that render errors. *)

val explain : t -> Logic.Term.atom -> (string, string) result
(** Run the goal as {!derive} does and render what the prover did: one
    line per tabled subgoal in canonical form with its answer count,
    sorted by printed form, then the resolution and lemma-hit counters
    and the answer count.  The counters depend on the lemma table's
    iteration order, so the same goal may report different counts in
    different processes; the subgoals and answers do not vary.  Keeps
    nothing after the call. *)

val formula_env : t -> Logic.Formula.env
(** Environment for constraint evaluation: [instances_of] quantifies over
    {!all_instances_of}; the oracle accepts [instanceof/2], [isa/2],
    [attr/3], [prop/4] and any derived predicate. *)

val ask : t -> Logic.Formula.t -> (bool, string) result
(** Evaluate a closed formula against the KB. *)
