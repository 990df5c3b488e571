(** Deductive database engine: the program store of stratified Datalog
    with negation, comparisons, and pluggable extensional relations,
    plus one bottom-up evaluator over it.

    The object processor "understands the knowledge base as a deductive
    relational database"; this module is that view.  Extensional
    predicates may be backed by explicit facts or by external relations —
    in the GKBMS the proposition base registers [prop/4], [instanceof/2]
    etc. as externals so rules deduce directly over stored propositions.
    The KB's queries ([Cml.Kb.derive], [Cml.Kb.explain]) run top-down
    on {!Prover} over a program held here.  {!solve} is a sequential,
    stratified semi-naive materialization: nothing at runtime calls it;
    it is the reference the prover is tested and benched against. *)

open Kernel

type t

val create : unit -> t

val fact_count : t -> Symbol.t -> int
(** Number of explicitly stored facts of a predicate (0 for externals
    and unknown predicates). *)

val add_fact : t -> Term.atom -> (unit, string) result
(** Ground atoms only.  Duplicate facts are ignored.  A new fact on a
    solved engine drops the materialization, so the next {!solve}
    recomputes. *)

val add_clause : t -> Term.clause -> (unit, string) result
(** Rejects unsafe clauses (see {!Term.clause_safe}) and clauses whose
    head predicate is extensional. *)

val register_external : t -> Symbol.t -> (Term.t list -> Term.t list list) -> unit
(** [register_external t p enum]: [enum pattern] must return every stored
    ground tuple of [p] matching the pattern (argument list possibly
    containing variables, which match anything).  Registering [p] makes
    it extensional. *)

val clauses : t -> Term.clause list

val stratify : t -> (Symbol.t list list, string) result
(** Strata of intensional predicates, lowest first.  [Error] if a
    negation occurs in a recursive cycle. *)

val solve : t -> (unit, string) result
(** Materialize all intensional predicates bottom-up, stratum by
    stratum, semi-naively.  Idempotent until the next
    [add_fact]/[add_clause]/[register_external]. *)

val match_atom : t -> Term.atom -> Term.Subst.t -> Term.Subst.t list
(** All extensions of the substitution matching the atom against stored
    facts, materialized facts and external relations. *)

val query : t -> Term.atom -> (Term.Subst.t list, string) result
(** [solve] then [match_atom] with the empty substitution. *)

val derived_count : t -> int
(** Number of materialized intensional tuples (bench metric). *)

val invalidate : t -> unit
(** Drop materialized results (forces the next [solve] to recompute). *)
