(** Deductive database engine: stratified Datalog with negation,
    comparisons, and pluggable extensional relations, evaluated
    bottom-up.

    The object processor "understands the knowledge base as a deductive
    relational database"; this module is that view.  Extensional
    predicates may be backed by explicit facts or by external relations —
    in the GKBMS the proposition base registers [prop/4], [instanceof/2]
    etc. as externals so rules deduce directly over stored propositions.
    The KB's queries ([Cml.Kb.derive], [Cml.Kb.explain]) run top-down
    on {!Prover} over a program held here; the bottom-up {!solve} and
    its incremental maintenance are the reference the prover is tested
    against. *)

open Kernel

type t

type strategy = [ `Naive | `Seminaive ]

val create : unit -> t
val copy : t -> t

val fact_count : t -> Symbol.t -> int
(** Number of explicitly stored facts of a predicate (0 for externals
    and unknown predicates). *)

val add_fact : t -> Term.atom -> (unit, string) result
(** Ground atoms only.  Duplicate facts are ignored.  On a solved,
    negation-free engine the new fact is propagated with one semi-naive
    delta round and the engine stays solved; otherwise the
    materialization is invalidated. *)

val add_facts : t -> Term.atom list -> (unit, string) result
(** Batch {!add_fact}: stages every tuple, then propagates the whole
    batch with a single semi-naive delta round (or one invalidation).
    Loading n facts costs one propagation instead of n.  Fails on the
    first non-ground atom, in which case nothing is added. *)

val remove_fact : t -> Term.atom -> (unit, string) result
(** Ground atoms only.  Removing an absent fact is a no-op.  On a
    solved, negation-free engine derived consequences are retracted by
    delete-rederive (DRed) per stratum and the engine stays solved;
    otherwise the materialization is invalidated. *)

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

val solve : ?strategy:strategy -> ?pool:Par.Pool.t -> t -> (unit, string) result
(** Materialize all intensional predicates (bottom-up).  Idempotent until
    the next [add_fact]/[add_clause].

    With [?pool] (of size > 1) the per-rule delta joins of each
    semi-naive round are evaluated on the pool's domains; derived
    tuples are still merged into the tables sequentially by the
    caller's domain, and the materialized result is the same fixpoint.
    External relations are then called from several domains and must be
    read-only or otherwise domain-safe.  Without a pool (or with a
    sequential one) the evaluation is exactly the single-domain code. *)

val facts_of : t -> Symbol.t -> Term.t list list
(** All currently materialized (or stored extensional) tuples of a
    predicate; call {!solve} first for intensional ones.  Does not
    include external relations (which cannot be enumerated without a
    pattern — pass one via {!match_atom}). *)

val match_atom : t -> Term.atom -> Term.Subst.t -> Term.Subst.t list
(** All extensions of the substitution matching the atom against stored
    facts, materialized facts and external relations. *)

val query :
  ?strategy:strategy ->
  ?pool:Par.Pool.t ->
  t ->
  Term.atom ->
  (Term.Subst.t list, string) result
(** [solve] then [match_atom] with the empty substitution. *)

val derived_count : t -> int
(** Number of materialized intensional tuples (bench metric). *)

val invalidate : t -> unit
(** Drop materialized results (forces the next [solve] to recompute). *)

(** {1 Instrumentation} *)

type stats = {
  full_solves : int;  (** complete from-scratch materializations *)
  incr_inserts : int;  (** fact insertions absorbed by a delta round *)
  incr_deletes : int;  (** fact deletions absorbed by delete-rederive *)
  fallbacks : int;  (** updates on a solved engine that invalidated *)
  delta_rounds : int;  (** semi-naive / DRed rounds run incrementally *)
  delta_tuples : int;  (** tuples moved by incremental propagation *)
  index_hits : int;  (** bound-first-argument indexed lookups *)
  index_misses : int;  (** full-relation scans *)
}

val stats : t -> stats
(** Counters since creation (or the last {!reset_stats}); [copy] starts
    from zero. *)

val reset_stats : t -> unit
