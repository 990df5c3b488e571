(** Cost-based query planner for the deductive-relational view.

    [query] answers one atom against a Datalog engine without paying
    for full materialization: extensional predicates are matched
    directly against the stored indexes, and intensional predicates
    are evaluated on a throwaway {!Logic.Datalog.derive_view} running
    the magic-sets rewrite of the program ({!Magic.rewrite}) — or, when
    the cone is nonmonotone, the original program with cost-ordered
    rule bodies ({!Cost.order_body}).  Answers are the same
    substitution set the unplanned engine produces (the differential
    suite holds this at 1/2/4 domains); only the work to reach them
    changes.

    [Cml.Kb.explain] plans through here; [Cml.Kb.derive] runs the
    tabled prover, never the planner. *)


module Stats = Stats
module Cost = Cost
module Magic = Magic

val query :
  ?stats:Stats.t ->
  ?pool:Par.Pool.t ->
  Logic.Datalog.t ->
  Logic.Term.atom ->
  (Logic.Term.Subst.t list, string) result
(** Plan and evaluate one query.  The engine itself is not mutated (no
    solve, no materialization): evaluation happens on a view. *)

val explain :
  ?stats:Stats.t ->
  ?pool:Par.Pool.t ->
  Logic.Datalog.t ->
  Logic.Term.atom ->
  (string, string) result
(** Render the chosen plan — strategy, adornments, per-rule literal
    order with row estimates — then evaluate it and append estimated
    vs. actual cardinalities per planned predicate and the answer
    count. *)
