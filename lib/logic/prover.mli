(** Top-down inference engine — the stand-in for the paper's "Prolog
    prover with some enhancements concerning negation", and the
    proposition processor's one deductive engine.

    Evaluation is tabled ("the inference engines may enhance their
    performance by lemma generation"): each subgoal, up to variable
    renaming, gets a lemma table of its answers, which later calls
    reuse and which makes left-recursive Datalog terminate.  A ground
    negated literal on a derived predicate runs to completion in an
    isolated sub-prover (sound on stratified programs).

    The prover runs against a {!Datalog.t} program without materializing
    it, so queries touch only the relevant part of the KB. *)


type stats = { mutable resolutions : int; mutable lemma_hits : int }

type t

val make : Datalog.t -> t

val solve : t -> Term.atom list -> Term.Subst.t list
(** All answer substitutions for the conjunctive goal (restricted to the
    goal's variables).  Duplicates are collapsed. *)

val prove : t -> Term.atom list -> bool

val stats : t -> stats
(** A snapshot of the counters.  Mutating the returned record does not
    affect the prover. *)

val lemma_count : t -> int
(** Number of lemmas (cached subgoal answers) generated so far. *)

val subgoals : t -> (Term.atom * int) list
(** Every tabled subgoal, in canonical form (variables renamed [V0],
    [V1], ... in order of first occurrence), with the number of answers
    its table holds; in no particular order.  Subgoals a negated
    literal ran in a sub-prover are not listed. *)

val clear_lemmas : t -> unit
