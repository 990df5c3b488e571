(** The Consistency Checker.

    "After executing a decision, the knowledge base must be in a
    consistent state (satisfying all the axioms of CML and the
    constraints imposed on certain objects)."  Two modes:

    - {!check_all} verifies the whole KB;
    - {!check_delta} is the set-oriented optimization the paper says is
      being studied: only the axioms and constraints affected by a batch
      of changes are re-verified.

    Checks performed:
    - referential integrity of every link proposition (source,
      destination exist);
    - [isa] acyclicity;
    - attribute conformance: an attribute proposition classified under an
      attribute class [<C, A, D>] must have its source an instance of [C]
      and its destination an instance of [D]; attribute propositions
      whose source's classes define a category of the same label must
      instantiate one;
    - temporal containment: a link's valid time must lie within both
      endpoints' valid times;
    - class constraints: every first-order constraint attached to a class
      holds for all its instances. *)

open Kernel

type violation = {
  subject : Prop.id;  (** the proposition or class at fault *)
  rule : string;  (** short name of the violated axiom/constraint *)
  message : string;
}

val pp_violation : Format.formatter -> violation -> unit

val check_all : Kb.t -> violation list
(** Full KB verification.  Empty list = consistent. *)

val check_delta : Kb.t -> Store.Base.change list -> violation list
(** Verify only what the changes can affect: the changed propositions
    themselves, attribute conformance of propositions incident to
    changed objects, and the constraints of every class that an
    endpoint of a change (its id, source or destination) is,
    specializes or is an instance of.  The constrained classes are read
    off the [constraint] links, so a KB without constraints pays no
    classification for them. *)

val watch : Kb.t -> (unit -> Store.Base.change list)
(** Start recording changes on the KB's base; the returned function
    drains the recorded batch (for transaction-commit checking). *)
