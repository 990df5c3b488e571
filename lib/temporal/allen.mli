(** Allen's interval algebra [ALLE83], one of the two time calculi the
    ConceptBase inference engines support.

    Relation sets are 13-bit masks, so set operations are integer
    arithmetic.  The composition table is not hand-copied: it is computed
    once at start-up by enumerating interval triples over a 6-point
    domain, which realizes every ordering of the six endpoints and hence
    yields the exact table. *)

type relation =
  | Before
  | Meets
  | Overlaps
  | Starts
  | During
  | Finishes
  | Equals
  | After  (** inverse of Before *)
  | Met_by
  | Overlapped_by
  | Started_by
  | Contains  (** inverse of During *)
  | Finished_by

val all_relations : relation list
(** The 13 base relations, in a fixed order. *)

val inverse : relation -> relation

val relate : lo1:int -> hi1:int -> lo2:int -> hi2:int -> relation
(** The unique base relation between two concrete intervals
    ([lo < hi] required for both).
    @raise Invalid_argument on degenerate intervals. *)

(** {1 Relation sets (bitmasks)} *)

type set = int

val empty : set
val full : set
val singleton : relation -> set
val of_list : relation list -> set
val to_list : set -> relation list
val mem : relation -> set -> bool
val union : set -> set -> set
val inter : set -> set -> set
val is_empty : set -> bool
val cardinal : set -> int
val equal_set : set -> set -> bool
val inverse_set : set -> set

val compose : set -> set -> set
(** [compose r s] is the strongest implied constraint between A and C
    given A r B and B s C. *)

val pp_relation : Format.formatter -> relation -> unit
val pp_set : Format.formatter -> set -> unit
val relation_to_string : relation -> string

val relation_of_string : string -> relation option
(** Accepts the short names b m o s d f e bi mi oi si di fi. *)

(** {1 Constraint networks and path consistency} *)

module Network : sig
  type t

  val create : int -> t
  (** [create n] makes a network of [n] interval variables with the
      universal constraint everywhere (and [Equals] on the diagonal). *)

  val size : t -> int

  val constrain : t -> int -> int -> set -> unit
  (** Intersect the constraint between variables [i] and [j] with the
      given set (the inverse is maintained on [(j, i)]). *)

  val get : t -> int -> int -> set

  val propagate : t -> bool
  (** Run path consistency (PC-2 style worklist).  Returns [false] if an
      empty constraint was derived, i.e. the network is inconsistent. *)

  val consistent_scenario : t -> relation array array option
  (** Search (backtracking over base relations, with propagation) for an
      atomic scenario; [None] if none exists.  For path-consistent input
      this certifies genuine consistency. *)
end
