(** CML propositions.

    A proposition is a quadruple [p = <x, l, y, t>]: the node [x] has a
    link labelled [l] to node [y] at time [t], and the link itself is
    named [p].  Nodes are themselves propositions, so [source] and [dest]
    are proposition identifiers.  An individual object such as
    [Invitation] is represented by a self-referential proposition
    [<Invitation, Invitation, Invitation, t>]. *)

type id = Symbol.t

type t = {
  id : id;
  source : id;
  label : Symbol.t;
  dest : id;
  time : Time.t;  (** valid time of the asserted link *)
  belief : Time.point;  (** when the KB learnt about the proposition *)
}

val make : ?time:Time.t -> ?belief:Time.point -> id:id -> source:id ->
  label:Symbol.t -> dest:id -> unit -> t
(** [make ~id ~source ~label ~dest ()] builds a proposition.  [time]
    defaults to [Time.always]; [belief] defaults to [Time.Clock.now ()]. *)

val individual : ?time:Time.t -> id -> t
(** [individual x] is the self-referential proposition declaring node
    [x]: source, label and destination all equal [x]. *)

val is_individual : t -> bool

val fresh_id : ?prefix:string -> unit -> id
(** A globally unique proposition identifier: the serial symbol [p37]
    (see {!Symbol.serial}), which interns nothing, or with [prefix] the
    interned name [<prefix>37].  All prefixes share one counter. *)

val reset_ids : unit -> unit
(** Reset the id counter (for tests). *)

val advance_ids : int -> unit
(** Raise the id counter to at least [n], so ids minted after loading a
    snapshot into a fresh process cannot collide with persisted ones. *)

val equal : t -> t -> bool
(** Structural equality, ignoring belief time. *)

val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
