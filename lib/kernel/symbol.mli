(** Interned strings.

    Proposition identifiers, labels and object names are compared very
    frequently (index lookups, unification).  Interning maps each distinct
    string to a unique small integer so that equality is an integer
    comparison and symbols can key arrays and bitsets. *)

type t

val intern : string -> t
(** [intern s] returns the unique symbol for [s], creating it if needed. *)

val find_opt : string -> t option
(** [find_opt s] is the symbol for [s] if [s] was interned, and never
    creates one: probing for names a client sends does not grow the
    table. *)

val name : t -> string
(** [name t] is the string [t] was interned from. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_int : t -> int
(** Stable dense integer code of the symbol (0-based, creation order). *)

val of_int : int -> t
(** Inverse of {!to_int}.  The argument must be a code previously
    returned by [to_int] (i.e. [0 <= i < count ()]); anything else
    yields a symbol that cannot be resolved.  The density and stability
    of the codes is what lets columnar stores keep whole propositions
    as rows of flat integer columns. *)

val count : unit -> int
(** Number of distinct symbols interned so far. *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
