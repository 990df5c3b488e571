(** Interned strings.

    Proposition identifiers, labels and object names are compared very
    frequently (index lookups, unification).  Interning maps each distinct
    string to a unique integer code so that equality is an integer
    comparison and symbols can key arrays and bitsets.

    Most proposition ids are minted, not chosen: every link of CML is
    itself a proposition (§3.1), and {!Prop.fresh_id} names it [p<n>].
    Such a {e serial} symbol is not interned.  Its code is computed from
    [n], {!name} renders [p<n>] when asked, and {!intern} or
    {!find_opt} of the canonical spelling ([p], then 1 to 18 digits
    without a leading 0) computes the same code, so the interner holds
    only the names someone chose. *)

type t

val intern : string -> t
(** [intern s] returns the unique symbol for [s], creating it if needed.
    A canonical [p<n>] is {!serial}[ n] and interns nothing. *)

val find_opt : string -> t option
(** [find_opt s] is the symbol for [s] if [s] was interned, or is a
    canonical [p<n>], and never creates one: probing for names a client
    sends does not grow the table. *)

val serial : int -> t
(** [serial n] is the symbol spelt [p<n>].  For [1 <= n < serial_limit]
    it is the serial symbol of number [n], which interns nothing; any
    other [n] interns the spelling as a name. *)

val serial_limit : int
(** [10^18]: serial numbers lie in [\[1, serial_limit)]. *)

val serial_number : t -> int
(** [n] for [serial n] when that is a serial symbol, and 0 for a
    symbol that was interned. *)

val name : t -> string
(** [name t] is the string [t] was interned from, or [p<n>] for a
    serial symbol (a fresh string each call). *)

val name_length : t -> int
(** [String.length (name t)], without building a serial symbol's name. *)

val add_name : Buffer.t -> t -> unit
(** Appends [name t]; a serial symbol's digits go straight into the
    buffer. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

val to_int : t -> int
(** The symbol's integer code, which is non-negative and stable for
    the life of the process.  An interned name's is twice its
    interning index, and serial symbol [n]'s is [2 * n + 1], so serial
    ids compare in the order they were minted, the two kinds differ in
    the low bit, and codes are dense within each kind: [code lsr 1]
    indexes an array ({!Symtab}). *)

val of_int : int -> t
(** Inverse of {!to_int}.  The argument must be a code [to_int]
    returned, or [2 * n + 1] for a serial number [n]; anything else
    yields a symbol that cannot be resolved.  A negative code is never
    a symbol, so stores may use one as a placeholder. *)

val count : unit -> int
(** Number of distinct names interned so far; serial symbols do not
    count. *)

val pp : Format.formatter -> t -> unit

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t
module Map : Map.S with type key = t
