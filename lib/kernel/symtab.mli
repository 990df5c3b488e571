(** Tables keyed by symbol, indexed by code.

    A symbol's code is dense within its kind (see {!Symbol.to_int}):
    [2i] for the [i]-th interned name, [2n + 1] for serial id [n].  So
    [code lsr 1] indexes an array, and a table keeps one paged array
    per kind: a binding costs one slot, with no hash cell, no bucket
    and no resize that relinks the whole table as the base grows.  A
    page is allocated on its first write, behind a page directory
    that doubles as needed, so names interned late in a process or a
    serial range that starts high cost only the pages they touch.

    The one slow path: a code whose page lies past a fixed cap (a
    chosen [p123456789012], or an id minted after such a name raised
    the id counter past the cap) goes to a {!Symbol.Tbl} fallback,
    which costs what a hash table costs.

    {!iter} and {!fold} visit the bindings in ascending code order,
    which is {!Symbol.Map}'s order: serial ids come out in mint
    order. *)

type 'a t

val create : 'a -> 'a t
(** [create absent] is an empty table whose empty slots hold
    [absent].  Slots are compared with [absent] by [==], so [absent]
    must be a value no caller binds (a private record, or an int no
    binding uses), and ['a] must not be [float]. *)

val find : 'a t -> Symbol.t -> 'a
(** The value bound to the symbol, or the table's [absent];
    allocates nothing. *)

val find_opt : 'a t -> Symbol.t -> 'a option
val mem : 'a t -> Symbol.t -> bool

val replace : 'a t -> Symbol.t -> 'a -> unit
(** Bind the symbol, replacing any earlier binding.
    @raise Invalid_argument on a negative code, which is never a
    symbol. *)

val remove : 'a t -> Symbol.t -> unit
(** Unbind the symbol; a symbol with no binding is ignored. *)

val length : 'a t -> int
(** Number of bindings. *)

val iter : (Symbol.t -> 'a -> unit) -> 'a t -> unit
(** Every binding, in ascending code order. *)

val fold : (Symbol.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Every binding, in {!iter}'s order. *)
