(** The Proposition Base.

    Wraps the physical representation ({!Mem_store}) with the
    services the proposition processor needs: duplicate-free insertion,
    pattern retrieval, change notification, nested transactions (the
    paper executes every design decision as a possibly nested
    transaction), and a text rendering of its propositions. *)

open Kernel

type t

type change = Added of Prop.t | Removed of Prop.t

val create : unit -> t

(** {1 Updates} *)

val insert : t -> Prop.t -> (unit, string) result
(** Fails if a proposition with the same id exists. *)

val remove : t -> Prop.id -> (Prop.t, string) result
(** Fails if no proposition with this id exists. *)

type subscription

val on_change : t -> (change -> unit) -> subscription
(** Register a listener called after every successful insert/remove,
    including those replayed by a rollback.  Listeners fire in
    registration order; registration is O(1). *)

val off_change : t -> subscription -> unit
(** Unregister a listener.  Unknown ids are ignored. *)

(** {1 Retrieval} *)

val find : t -> Prop.id -> Prop.t option
val mem : t -> Prop.id -> bool
val by_source : t -> Prop.id -> Prop.t list
val by_source_label : t -> Prop.id -> Symbol.t -> Prop.t list
val by_dest : t -> Prop.id -> Prop.t list
val by_label : t -> Symbol.t -> Prop.t list

val fold_source : t -> Prop.id -> (Prop.t -> 'a -> 'a) -> 'a -> 'a
(** [fold_source t x f init] is [List.fold_right f (by_source t x) init]
    without the intermediate list: a caller that filters the answer
    conses only what it keeps, newest first as {!by_source}. *)

val fold_dest : t -> Prop.id -> (Prop.t -> 'a -> 'a) -> 'a -> 'a
(** [fold_dest t y f init] is [List.fold_right f (by_dest t y) init]. *)

val iter_source : t -> Prop.id -> (Prop.t -> unit) -> unit
(** [List.iter f (by_source t x)] without the list, newest first. *)

val iter_dest : t -> Prop.id -> (Prop.t -> unit) -> unit
(** [List.iter f (by_dest t y)] without the list, newest first. *)

val links : t -> source:Prop.id -> label:Symbol.t -> dest:Prop.id -> Prop.t list
(** All propositions with the given source, label and destination. *)

val query :
  ?source:Prop.id -> ?label:Symbol.t -> ?dest:Prop.id -> ?valid_at:Time.point ->
  t -> Prop.t list
(** Pattern retrieval; picks the most selective available index. *)

val iter : t -> (Prop.t -> unit) -> unit
(** Every proposition, in ascending code order of its id
    ({!Mem_store.iter}). *)

val fold : t -> ('a -> Prop.t -> 'a) -> 'a -> 'a
(** Visits the propositions in {!iter}'s order. *)

val to_list : t -> Prop.t list
val cardinal : t -> int

val iter_by_label : t -> Symbol.t -> (Prop.t -> unit) -> unit
(** Iterate the label index without building an intermediate list. *)

(** {1 Nested transactions} *)

val begin_tx : t -> unit
val commit : t -> (unit, string) result
(** Fails if no transaction is open. *)

val rollback : t -> (unit, string) result
(** Undo every change since the matching [begin_tx].  Fails if no
    transaction is open. *)

val tx_depth : t -> int

val with_tx : t -> (unit -> ('a, 'e) result) -> ('a, 'e) result
(** Run the function inside a transaction: commit on [Ok], roll back on
    [Error] or exception (re-raised). *)

(** {1 Persistence} *)

val save : t -> out_channel -> unit
val to_serialized : t -> string

val output_serialized : ?sorted:bool -> Kernel.Sexp.sink -> t -> unit
(** Stream {!to_serialized}'s lines, one proposition at a time, in store
    enumeration order, or byte-sorted with [~sorted:true] (the order
    that does not depend on insertion history). *)

