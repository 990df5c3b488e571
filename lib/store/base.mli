(** The Proposition Base.

    Wraps a physical representation ({!Mem_store} by default) with the
    services the proposition processor needs: duplicate-free insertion,
    pattern retrieval, change notification, nested transactions (the
    paper executes every design decision as a possibly nested
    transaction), and textual persistence. *)

open Kernel

type t

type backend = [ `Mem | `Log | `Log_nocompact | `Arena ]
(** [`Log_nocompact] is the append-only representation with automatic
    tombstone compaction disabled — the raw journal, kept for benches.
    [`Arena] is the columnar struct-of-arrays representation
    ({!Arena_store}): GC-invisible rows over dense symbol codes. *)

type change = Added of Prop.t | Removed of Prop.t

val backend_of_string : string -> (backend, string) result
(** Parse ["mem"], ["log"], ["log-nocompact"] or ["arena"]. *)

val set_default_backend : backend -> unit
(** Set the backend used by {!create} when none is given explicitly.
    Initialized from the [GKBMS_STORE] environment variable ([mem] when
    unset); the CLI [--store] flag routes through this. *)

val create : ?backend:backend -> unit -> t
(** [backend] defaults to the process default (see
    {!set_default_backend}). *)

val backend_name : t -> string
val clear : t -> unit

(** {1 Updates} *)

val insert : t -> Prop.t -> (unit, string) result
(** Fails if a proposition with the same id exists. *)

val insert_batch : t -> Prop.t list -> int
(** Insert many propositions at once through the storage batch path
    (the arena presizes its columns and id index); propositions whose
    id is already present are skipped.  Change listeners and the undo
    log see every inserted proposition, exactly as with {!insert}.
    Returns the number inserted. *)

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

val links : t -> source:Prop.id -> label:Symbol.t -> dest:Prop.id -> Prop.t list
(** All propositions with the given source, label and destination. *)

val query :
  ?source:Prop.id -> ?label:Symbol.t -> ?dest:Prop.id -> ?valid_at:Time.point ->
  t -> Prop.t list
(** Pattern retrieval; picks the most selective available index. *)

val iter : t -> (Prop.t -> unit) -> unit
val fold : t -> ('a -> Prop.t -> 'a) -> 'a -> 'a
val to_list : t -> Prop.t list
val cardinal : t -> int

val fold_ids : t -> ('a -> Prop.id -> 'a) -> 'a -> 'a
(** Fold over all stored proposition ids without materializing the
    propositions (on the arena: a sweep of one integer column). *)

val fold_links : t -> ('a -> Prop.id -> Prop.id -> Symbol.t -> Prop.id -> 'a) -> 'a -> 'a
(** Fold over [(id, source, label, dest)] of every proposition — the
    EDB view the deductive engine scans — without decoding time values
    or allocating [Prop.t] records. *)

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

val of_serialized : ?backend:backend -> string -> (t, string) result
