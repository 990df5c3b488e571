(** The physical representation of the proposition base.

    The paper: "Several physical representations (e.g. Prolog workspaces,
    external databases) of propositions can be managed by the proposition
    base.  In its interface it exports operations for retrieving and
    creating stored propositions."  This is the one the system keeps in
    memory: one heap node per proposition on intrusive index chains,
    found by id through a code-indexed {!Kernel.Symtab}.  The
    checkpoint and the write-ahead log are its on-disk form. *)

open Kernel

type t

val create : unit -> t

val insert : t -> Prop.t -> bool
(** [insert t p] stores [p]; returns [false] (and stores nothing) if a
    proposition with the same id already exists. *)

val remove : t -> Prop.id -> Prop.t option
(** Remove by id, returning the removed proposition. *)

val find : t -> Prop.id -> Prop.t option
val mem : t -> Prop.id -> bool
val by_source : t -> Prop.id -> Prop.t list
val by_source_label : t -> Prop.id -> Symbol.t -> Prop.t list
val by_dest : t -> Prop.id -> Prop.t list
val by_label : t -> Symbol.t -> Prop.t list

val fold_source : t -> Prop.id -> (Prop.t -> 'a -> 'a) -> 'a -> 'a
(** [fold_source t x f init] is [List.fold_right f (by_source t x)
    init]: a caller that filters the answer conses only what it
    keeps, in the same order. *)

val fold_dest : t -> Prop.id -> (Prop.t -> 'a -> 'a) -> 'a -> 'a
(** [fold_dest t y f init] is [List.fold_right f (by_dest t y) init]. *)

val iter_source : t -> Prop.id -> (Prop.t -> unit) -> unit
(** [List.iter f (by_source t x)], newest first, without the list. *)

val iter_dest : t -> Prop.id -> (Prop.t -> unit) -> unit
(** [List.iter f (by_dest t y)], newest first, without the list. *)

val iter : t -> (Prop.t -> unit) -> unit
(** Every proposition, in ascending code order of its id
    ({!Kernel.Symbol.compare}), so minted ids come out in mint
    order. *)

val fold : t -> ('a -> Prop.t -> 'a) -> 'a -> 'a
(** Visits the propositions in {!iter}'s order. *)

val cardinal : t -> int

val iter_by_label : t -> Symbol.t -> (Prop.t -> unit) -> unit
(** Iterate the propositions carrying the given label, newest first,
    without materializing an intermediate list. *)

val index_keys : t -> int
(** Keys across the three chain tables, for tests: none survives a
    drain. *)
