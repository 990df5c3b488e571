(** Physical representations of the proposition base.

    The paper: "Several physical representations (e.g. Prolog workspaces,
    external databases) of propositions can be managed by the proposition
    base.  In its interface it exports operations for retrieving and
    creating stored propositions."  We capture that interface as a module
    type so the proposition base can run over any representation; three
    are provided ({!Mem_store}, one heap node per proposition on
    intrusive index chains; {!Log_store}, append-only; {!Arena_store},
    columnar struct-of-arrays). *)

open Kernel

module type S = sig
  type t

  val name : string
  (** Human-readable name of the representation (for benches). *)

  val create : unit -> t
  val clear : t -> unit

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

  val iter : t -> (Prop.t -> unit) -> unit
  val cardinal : t -> int

  (** {2 Batch / streaming operations}

      The bulk-load and scan entry points the deductive engine and the
      persistence layer use.  Backends are free to specialize them:
      the columnar arena presizes its columns on [insert_batch] and
      answers the fold variants straight off its integer columns
      without materializing a [Prop.t] per row. *)

  val insert_batch : t -> Prop.t list -> Prop.t list
  (** Insert many propositions at once; propositions whose id is
      already present are skipped.  Returns the propositions actually
      inserted, in input order. *)

  val fold_ids : t -> ('a -> Prop.id -> 'a) -> 'a -> 'a
  (** Fold over the ids of all stored propositions without building
      the propositions themselves. *)

  val fold_links : t -> ('a -> Prop.id -> Prop.id -> Symbol.t -> Prop.id -> 'a) -> 'a -> 'a
  (** Fold over the [(id, source, label, dest)] quadruple of every
      stored proposition — the EDB view the deductive engine scans —
      without decoding time values or allocating [Prop.t] records. *)

  val iter_by_label : t -> Symbol.t -> (Prop.t -> unit) -> unit
  (** Iterate the propositions carrying the given label (the label
      index) without materializing an intermediate list. *)
end

type impl = Impl : (module S with type t = 'a) * 'a -> impl
