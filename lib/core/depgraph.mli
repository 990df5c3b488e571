(** Dependency graphs over design objects, decisions and tools — the
    structures the graphical DAG browser displays in figs 2-2 .. 2-4,
    with the zooming facility §2.1 calls for: {!pp} draws the
    neighbourhood of a focus. *)

open Kernel

val from_label : Symbol.t
val to_label : Symbol.t
val by_label : Symbol.t
val replaces_label : Symbol.t

val build : Repository.t -> Kbgraph.Digraph.t
(** The full dependency graph: [input --from--> decision],
    [decision --to--> output], [decision --by--> tool],
    [new_version --replaces--> old_version]. *)

val consequences :
  Repository.t -> Prop.id -> Prop.id list * Prop.id list
(** [consequences repo dec] = (decisions, objects) transitively dependent
    on the decision: its outputs, every decision taking one of those as
    input, and so on.  [dec] itself heads the decision list. *)

val pp : Repository.t -> Format.formatter -> Prop.id -> unit
(** ASCII rendering of the dependency graph from a focus, eight levels
    deep: the rendering of {!build}'s graph, expanded from the focus
    through the KB's links only as far as it prints, so it costs the
    focus's neighbourhood, not the history. *)

val to_dot : Repository.t -> string
(** DOT rendering with decisions boxed and tools dashed. *)
