(** Labeled directed graphs over interned symbols.

    Backbone of the GKBMS dependency graphs (figs 2-2 .. 2-4): nodes are
    design objects / decisions / tools, edge labels are link categories
    ([from], [to], [by], [justification], ...).  Also used for IsA
    hierarchies and the model lattice. *)

open Kernel

type node = Symbol.t
type edge = { src : node; label : Symbol.t; dst : node }

type t

val create : unit -> t
val copy : t -> t
val add_node : t -> node -> unit
val remove_node : t -> node -> unit
(** Also removes all incident edges. *)

val add_edge : t -> node -> Symbol.t -> node -> unit
(** Adds endpoints as needed; duplicate edges (same triple) are kept once. *)

val remove_edge : t -> node -> Symbol.t -> node -> unit
val mem_node : t -> node -> bool
val mem_edge : t -> node -> Symbol.t -> node -> bool
val nodes : t -> node list
val edges : t -> edge list
val succ : t -> node -> (Symbol.t * node) list
val pred : t -> node -> (Symbol.t * node) list
val succ_by : t -> node -> Symbol.t -> node list
val pred_by : t -> node -> Symbol.t -> node list
val out_degree : t -> node -> int
val in_degree : t -> node -> int
val nb_nodes : t -> int
val nb_edges : t -> int

val topo_sort : t -> (node list, node list) result
(** Topological order (sources first); [Error scc] returns the nodes of
    some cycle if the graph is cyclic. *)

val has_cycle : t -> bool

val reachable : ?labels:Symbol.t list -> t -> node -> Symbol.Set.t
(** Forward closure from a node (excluding the node itself unless it lies
    on a cycle); optionally restricted to the given edge labels. *)

val reachable_rev : ?labels:Symbol.t list -> t -> node -> Symbol.Set.t
(** Backward closure, symmetric to {!reachable}. *)

val path_exists : t -> node -> node -> bool

val subgraph : t -> (node -> bool) -> t
(** Induced subgraph on the nodes satisfying the predicate. *)

val to_dot :
  ?name:string ->
  ?node_attrs:(node -> (string * string) list) ->
  ?edge_attrs:(edge -> (string * string) list) ->
  t -> string
(** Graphviz rendering — the stand-in for the paper's graphical DAG
    browser. *)

val pp_ascii_dag :
  ?max_depth:int -> ?max_width:int -> ?show_label:bool ->
  t -> Format.formatter -> node -> unit
(** Render the DAG unfolded from a root as an indented tree, the textual
    DAG browser of §3.3.1.  Nodes already printed are shown again only
    as a back-reference marker; [max_depth]/[max_width] implement the
    browser's dynamically defined depth and width. *)

val pp_tree :
  ?max_depth:int -> ?max_width:int -> ?show_label:bool ->
  succ:(node -> (Symbol.t * node) list) ->
  Format.formatter -> node -> unit
(** {!pp_ascii_dag} over a graph given by its successor function, which
    is called only on the nodes the rendering expands: at most once per
    node, and never below [max_depth].  A graph too large to build can
    be rendered from a focus at the cost of what is printed. *)
