(** Justification-based truth maintenance after Doyle [DOYL79].

    Nodes are believed (IN) or not (OUT).  A justification supports its
    consequence when every node of its in-list is IN and every node of
    its out-list is OUT.  The GKBMS stores each design decision as a
    justification from its input objects (and enabling assumptions) to
    its outputs, so retracting a decision relabels exactly its
    consequences — the machinery behind selective backtracking: a
    retraction visits the nodes it takes OUT and their consumers, not
    the network (see {!retract_batch}).

    A node is named by a symbol: a decision, a design object, or an
    assumption or fact the decisions name.  Nodes are found by code in
    a {!Kernel.Symtab}, one slot each, with no string hashed. *)

open Kernel

type t
type node
type justification

val create : unit -> t

val node_sym : t -> ?contradiction:bool -> Symbol.t -> node
(** Get or create the node named by this symbol.  [contradiction] only
    counts when the node is created. *)

val find_sym : t -> Symbol.t -> node option

val node : t -> ?contradiction:bool -> string -> node
(** {!node_sym} of the interned name. *)

val find : t -> string -> node option
(** {!find_sym} of the name, if it was ever interned; interns nothing. *)

val name : node -> string

val justify :
  t -> ?inlist:node list -> ?outlist:node list -> reason:string ->
  node -> justification
(** Install a justification for the node and propagate labels. *)

val premise : t -> node -> justification
(** An always-valid justification (empty in- and out-list). *)

val retract : t -> justification -> unit
(** [retract_batch] of the one justification. *)

val retract_batch : t -> justification list -> unit
(** Remove several justifications at once — what selective backtracking
    of a whole decision closure, and a follower applying its [unlog],
    use.  Incremental (Doyle 1979): each node whose support was
    retracted goes OUT, then, through the consumers index, each node
    whose support has a node that went OUT in its in-list; exactly
    those nodes then look for another valid justification (the first
    in installation order), forward from the nodes still IN.  The cost
    is that closure and its consumers.  When a node taken OUT sits in
    the out-list of a live justification, some other node may come IN,
    and the labels are left to {!relabel}.  On a stratified network (no
    loop runs through an out-list) the labels equal what {!relabel}
    computes from scratch either way. *)

val relabel : t -> unit
(** Recompute every label from scratch by alternating fixpoint over
    every node ever created: the fallback of a nonmonotonic addition or
    retraction, and the reference the incremental paths are tested
    against.  The previous round's label lives in each node, so it
    builds no table. *)

val relabels : t -> int
(** How many times {!relabel} has run on this network, the fallbacks
    included. *)

val justifications : t -> node -> justification list
val reason : justification -> string
val consequence : justification -> node
val inlist : justification -> node list
val outlist : justification -> node list
val is_in : t -> node -> bool
val is_out : t -> node -> bool

val supporting : t -> node -> justification option
(** The justification currently supporting an IN node (well-founded:
    its in-list nodes were labeled before the node itself). *)

val why : t -> node -> string list
(** Human-readable well-founded support chain for an IN node: the
    reasons of the supporting justifications, innermost first. *)

val contradictions : t -> node list
(** Contradiction nodes currently IN. *)

val assumptions_under : t -> node -> node list
(** The assumption nodes (nodes whose supporting justification has a
    non-empty out-list) in the well-founded support of an IN node — the
    candidate culprits for dependency-directed backtracking. *)

val backtrack : t -> node -> (node, string) result
(** Dependency-directed backtracking: given an IN contradiction node,
    choose a culprit assumption under it and defeat it by justifying one
    of its out-list nodes with a nogood justification.  Returns the
    defeated assumption. *)

val nodes : t -> node list
val label_count : t -> int
(** Number of IN nodes (bench metric). *)
