(** Design decisions: selection of applicable decision classes and tools
    for a focus object (fig 2-6), and tool-aided execution of decision
    instances as nested transactions (§3.2).

    Executing a decision:
    + checks the inputs against the decision class's [FROM] signature and
      opens a transaction on the proposition base;
    + runs the tool, which creates the output design objects;
    + records the decision instance with [from]/[to]/[by] links, its
      rationale, and one [OBLIGATION] for each proof obligation of the
      decision class not guaranteed by the tool;
    + verifies consistency of the changed portion of the KB and rolls the
      whole transaction back on violation;
    + once the transaction commits, installs the decision's JTMS
      justifications from that record ({!install_justifications}:
      inputs — and the stated assumptions — support the decision; the
      decision supports its outputs), so a rejected decision never
      touches the JTMS. *)

open Kernel

type menu_entry = {
  decision_class : string;
  role : string;  (** the FROM role the focus object would fill *)
  tools : string list;  (** applicable tool names, most specific class first *)
}

val applicable : Repository.t -> Prop.id -> menu_entry list
(** The context-dependent menu for a focus object: decision classes with
    a [FROM] role the object's classes satisfy, each with its tools. *)

type executed = {
  decision : Prop.id;
  outputs : (string * Prop.id) list;  (** role, object *)
  obligations : (string * [ `Open | `Guaranteed of string ]) list;
      (** per obligation: discharged by the tool's guarantee, or open *)
}

val execute :
  Repository.t ->
  decision_class:string ->
  tool:string ->
  inputs:(string * Prop.id) list ->
  ?params:(string * string) list ->
  ?rationale:string ->
  ?assumptions:(string * string) list ->
  ?asserts:string list ->
  unit ->
  (executed, string) result
(** Run a decision.  [inputs] bind FROM roles to design objects;
    [assumptions] are (assumption-name, defeater-name) pairs: the
    decision is justified only while the defeater node stays OUT —
    the hook for selective backtracking of choice decisions.
    [asserts] are fact nodes the decision establishes (e.g. the
    defeater of an earlier decision's assumption). *)

val run :
  Repository.t -> decision_class:string -> tool:string -> rationale:string ->
  (string * string) list -> (executed, string) result
(** The shell's [run CLASS TOOL K=V..]: each [K=V] binds the [FROM] role
    [K] to the object [V] when [K] is one of the class's [FROM] roles
    (a [V] that names no object is the error [no object V]), and is a
    tool parameter otherwise; then {!execute}.  The class's role
    attributes are read once, for the binding and both role checks. *)

val sign_obligation :
  Repository.t -> decision:Prop.id -> obligation:string -> by:string ->
  (unit, string) result
(** Discharge an open verification obligation "by signature of the
    decision maker". *)

val discharge_obligation :
  Repository.t -> decision:Prop.id -> obligation:string -> how:string ->
  (unit, string) result
(** General discharge with an arbitrary justification text ({!Verify}
    uses this for formal discharge). *)

val open_obligations : Repository.t -> Prop.id -> string list
(** Obligations of a decision instance still lacking proof or signature. *)

val inputs_of : Repository.t -> Prop.id -> (string * Prop.id) list
val outputs_of : Repository.t -> Prop.id -> (string * Prop.id) list

val link_kind : Repository.t -> Prop.t -> [ `Input | `Output | `Other ]
(** Whether a link is one of its source's {!inputs_of} or {!outputs_of}
    links: [`Other] unless the source is a logged decision. *)

val consumers : Repository.t -> Prop.id -> Prop.id list
(** The logged decisions taking the object as input, read off its
    incoming links (one entry per input link, in {!Store.Base.by_dest}
    order): the decisions whose {!inputs_of} names it, found without
    walking the log. *)

val tool_of : Repository.t -> Prop.id -> string option
val rationale_of : Repository.t -> Prop.id -> string option
val params_of : Repository.t -> Prop.id -> (string * string) list
val assumptions_of : Repository.t -> Prop.id -> (string * string) list
val asserts_of : Repository.t -> Prop.id -> string list
val decision_class_of : Repository.t -> Prop.id -> string option

val justifying_decision : Repository.t -> Prop.id -> Prop.id option
(** The decision that created a design object (its JUSTIFICATION). *)

val from_signature : Repository.t -> string -> (string * Prop.id) list
(** The [FROM] roles of a decision class and of its generalizations,
    each with the class its object must instantiate. *)

val install_justifications : Repository.t -> Prop.id -> unit
(** Install a logged decision's JTMS justifications from its KB record:
    its inputs and assumptions support the decision (reason [decision
    D (Class by Tool)]), and it supports its outputs and asserted facts.
    {!execute} and {!Backtrack.retract} call this once a decision
    commits, a replication follower once per replayed decision; the
    JTMS does not deduplicate justifications, so each decision is
    installed once and the mirror is the same on every path. *)

val rebuild_jtms : Repository.t -> unit
(** {!install_justifications} for every logged decision — how a freshly
    loaded repository regains its reason maintenance
    ({!Persist.load_repository} calls this). *)
