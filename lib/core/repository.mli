(** The GKBMS repository: one ConceptBase KB carrying the conceptual
    process model, plus the side structures of the prototype — the
    artifact store (ASTs of the design documents, whose "characteristic
    features" are what the KB tokens abstract), the reason-maintenance
    mirror, the decision log and the tool registry. *)

open Kernel

type artifact =
  | Tdl_design of Langs.Taxis_dl.design
  | Tdl_class of Langs.Taxis_dl.entity_class
  | Tdl_tx of Langs.Taxis_dl.transaction
  | Dbpl_rel of Langs.Dbpl.relation
  | Dbpl_con of Langs.Dbpl.constructor_
  | Dbpl_sel of Langs.Dbpl.selector
  | Dbpl_tx of Langs.Dbpl.transaction
  | Cml_frame of Cml.Object_processor.frame
  | Cml_model of Cml.Object_processor.frame list
  | Text of string

val pp_artifact : Format.formatter -> artifact -> unit
(** The source-code frame of the artifact (fig 2-2's code windows). *)

type output = {
  role : string;  (** the TO role of the decision class this fills *)
  obj : Prop.id;
  replaces : Prop.id option;
      (** predecessor version this output supersedes, if any *)
}

type t

(** Repository-level events, mirrored by the durability layer into the
    write-ahead log.  Store-level deltas flow separately through
    {!Store.Base.on_change}; these carry the decision boundaries and the
    artifact-store writes that the proposition feed cannot see. *)
type event =
  | Decision_begun of string  (** decision class, before any delta *)
  | Decision_committed of Prop.id  (** decision instance, after commit *)
  | Decision_aborted of string  (** reason *)
  | Decision_unlogged of Prop.id  (** decision retracted from the log *)
  | Artifact_written of Prop.id  (** artifact store updated for this id *)

type event_subscription

val on_event : t -> (event -> unit) -> event_subscription

val off_event : t -> event_subscription -> unit
(** Unsubscribe (symmetric with {!Store.Base.off_change}); unknown ids
    are ignored.  A server daemon detaches its news listener here when
    it stops, so closures are not leaked. *)

val event_listener_count : t -> int
(** Number of live event listeners (exposed for leak tests). *)

val emit_event : t -> event -> unit
(** Exposed for the decision executor; not for general use. *)

val version : t -> int
(** Monotonic data-version counter: bumped on [Decision_committed],
    [Decision_unlogged] and [Artifact_written] events.  Reads are atomic
    and lock-free, so a server can key a response cache on it — any
    committed decision moves the version and thereby invalidates cached
    responses exactly once. *)

(** Tools assist the user in executing design decisions (§2.2). *)
type tool = {
  tool_name : string;
  executes : string;  (** decision class *)
  automation : [ `Automatic | `Semi_automatic | `Manual ];
  guarantees : string list;
      (** obligations of the decision class discharged by construction *)
  run :
    t -> inputs:(string * Prop.id) list -> params:(string * string) list ->
    (output list, string) result;
}

val create : ?install_metamodel:bool -> unit -> t
(** Fresh repository with the metamodel installed.  [install_metamodel]
    (default true) is disabled only when loading a snapshot that already
    carries the metamodel propositions ({!Persist.load_repository}).
    @raise Invalid_argument if the bootstrap fails (a bug, not user error). *)

val kb : t -> Cml.Kb.t
val jtms : t -> Tms.Jtms.t

(** {1 Design objects} *)

val new_object :
  t -> ?name:string -> ?replaces:Prop.id -> cls:string -> artifact ->
  (Prop.id, string) result
(** Create a design object of the given class, abstracting the artifact;
    a [TextObject] holding its rendered source is attached via [SOURCE].
    [name] defaults to a fresh id derived from the artifact.  On [Error]
    the base and the artifacts are as they were: the KB writes run in
    one {!Store.Base.with_tx}, and the artifacts are set once it
    commits. *)

val artifact : t -> Prop.id -> artifact option
val set_artifact : t -> Prop.id -> artifact -> unit

val fold_artifacts : t -> (Prop.id -> artifact -> 'a -> 'a) -> 'a -> 'a
(** Every stored artifact, in ascending code order of its id. *)

val source_text : t -> Prop.id -> string option
(** The rendered source attached to the object. *)

val objects_of_class : t -> string -> Prop.id list
(** All design objects (instances, incl. through specialization). *)

val all_design_objects : t -> Prop.id list
(** Instances of every design object class (every instance of the
    [DesignObject] metaclass) — the whole documentation level — in
    ascending {!Kernel.Symbol.compare} order.  Each call folds the
    [instanceof] chain of every counting class (a design object class
    or one of its specializations) and marks each source in a
    code-indexed table; the marks' fold is already in that order, so
    the list needs no concatenation and no sort.  It costs one pass
    over those chains, plus the table's pages and the list itself, and
    leaves no memo behind. *)

val design_object_count : t -> int
(** [List.length (all_design_objects t)], kept off the base's change
    feed.  An [instanceof] link into a design object class counts its
    source when it is the source's first such link and uncounts it when
    it was the last, one table lookup per link.  A class-level change
    (an [isa] link, or a class joining or leaving [DesignObject]) makes
    the count unknown, and the next call recounts once: the fold of
    {!all_design_objects}, which counts each source the first time it
    marks it and builds no list.  The count stays unknown until some
    call asks.  A repository starts unknown.  A path that filled the
    store without the change feed would have to leave it unknown. *)

val is_design_object : t -> Prop.id -> bool
(** Membership in {!all_design_objects}, decided from the object's own
    classification. *)

(** {1 Tools} *)

val register_tool : t -> tool -> unit
(** Also records the tool specification in the KB and links it to its
    decision class via [BY]. *)

val find_tool : t -> string -> tool option
val tools_for : t -> string -> tool list
(** Tools associated with a decision class (or its generalizations). *)

(** {1 Decision log}

    The log is one append-only index: each logged decision holds a
    position, unlogging leaves a tombstone in its place, and positions
    only rise, so log order is position order.  Membership, position
    and length are O(1); only {!iter_log} and {!decision_log} walk the
    whole history. *)

val log_decision : t -> Prop.id -> unit
(** Append a decision at the next position.  An id already logged stays
    where it is. *)

val unlog_decision : t -> Prop.id -> unit
(** Drop a decision from the log (O(1)); a later {!log_decision} of the
    same id appends it anew. *)

val is_logged : t -> Prop.id -> bool

val position : t -> Prop.id -> int option
(** The decision's position in the log, if logged.  Positions order the
    log chronologically but are not dense: unlogged decisions leave
    gaps. *)

val log_length : t -> int
(** Number of logged decisions. *)

val iter_log : t -> (Prop.id -> unit) -> unit
(** The logged decisions, oldest first. *)

val decision_log : t -> Prop.id list
(** Chronological ids of executed (non-retracted) decision instances,
    for the callers that read the whole history (persistence, contexts,
    methodology audits, reason-maintenance rebuilds). *)

val fresh_decision_id : t -> string

val next_version_name : t -> string -> string
(** First free name in the version lineage of [base]: [base] itself if
    unused, else [base2], [base3], ... — always the smallest free index,
    so names freed by backtracking are reused.  It never coins the
    spelling of a minted id ([p] then digits): the lineage of [p]
    goes [p], [p02], [p03], ..., and a base spelt so is versioned as
    [p].  Amortized O(1): a hint
    table tracking the base's change stream (including rollbacks)
    remembers where the lineage ends instead of re-probing it. *)

val advance_decision_counter : t -> int -> unit
(** Raise the decision counter to at least [n], so ids minted after a
    snapshot load cannot collide with persisted decisions (recovery
    realignment — see {!Persist.finalize}). *)

val drain_changes : t -> Store.Base.change list
(** Proposition-base changes accumulated since the last drain (used for
    set-oriented consistency checking at decision commit). *)

val record_justifications : t -> Prop.id -> Tms.Jtms.justification list -> unit
val justifications_of : t -> Prop.id -> Tms.Jtms.justification list
val forget_justifications : t -> Prop.id -> unit
