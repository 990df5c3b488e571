(** Whole-repository persistence.

    The proposition base has always been serializable
    ({!Store.Base.save}); this module additionally persists the artifact
    store (the design ASTs) and the decision log, and rebuilds
    the reason-maintenance mirror on load — so a GKBMS session can be
    closed and resumed, as the 1988 prototype did against its external
    DBMS backends.

    A snapshot is binary.  [varint], [vstr] and the proposition record
    are {!Durability.Codec}'s, with the flags of the log's ['p'] record,
    so an individual spells only its id.

    {v
    field         GKBSNP2
    magic         "GKBSNP2\n" (8 bytes)
    generation    varint
    propositions  count:varint, then count proposition records
    artifacts     count:varint, then count × (id:sym text:vstr)
    log           count:varint, then count × decision:sym
    trailer       CRC-32 of every byte before it, u32le
    v}

    [generation] is the number of the log that follows the snapshot
    ({!Durable.generation}); a snapshot written outside a durable
    directory records 0.

    A [sym] is a varint.  A serial id ({!Kernel.Symbol.serial}) is
    [2n + 1], its number, as in a WAL frame.  An interned name of
    interning index [i] (its {!Kernel.Symbol.to_int} halved) is
    [4i + 2] and the name as a [vstr] where it first occurs in the
    file, and [4i] after that.  The writer keeps one bit per interned
    name and nothing per proposition.  A serial id with a large number
    (a chosen [p<n>], or ids minted after one) costs up to nine bytes
    at each use.

    An artifact's [text] is its rendered s-expression
    ({!sexp_of_artifact}).  The artifacts are those of ids in the base,
    and the log is chronological.

    The loader checks the magic and the checksum before it decodes,
    and then every record: reserved flag bits, times, symbol references,
    serial numbers, an id met twice, artifacts that do not parse and
    trailing bytes.  This build reads only the layout it writes.  A
    [GKBSNP1] snapshot (every symbol spelt as a name, no generation)
    and a text snapshot ([(gkbms-repository ...)]), the layouts before,
    are refused with an error naming the layout; anything else is
    refused as not a snapshot. *)

val save_repository : Repository.t -> string
(** A self-contained binary snapshot. *)

val save_repository_canonical : Repository.t -> string
(** The text layout, with proposition lines and artifacts sorted, so
    the bytes are independent of store insertion history: two
    repositories with identical logical state produce identical
    snapshots.  This is the replication convergence oracle (leader vs
    follower compare), written only for comparison. *)

val load_repository :
  ?register_tools:(Repository.t -> unit) -> string ->
  (Repository.t, string) result
(** Recreate a repository from a binary snapshot.  Tool
    implementations are code and cannot be persisted; pass
    [register_tools] (defaults to {!Mapping.register_tools}) to
    re-register them.  A damaged snapshot gives an [Error] naming the
    problem, never a partial repository. *)

val load_repository_raw : string -> (Repository.t, string) result
(** Decode a snapshot without finalizing: no tools registered, decision
    counter and reason maintenance untouched.  The durability layer
    replays a WAL suffix on the raw repository before {!finalize} — the
    JTMS is rebuilt once, from the merged state. *)

val finalize : ?register_tools:(Repository.t -> unit) -> Repository.t -> unit
(** Re-register tools, re-align the decision counter and rebuild the
    reason-maintenance mirror on a raw-loaded repository. *)

val save_to_file :
  ?fsync:bool -> ?generation:int -> Repository.t -> string -> (unit, string) result
(** Atomic: streams {!save_repository}'s bytes, with [generation]
    (default 0) in the header, to a temp file in the target directory,
    then renames it over [path].  With [fsync]
    (default false) the temp file is forced to disk before the rename
    and the directory after it, so an [Ok] snapshot survives a power
    loss; any write, sync or rename error is an [Error], and leaves
    [path] as it was.

    {!load_from_file} is its inverse. *)

val generation_of_file : string -> int
(** The generation a checkpoint file's header records, read from its
    first bytes without checking the rest: 0 for a file that is missing
    or does not start like a GKBSNP2 snapshot. *)

val load_from_file :
  ?register_tools:(Repository.t -> unit) -> string ->
  (Repository.t, string) result

(** {1 Artifact codecs (exposed for tests)} *)

val sexp_of_artifact : Repository.artifact -> Kernel.Sexp.t
val artifact_of_sexp : Kernel.Sexp.t -> (Repository.artifact, string) result
