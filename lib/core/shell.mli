(** The dialog manager (§3.3.1: "A dialog manager with improved error
    handling and recovery facilities is under construction" — here it
    is).  A line-oriented command interpreter over one repository,
    driving the same focusing / menu / decision / browsing operations as
    the window tools; every command returns text, and errors never
    destroy the session state.  [bin/gkbms repl] wires it to stdin; the
    server ({!Server.Daemon}) wraps one shell per connected client.

    All dialog state — the browsing cursor set by [focus], the
    configuration level set by [config LEVEL], the scenario shortcut
    bookkeeping — is *per session*, never per repository: several shells
    over the same repository (as under the concurrent server) do not see
    each other's cursors, and the shortcuts re-resolve version chains so
    a version created by another session is picked up rather than
    overwritten. *)

type t

val create : unit -> (t, string) result
(** A fresh session on the meeting scenario's initial state (design
    loaded, nothing mapped). *)

val of_repository : Repository.t -> t
(** Drive an existing repository (e.g. one loaded from a snapshot). *)

val session : Repository.t -> t
(** A session on a repository *shared* with other sessions (the server
    case): like {!of_repository}, but commands that would swap the
    repository out from under the other sessions ([load]) are refused. *)

val repository : t -> Repository.t

val eval : t -> string -> string
(** Execute one command line and return the rendered output (errors are
    reported in the output, prefixed with ["error:"]; a verb given
    operands it does not take answers [error: usage: SYNOPSIS]).  The
    [help] command lists every verb with its operands.  An operand that
    names no proposition is answered [error: no object NAME], and
    [retract DEC] whose [DEC] names no logged decision [error: no
    decision DEC]; neither interns the operand.  [retract] refuses a
    [DEC] that is itself a retraction.  [eval t line] is [resolve],
    then the answer, then [observe]. *)

type verb_class =
  | Cached_read
      (** its answer depends on the repository and the line {!resolve}
          makes explicit alone, so a server may cache it under that line *)
  | Uncached_read  (** side effects ([save]) or time-varying output ([trace]) *)
  | Write  (** commits or retracts decisions, in decision-log order *)

val verb_class : string -> verb_class option
(** The class of the verb a line starts with; [None] when the shell has
    no such verb (it answers the line with an error).  Each verb is
    declared once, in the shell's table, with its class: the server
    routes a write to group commit and caches a cached read by it. *)

val resolve : t -> string -> string
(** The explicit form of a line: a bare [focus], [menu], [why],
    [history] or [source] names the session's cursor (if it has one), a
    bare [config] the session's level, a bare [deps] the scenario's
    [Papers]; any other line is returned as it is. *)

val observe : t -> string -> string -> unit
(** [observe t line answer] applies to the session what answering the
    resolved [line] with [answer] implies: [focus OBJ] moves the cursor
    to [OBJ], [config LEVEL] sets the level, and an answer starting
    with ["error:"] changes nothing.  A server that answers a resolved
    line from its cache calls this in place of {!eval}. *)

val is_quit : string -> bool
(** Does the line ask to leave ([quit] / [exit])? *)
