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
    reported in the output, prefixed with ["error:"]).  An operand of
    [focus], [menu], [why], [history], [source] or [deps] that names no
    proposition is answered [error: no object NAME].  Commands:
    {v
help                       this list
stats                      KB statistics
unmapped                   TaxisDL classes not yet mapped (fig 2-1)
focus [OBJECT]             focus view; with OBJECT, sets this session's cursor
menu [OBJECT]              applicable decision classes (default: the cursor)
run CLASS TOOL ROLE=OBJ... [KEY=VALUE...]   execute a decision
map | normalize | key | minutes | resolve   scenario shortcuts
why [OBJECT]               explanation chain (default: the cursor)
history [OBJECT]           version history (default: the cursor)
source [OBJECT]            code frame (default: the cursor)
deps [OBJECT]              dependency graph (ASCII)
config [LEVEL]             DBPL configuration; LEVEL sets the session's level
check                      consistency + methodology + support audit
ask FORMULA                evaluate a closed assertion
derive ATOM                query the deductive view (answers sorted)
explain ATOM               what the tabled prover did for the goal
save FILE / load FILE      snapshot the repository (load refused when shared)
v}
    [eval t line] is [resolve], then the answer, then [observe]. *)

val resolve : t -> string -> string
(** The explicit form of a line: a bare [focus], [menu], [why],
    [history] or [source] names the session's cursor (if it has one), a
    bare [config] the session's level, a bare [deps] the scenario's
    [Papers]; any other line is returned as it is.  The answer to a
    resolved [focus], [menu], [why], [history], [source], [deps] or
    [config] line depends on the repository alone, so a server may
    cache it under that line. *)

val observe : t -> string -> string -> unit
(** [observe t line answer] applies to the session what answering the
    resolved [line] with [answer] implies: [focus OBJ] moves the cursor
    to [OBJ], [config LEVEL] sets the level, and an answer starting
    with ["error:"] changes nothing.  A server that answers a resolved
    line from its cache calls this in place of {!eval}. *)

val is_quit : string -> bool
(** Does the line ask to leave ([quit] / [exit])? *)

val verbs : string list
(** Every verb {!eval} dispatches on, plus the quit forms.  The
    server's read/write classification table is tested against this
    list, so a new shell verb must be classified explicitly. *)
