open Kernel
module Repo = Repository

type t = {
  mutable state : Scenario.state;
  mutable cursor : Prop.id option;
      (** per-session browsing focus (fig 2-1's focus object) *)
  mutable config_level : string;
      (** per-session configuration level for [config] *)
  shared : bool;
      (** session on a repository shared with other sessions: commands
          that would swap the repository out from under them ([load])
          are refused *)
}

let make ?(shared = false) state =
  { state; cursor = None; config_level = Metamodel.dbpl_object; shared }

let create () =
  match Scenario.setup () with
  | Ok state -> Ok (make state)
  | Error e -> Error e

let scenario_state repo =
  {
    Scenario.repo;
    design_doc = Symbol.intern "MeetingDocuments";
    papers = Symbol.intern "Papers";
    invitations = Symbol.intern "Invitations";
    invitation_rel = Symbol.intern "InvitationRel";
    mapping_dec = None;
    normalize_dec = None;
    key_dec = None;
    minutes_dec = None;
  }

let of_repository repo = make (scenario_state repo)
let session repo = make ~shared:true (scenario_state repo)

let repository t = t.state.Scenario.repo

let is_quit line =
  match String.trim (String.lowercase_ascii line) with
  | "quit" | "exit" | "q" -> true
  | _ -> false

(* Every verb [eval] dispatches on (plus the quit forms), in help
   order.  The server's classification table is checked against this
   list by a test, so adding a verb here without classifying it there
   fails loudly instead of silently defaulting. *)
let verbs =
  [
    "help"; "stats"; "trace"; "unmapped"; "focus"; "menu"; "run";
    "map"; "normalize"; "key"; "minutes"; "resolve"; "why"; "history";
    "source"; "deps"; "config"; "check"; "ask"; "derive"; "explain";
    "save"; "load"; "quit"; "exit"; "q";
  ]

let help_text =
  "commands: help stats unmapped focus [OBJ] menu [OBJ] run CLASS TOOL \
   ROLE=OBJ.. [K=V..]\n\
  \          map normalize key minutes resolve why [OBJ] history [OBJ] \
   source [OBJ]\n\
  \          deps [OBJ|--dot] config [LEVEL] check ask FORMULA derive ATOM \
   explain ATOM save FILE load FILE quit\n\
  \          trace decision ID\n\
  \          (focus OBJ sets this session's cursor; menu/why/history/source \
   then default to it)"

let words line =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line))

let fmt = Format.asprintf

let render_result name = function
  | Ok (executed : Decision.executed) ->
    String.concat ""
      [ name; " executed: decision "; Symbol.name executed.Decision.decision; " -> ";
        String.concat ", " (List.map (fun (_, o) -> Symbol.name o) executed.Decision.outputs) ]
  | Error e -> "error: " ^ e

(* The scenario shortcuts track "the current version of the invitation
   relation" in per-session state; on a shared repository another
   session may have advanced the version chain since, so re-resolve the
   chain's tip before acting on it. *)
let refresh_invitation_rel t =
  let st = t.state in
  let repo = st.Scenario.repo in
  match List.rev (Version.version_chain repo st.Scenario.invitation_rel) with
  | tip :: _ -> st.Scenario.invitation_rel <- tip
  | [] -> ()

(* The explicit form of a line: a bare browsing verb names the session
   cursor (when one is set), a bare [config] the session's level and a
   bare [deps] the scenario's Papers.  [answer] then depends on the
   repository and the line alone, which is what lets the server cache
   it under this line. *)
let resolve_words t line = function
  | [ ("focus" | "menu" | "why" | "history" | "source") as verb ] -> (
    match t.cursor with
    | Some obj -> verb ^ " " ^ Symbol.name obj
    | None -> line)
  | [ "config" ] -> "config " ^ t.config_level
  | [ "deps" ] -> "deps " ^ Symbol.name t.state.Scenario.papers
  | _ -> line

let resolve t line = resolve_words t line (words line)

(* The session update answering a resolved line implies; an error
   answer implies none. *)
let observe_words t ws answer =
  if not (String.starts_with ~prefix:"error:" answer) then
    match ws with
    | [ "focus"; name ] -> t.cursor <- Some (Symbol.intern name)
    | [ "config"; level ] -> t.config_level <- level
    | _ -> ()

let observe t line answer = observe_words t (words line) answer

(* An operand must name a proposition: [Kb.exists] only probes the
   symbol table, so a client cannot mint symbols through these verbs
   (nor through [config LEVEL], which checks its level the same way). *)
let with_target t name k =
  if Cml.Kb.exists (Repo.kb t.state.Scenario.repo) name then k (Symbol.intern name)
  else "error: no object " ^ name

let answer t line ws =
  let repo = t.state.Scenario.repo in
  match ws with
  | [] -> ""
  | [ "help" ] -> help_text
  | [ "stats" ] ->
    fmt "propositions: %d; design objects: %d; decisions: %d"
      (Store.Base.cardinal (Cml.Kb.base (Repo.kb repo)))
      (Repo.design_object_count repo)
      (Repo.log_length repo)
  | [ "trace"; "decision"; id ] -> Obs.Recorder.render_for id
  | [ "unmapped" ] ->
    String.concat ", "
      (List.map Symbol.name (Navigation.unmapped_objects repo))
  (* a bare browsing verb [resolve] found no cursor for *)
  | [ ("focus" | "menu" | "why" | "history" | "source") ] ->
    "error: no focus set (use 'focus OBJECT' first)"
  | [ "focus"; name ] ->
    with_target t name (fun obj ->
        fmt "%a" Navigation.pp_focus (Navigation.focus repo obj))
  | [ "menu"; name ] ->
    with_target t name (fun obj ->
        String.concat "\n"
          (List.map
             (fun (e : Decision.menu_entry) ->
               Printf.sprintf "%s (role %s) via %s" e.Decision.decision_class
                 e.Decision.role
                 (String.concat ", " e.Decision.tools))
             (Decision.applicable repo obj)))
  | "run" :: dc :: tool :: rest ->
    let bindings =
      List.filter_map
        (fun w ->
          match String.index_opt w '=' with
          | Some i -> Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
          | None -> None)
        rest
    in
    render_result "run"
      (Decision.run repo ~decision_class:dc ~tool ~rationale:("shell: " ^ line) bindings)
  | [ "map" ] -> render_result "map" (Scenario.map_move_down t.state)
  | [ "normalize" ] ->
    refresh_invitation_rel t;
    render_result "normalize" (Scenario.normalize_invitations t.state)
  | [ "key" ] ->
    refresh_invitation_rel t;
    render_result "key" (Scenario.substitute_key t.state)
  | [ "minutes" ] -> render_result "minutes" (Scenario.introduce_minutes t.state)
  | [ "resolve" ] -> (
    match Scenario.resolve_conflict t.state with
    | Ok report -> fmt "%a" Backtrack.pp_report report
    | Error e -> "error: " ^ e)
  | [ "why"; name ] ->
    with_target t name (fun obj -> fmt "%a" Explain.pp_why (Explain.why repo obj))
  | [ "history"; name ] ->
    with_target t name (fun obj ->
        String.concat "\n"
          (List.map
             (fun (v, dec, belief) ->
               Printf.sprintf "%s (decision %s, learnt at t=%d)" (Symbol.name v)
                 (match dec with Some d -> Symbol.name d | None -> "-")
                 belief)
             (Navigation.history_of repo obj)))
  | [ "source"; name ] ->
    with_target t name (fun obj ->
        match Repo.source_text repo obj with
        | Some src -> src
        | None -> "error: no source recorded for " ^ Symbol.name obj)
  | [ "deps"; "--dot" ] -> Depgraph.to_dot repo
  | [ "deps"; name ] ->
    with_target t name (fun obj -> fmt "%a" (Depgraph.pp repo) obj)
  | [ "config"; level ] when not (Cml.Kb.exists (Repo.kb repo) level) ->
    "error: no level " ^ level
  | [ "config"; level ] -> (
    let config = Version.configure repo ~level in
    match Version.to_dbpl_module repo config ~name:"Configured" with
    | Ok m -> fmt "%a@.@.%a" (Version.pp_configuration repo) config Langs.Dbpl.pp_module m
    | Error e -> fmt "%a@.error: %s" (Version.pp_configuration repo) config e)
  | [ "check" ] ->
    let consistency =
      match Cml.Consistency.check_all (Repo.kb repo) with
      | [] -> "consistency: ok"
      | vs ->
        "consistency:\n"
        ^ String.concat "\n"
            (List.map (fmt "  %a" Cml.Consistency.pp_violation) vs)
    in
    let methodology =
      match Methodology.check_history repo Methodology.daida_kernel with
      | [] -> "methodology: conforms"
      | vs ->
        "methodology:\n"
        ^ String.concat "\n" (List.map (fmt "  %a" Methodology.pp_violation) vs)
    in
    let support =
      match Backtrack.unsupported_objects repo with
      | [] -> "support: all design objects supported"
      | objs ->
        "unsupported: " ^ String.concat ", " (List.map Symbol.name objs)
    in
    String.concat "\n" [ consistency; methodology; support ]
  | "ask" :: rest -> (
    let text = String.concat " " rest in
    match Langs.Assertion.parse_formula text with
    | Error e -> "error: " ^ e
    | Ok f -> (
      match Cml.Kb.ask (Repo.kb repo) f with
      | Ok b -> string_of_bool b
      | Error e -> "error: " ^ e))
  | "derive" :: rest -> (
    let text = String.concat " " rest in
    match Langs.Assertion.parse_atom text with
    | Error e -> "error: " ^ e
    | Ok goal -> (
      match Cml.Kb.derive (Repo.kb repo) goal with
      | Ok [] -> "no."
      | Ok substs ->
        (* Answer order follows the store's hash-table enumeration,
           which depends on insertion history; sort the rendered
           bindings so transcripts are deterministic. *)
        String.concat "\n"
          (List.sort_uniq String.compare
             (List.map (fmt "%a" Logic.Term.Subst.pp) substs))
      | Error e -> "error: " ^ e))
  | "explain" :: rest -> (
    let text = String.concat " " rest in
    match Langs.Assertion.parse_atom text with
    | Error e -> "error: " ^ e
    | Ok goal -> (
      match Cml.Kb.explain (Repo.kb repo) goal with
      | Ok report -> String.trim report
      | Error e -> "error: " ^ e))
  | [ "save"; file ] -> (
    match Persist.save_to_file repo file with
    | Ok () -> "saved to " ^ file
    | Error e -> "error: " ^ e)
  | [ "load"; file ] -> (
    if t.shared then
      "error: load is unavailable here: this session shares one repository \
       with other clients (and any replication followers), and load would \
       swap it out from under them; run load in a standalone shell, or \
       restart the server on the saved file"
    else
      match Persist.load_from_file file with
      | Ok repo' ->
        t.state <- scenario_state repo';
        t.cursor <- None;
        Printf.sprintf "loaded %s: %d decisions" file
          (Repo.log_length repo')
      | Error e -> "error: " ^ e)
  | cmd :: _ -> "error: unknown command " ^ cmd ^ " (try 'help')"

(* the line is split once, and again only when [resolve] rewrote it *)
let eval t line =
  Obs.Trace.with_span "shell.eval" ~attrs:[ ("cmd", line) ] @@ fun () ->
  let ws = words line in
  let resolved = resolve_words t line ws in
  let ws = if resolved == line then ws else words resolved in
  let out = answer t resolved ws in
  observe_words t ws out;
  out
