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

let words line =
  List.filter (fun w -> w <> "") (String.split_on_char ' ' (String.trim line))

let fmt = Format.asprintf

let render_result name = function
  | Ok (executed : Decision.executed) ->
    String.concat ""
      [ name; " executed: decision "; Symbol.name executed.Decision.decision; " -> ";
        String.concat ", " (List.map (fun (_, o) -> Symbol.name o) executed.Decision.outputs) ]
  | Error e -> "error: " ^ e

let render_report = function
  | Ok report -> fmt "%a" Backtrack.pp_report report
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

(* An operand must name a proposition: [Kb.exists] only probes the
   symbol table, so a client cannot mint symbols through these verbs
   (nor through [config LEVEL], which checks its level the same way). *)
let with_target t name k =
  if Cml.Kb.exists (Repo.kb t.state.Scenario.repo) name then k (Symbol.intern name)
  else "error: no object " ^ name

(* the verb table ---------------------------------------------------------- *)

type verb_class = Cached_read | Uncached_read | Write

(* Each verb is declared once, here: [eval], [help], [resolve],
   [observe] and the server's routing, caching and metric labels all
   read this table. *)
type verb = {
  name : string;
  usage : string;  (** the operands, as [help] and a usage error show them *)
  doc : string;  (** what it does, for [help] *)
  cls : verb_class;
  bare : t -> string option;
      (** the operand a bare form names, which [resolve] makes explicit *)
  observe : t -> string -> unit;
      (** the session update a successful [name OPERAND] implies *)
  run : t -> string -> string list -> string;
      (** the answer to a resolved line, given its operands *)
}

(* raised by a handler given operands its verb does not take *)
exception Usage

let verb ?(usage = "") ?(bare = fun _ -> None) ?(observe = fun _ _ -> ()) name cls
    doc run =
  { name; usage; doc; cls; bare; observe; run }

let synopsis v = if v.usage = "" then v.name else v.name ^ " " ^ v.usage

(* a verb without operands *)
let plain name cls doc answer =
  verb name cls doc (fun t _ -> function [] -> answer t | _ -> raise Usage)

(* a browsing verb on one object, by default the session's cursor *)
let browse ?observe name doc answer =
  verb name Cached_read doc ~usage:"[OBJ]" ?observe
    ~bare:(fun t -> Option.map Symbol.name t.cursor)
    (fun t _ -> function
      | [] -> "error: no focus set (use 'focus OBJECT' first)"
      | [ name ] -> with_target t name (answer (repository t))
      | _ -> raise Usage)

(* a verb whose operands are one formula or atom *)
let query name usage doc parse answer =
  verb name Cached_read doc ~usage
    (fun t _ ws ->
      match parse (String.concat " " ws) with
      | Error e -> "error: " ^ e
      | Ok x -> (
        match answer (Repo.kb (repository t)) x with
        | Ok out -> out
        | Error e -> "error: " ^ e))

let check_all repo =
  let consistency =
    match Cml.Consistency.check_all (Repo.kb repo) with
    | [] -> "consistency: ok"
    | vs ->
      "consistency:\n"
      ^ String.concat "\n" (List.map (fmt "  %a" Cml.Consistency.pp_violation) vs)
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
    | objs -> "unsupported: " ^ String.concat ", " (List.map Symbol.name objs)
  in
  String.concat "\n" [ consistency; methodology; support ]

let help table =
  String.concat "\n"
    (("commands:"
     :: List.map (fun v -> Printf.sprintf "  %-34s %s" (synopsis v) v.doc) table)
    @ [ "(focus OBJ sets this session's cursor, which menu, why, history and \
         source then default to; quit leaves)" ])

let rec table =
  lazy
    [
      plain "help" Cached_read "this list" (fun _ -> help (Lazy.force table));
      plain "stats" Cached_read "KB statistics" (fun t ->
          let repo = repository t in
          fmt "propositions: %d; design objects: %d; decisions: %d"
            (Store.Base.cardinal (Cml.Kb.base (Repo.kb repo)))
            (Repo.design_object_count repo) (Repo.log_length repo));
      plain "unmapped" Cached_read "TaxisDL classes not yet mapped (fig 2-1)"
        (fun t ->
          String.concat ", "
            (List.map Symbol.name (Navigation.unmapped_objects (repository t))));
      browse "focus" "focus view; moves this session's cursor"
        ~observe:(fun t name -> t.cursor <- Some (Symbol.intern name))
        (fun repo obj -> fmt "%a" Navigation.pp_focus (Navigation.focus repo obj));
      browse "menu" "applicable decision classes" (fun repo obj ->
          String.concat "\n"
            (List.map
               (fun (e : Decision.menu_entry) ->
                 Printf.sprintf "%s (role %s) via %s" e.Decision.decision_class
                   e.Decision.role
                   (String.concat ", " e.Decision.tools))
               (Decision.applicable repo obj)));
      verb "run" Write "execute a decision" ~usage:"CLASS TOOL ROLE=OBJ.. [K=V..]"
        (fun t line -> function
          | dc :: tool :: rest ->
            let bindings =
              List.filter_map
                (fun w ->
                  match String.index_opt w '=' with
                  | Some i ->
                    Some
                      (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
                  | None -> None)
                rest
            in
            render_result "run"
              (Decision.run (repository t) ~decision_class:dc ~tool
                 ~rationale:("shell: " ^ line) bindings)
          | _ -> raise Usage);
      plain "map" Write "scenario: move-down mapping (fig 2-2)" (fun t ->
          render_result "map" (Scenario.map_move_down t.state));
      plain "normalize" Write "scenario: normalize the invitations (fig 2-3)"
        (fun t ->
          refresh_invitation_rel t;
          render_result "normalize" (Scenario.normalize_invitations t.state));
      plain "key" Write "scenario: associative key (fig 2-3)" (fun t ->
          refresh_invitation_rel t;
          render_result "key" (Scenario.substitute_key t.state));
      plain "minutes" Write "scenario: map Minutes (fig 2-4)" (fun t ->
          render_result "minutes" (Scenario.introduce_minutes t.state));
      plain "resolve" Write "retract the decision the conflict defeats" (fun t ->
          render_report (Scenario.resolve_conflict t.state));
      verb "retract" Write "retract a decision and only its consequences"
        ~usage:"DEC" (fun t _ -> function
        | [ dec ] -> (
          (* probe, do not intern: a client cannot mint symbols here *)
          let repo = repository t in
          match Symbol.find_opt dec with
          | Some id when not (Repo.is_logged repo id) -> "error: no decision " ^ dec
          | Some id when Decision.decision_class_of repo id = Some Metamodel.dec_retract ->
            (* retracting it would erase its record and restore nothing *)
            "error: " ^ dec ^ " is a retraction, which cannot be retracted"
          | Some id ->
            render_report
              (Backtrack.retract repo id ~rationale:("shell: retract " ^ dec) ())
          | None -> "error: no decision " ^ dec)
        | _ -> raise Usage);
      browse "why" "explanation chain" (fun repo obj ->
          fmt "%a" Explain.pp_why (Explain.why repo obj));
      browse "history" "version history" (fun repo obj ->
          String.concat "\n"
            (List.map
               (fun (v, dec, belief) ->
                 Printf.sprintf "%s (decision %s, learnt at t=%d)" (Symbol.name v)
                   (match dec with Some d -> Symbol.name d | None -> "-")
                   belief)
               (Navigation.history_of repo obj)));
      browse "source" "code frame" (fun repo obj ->
          match Repo.source_text repo obj with
          | Some src -> src
          | None -> "error: no source recorded for " ^ Symbol.name obj);
      verb "deps" Cached_read "dependency graph (default Papers)"
        ~usage:"[OBJ|--dot]"
        ~bare:(fun t -> Some (Symbol.name t.state.Scenario.papers))
        (fun t _ -> function
          | [ "--dot" ] -> Depgraph.to_dot (repository t)
          | [ name ] ->
            with_target t name (fun obj -> fmt "%a" (Depgraph.pp (repository t)) obj)
          | _ -> raise Usage);
      verb "config" Cached_read "DBPL configuration; LEVEL sets the session's level"
        ~usage:"[LEVEL]"
        ~bare:(fun t -> Some t.config_level)
        ~observe:(fun t level -> t.config_level <- level)
        (fun t _ -> function
          | [ level ] when not (Cml.Kb.exists (Repo.kb (repository t)) level) ->
            "error: no level " ^ level
          | [ level ] -> (
            let repo = repository t in
            let config = Version.configure repo ~level in
            match Version.to_dbpl_module repo config ~name:"Configured" with
            | Ok m ->
              fmt "%a@.@.%a" (Version.pp_configuration repo) config
                Langs.Dbpl.pp_module m
            | Error e -> fmt "%a@.error: %s" (Version.pp_configuration repo) config e)
          | _ -> raise Usage);
      plain "check" Cached_read "consistency, methodology and support audit"
        (fun t -> check_all (repository t));
      query "ask" "FORMULA" "evaluate a closed assertion" Langs.Assertion.parse_formula
        (fun kb f -> Result.map string_of_bool (Cml.Kb.ask kb f));
      query "derive" "ATOM" "query the deductive view (answers sorted)"
        Langs.Assertion.parse_atom (fun kb goal ->
          match Cml.Kb.derive kb goal with
          | Ok [] -> Ok "no."
          | Ok substs ->
            (* Answer order follows the store's hash-table enumeration,
               which depends on insertion history; sort the rendered
               bindings so transcripts are deterministic. *)
            Ok
              (String.concat "\n"
                 (List.sort_uniq String.compare
                    (List.map (fmt "%a" Logic.Term.Subst.pp) substs)))
          | Error e -> Error e);
      query "explain" "ATOM" "what the tabled prover did for the goal"
        Langs.Assertion.parse_atom (fun kb goal ->
          Result.map String.trim (Cml.Kb.explain kb goal));
      verb "save" Uncached_read "snapshot the repository" ~usage:"FILE"
        (fun t _ -> function
          | [ file ] -> (
            match Persist.save_to_file (repository t) file with
            | Ok () -> "saved to " ^ file
            | Error e -> "error: " ^ e)
          | _ -> raise Usage);
      verb "load" Write "replace the repository (refused when shared)"
        ~usage:"FILE" (fun t _ -> function
        | [ _ ] when t.shared ->
          "error: load is unavailable here: this session shares one repository \
           with other clients (and any replication followers), and load would \
           swap it out from under them; run load in a standalone shell, or \
           restart the server on the saved file"
        | [ file ] -> (
          match Persist.load_from_file file with
          | Ok repo' ->
            t.state <- scenario_state repo';
            t.cursor <- None;
            Printf.sprintf "loaded %s: %d decisions" file (Repo.log_length repo')
          | Error e -> "error: " ^ e)
        | _ -> raise Usage);
      verb "trace" Uncached_read "a decision's flight-recorder entries"
        ~usage:"decision ID" (fun _ _ -> function
        | [ "decision"; id ] -> Obs.Recorder.render_for id
        | _ -> raise Usage);
    ]

let find_verb name = List.find_opt (fun v -> String.equal v.name name) (Lazy.force table)

let verb_class line =
  match words line with
  | name :: _ -> Option.map (fun v -> v.cls) (find_verb name)
  | [] -> None

(* The explicit form of a line: a bare verb names the operand its table
   entry gives (the session's cursor, its level, the scenario's Papers).
   The answer then depends on the repository and the line alone, which
   is what lets the server cache it under this line. *)
let resolve t line =
  match words line with
  | [ name ] -> (
    match Option.bind (find_verb name) (fun v -> v.bare t) with
    | Some operand -> name ^ " " ^ operand
    | None -> line)
  | _ -> line

let is_error answer = String.starts_with ~prefix:"error:" answer

(* The session update answering a resolved line implies; an error
   answer implies none. *)
let observe t line answer =
  match words line with
  | [ name; operand ] when not (is_error answer) ->
    Option.iter (fun v -> v.observe t operand) (find_verb name)
  | _ -> ()

let eval t line =
  Obs.Trace.with_span "shell.eval" ~attrs:[ ("cmd", line) ] @@ fun () ->
  let line = resolve t line in
  let out =
    match words line with
    | [] -> ""
    | name :: operands -> (
      match find_verb name with
      | None -> "error: unknown command " ^ name ^ " (try 'help')"
      | Some v -> ( try v.run t line operands with Usage -> "error: usage: " ^ synopsis v))
  in
  observe t line out;
  out
