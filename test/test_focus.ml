(* Focused reads: the indexed decision log, [focus] and [deps] read off
   the focus's neighbourhood, and operands that name no object. *)

open Kernel
module Repo = Gkbms.Repository
module Shell = Gkbms.Shell
module Nav = Gkbms.Navigation
module Scn = Gkbms.Scenario
module G = Kbgraph.Digraph

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

open Helpers

(* the decision log index against the list it replaced ------------------- *)

type op = Log of int | Unlog of int

let pp_op = function
  | Log i -> Printf.sprintf "log %d" i
  | Unlog i -> Printf.sprintf "unlog %d" i

(* The list semantics: logging appends an id not yet logged, unlogging
   filters it out.  The index must agree on order, membership and
   length, hand out positions that rise along the log, keep a logged
   id's position while it stays logged, and give a re-logged id a
   position above every earlier one. *)
let prop_log_index =
  let gen =
    QCheck.Gen.(
      list_size (int_range 0 80)
        (map2 (fun log i -> if log then Log i else Unlog i) bool (int_bound 7)))
  in
  QCheck.Test.make ~name:"log index ≡ list semantics" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_op ops)) gen)
    (fun ops ->
      let repo = Repo.create ~install_metamodel:false () in
      let id i = Symbol.intern (Printf.sprintf "logmodel%d" i) in
      let model = ref [] and top = ref (-1) and held = Hashtbl.create 8 in
      List.for_all
        (fun op ->
          (match op with
          | Log i ->
            Repo.log_decision repo (id i);
            if not (List.mem i !model) then model := !model @ [ i ]
          | Unlog i ->
            Repo.unlog_decision repo (id i);
            model := List.filter (( <> ) i) !model;
            Hashtbl.remove held i);
          let log = Repo.decision_log repo in
          let positions = List.map (fun d -> Option.get (Repo.position repo d)) log in
          let rec rising = function
            | a :: (b :: _ as rest) -> a < b && rising rest
            | _ -> true
          in
          let iterated = ref [] in
          Repo.iter_log repo (fun d -> iterated := d :: !iterated);
          let fresh_ok =
            match op with
            | Log i when not (Hashtbl.mem held i) ->
              let p = Option.get (Repo.position repo (id i)) in
              let above = p > !top in
              top := p;
              Hashtbl.replace held i p;
              above
            | Log _ | Unlog _ -> true
          in
          log = List.map id !model
          && List.rev !iterated = log
          && Repo.log_length repo = List.length !model
          && List.for_all
               (fun i -> Repo.is_logged repo (id i) = List.mem i !model)
               [ 0; 1; 2; 3; 4; 5; 6; 7 ]
          && rising positions && fresh_ok
          && Hashtbl.fold
               (fun i p acc -> acc && Repo.position repo (id i) = Some p)
               held true)
        ops)

(* focus and deps against the whole-history reference ------------------- *)

let edit sh obj text =
  let out =
    Shell.eval sh (Printf.sprintf "run DecManualEdit Editor object=%s text=%s" obj text)
  in
  match String.rindex_opt out '>' with
  | Some i when String.starts_with ~prefix:"run executed" out ->
    String.trim (String.sub out (i + 1) (String.length out - i - 1))
  | _ -> Alcotest.failf "edit of %s answered %S" obj out

(* The §2.1 scenario through its selective backtrack, then 24
   documents, 96 tip edits dealt in a scrambled order, three more
   selective backtracks that each take a chain's tail with them, edits
   that reuse the freed names, and more edits of three base versions,
   whose several consumers must be listed in log order. *)
let scripted_history () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  ignore (ok (Scn.substitute_key st));
  ignore (ok (Scn.introduce_minutes st));
  ignore (ok (Scn.resolve_conflict st));
  let repo = st.Scn.repo in
  let sh = Shell.session repo in
  let docs = 24 in
  let tips = Array.init docs (fun i -> Printf.sprintf "FocusDoc%dy" i) in
  Array.iter
    (fun name ->
      ignore
        (ok
           (Repo.new_object repo ~name ~cls:Gkbms.Metamodel.dbpl_object
              (Repo.Text "v0"))))
    tips;
  for k = 0 to 95 do
    let i = k * 7 mod docs in
    tips.(i) <- edit sh tips.(i) (Printf.sprintf "s%d" k)
  done;
  List.iter
    (fun i ->
      let second = Symbol.intern (Printf.sprintf "FocusDoc%dy2" i) in
      let dec = Option.get (Gkbms.Decision.justifying_decision repo second) in
      ignore (ok (Gkbms.Backtrack.retract repo dec ()));
      tips.(i) <- edit sh (Printf.sprintf "FocusDoc%dy" i) (Printf.sprintf "again%d" i))
    [ 3; 11; 20 ];
  List.iter
    (fun i -> ignore (edit sh (Printf.sprintf "FocusDoc%dy" i) "fan"))
    [ 0; 5; 0; 9; 5; 0 ];
  repo

(* the consumers a walk of the whole log finds, for every object *)
let logged_consumers repo =
  let tbl = Symbol.Tbl.create 256 in
  List.iter
    (fun dec ->
      List.iter
        (fun (_, input) ->
          let prev = Option.value (Symbol.Tbl.find_opt tbl input) ~default:[] in
          if not (List.exists (Symbol.equal dec) prev) then
            Symbol.Tbl.replace tbl input (dec :: prev))
        (Gkbms.Decision.inputs_of repo dec))
    (Repo.decision_log repo);
  fun obj -> List.rev (Option.value (Symbol.Tbl.find_opt tbl obj) ~default:[])

(* the focus view with its consuming decisions taken from the log walk *)
let reference_focus consumers repo obj =
  let view = Nav.focus repo obj in
  let others =
    List.filter
      (function Nav.Process_downstream _ -> false | _ -> true)
      view.Nav.directions
  in
  let downstream =
    match consumers obj with [] -> [] | decs -> [ Nav.Process_downstream decs ]
  in
  let rec place = function
    | (Nav.Status _ | Nav.Process_upstream _) as d :: rest -> d :: place rest
    | rest -> downstream @ rest
  in
  Format.asprintf "%a" Nav.pp_focus { view with Nav.directions = place others }

(* the rendering of the whole dependency graph *)
let reference_deps g obj =
  Format.asprintf "%a"
    (fun ppf () ->
      if G.mem_node g obj then G.pp_ascii_dag ~max_depth:8 g ppf obj
      else
        Format.fprintf ppf "%s (not in the dependency graph)@." (Symbol.name obj))
    ()

let test_focus_and_deps_differential () =
  let repo = scripted_history () in
  let sh = Shell.session repo in
  let consumers = logged_consumers repo in
  let g = Gkbms.Depgraph.build repo in
  let targets =
    Repo.all_design_objects repo @ Repo.decision_log repo
    @ List.map Symbol.intern
        [ "Editor"; "MoveDownMapper"; "DecManualEdit"; "DBPL_Object"; "Papers" ]
  in
  let consumed = ref 0 and outside = ref 0 and back = ref 0 in
  List.iter
    (fun obj ->
      let name = Symbol.name obj in
      let focus = Shell.eval sh ("focus " ^ name) in
      check string ("focus " ^ name) (reference_focus consumers repo obj) focus;
      if contains "consumed by:" focus then incr consumed;
      let deps = Shell.eval sh ("deps " ^ name) in
      check string ("deps " ^ name) (reference_deps g obj) deps;
      if contains "(not in the dependency graph)" deps then incr outside;
      if contains "(^)" deps then incr back)
    targets;
  (* every branch of the comparison was taken *)
  check bool "some objects consumed" true (!consumed > 50);
  check bool "some objects outside the graph" true (!outside > 0);
  check bool "some back-references" true (!back > 50)

(* operands that name no object ------------------------------------------ *)

let test_unknown_objects () =
  let shell = ok (Shell.create ()) in
  ignore (Shell.eval shell "map");
  let known = Shell.eval shell "focus InvitationRel" in
  let name = "NoSuchObject" ^ string_of_int (Symbol.count ()) in
  let before = Symbol.count () in
  List.iter
    (fun verb ->
      check string verb
        ("error: no object " ^ name)
        (Shell.eval shell (verb ^ " " ^ name)))
    [ "focus"; "menu"; "why"; "history"; "source"; "deps" ];
  check int "no symbol minted" before (Symbol.count ());
  check bool "not interned" true (Symbol.find_opt name = None);
  (* the failed focus left the cursor where it was *)
  check string "cursor unchanged" known (Shell.eval shell "focus");
  (* a run's parameter values are not interned by the object test *)
  let text = "freshparam" ^ string_of_int (Symbol.count ()) in
  check bool "edit ran" true
    (contains "run executed"
       (Shell.eval shell
          ("run DecManualEdit Editor object=InvitationRel text=" ^ text)));
  check bool "parameter value not interned" true (Symbol.find_opt text = None);
  check bool "find_opt finds interned" true
    (Symbol.find_opt "InvitationRel" = Some (Symbol.intern "InvitationRel"))

(* a level that names no proposition is an error: it mints nothing,
   grows no memo, and leaves the session's level where it was *)
let test_unknown_config_level () =
  let st = ok (Scn.setup ()) in
  let shell = Shell.session st.Scn.repo in
  ignore (Shell.eval shell "map");
  let kb = Repo.kb st.Scn.repo in
  let level = Shell.eval shell "config" in
  let stem = "NoLevel" ^ string_of_int (Symbol.count ()) in
  let symbols = Symbol.count () and memos = (Cml.Kb.cache_stats kb).Cml.Kb.entries in
  for i = 1 to 100 do
    let name = stem ^ "_" ^ string_of_int i in
    check string "error" ("error: no level " ^ name)
      (Shell.eval shell ("config " ^ name))
  done;
  check int "no symbol minted" symbols (Symbol.count ());
  check int "no memo entry" memos (Cml.Kb.cache_stats kb).Cml.Kb.entries;
  check string "bare config resolves to the old level" "config DBPL_Object"
    (Shell.resolve shell "config");
  check string "and answers as before" level (Shell.eval shell "config")

(* a resolved line answers as the bare one did; observe replays the
   cursor and level updates *)
let test_resolve_and_observe () =
  let shell = ok (Shell.create ()) in
  ignore (Shell.eval shell "map");
  check string "bare menu, no cursor" "menu" (Shell.resolve shell "menu");
  check string "bare config" "config DBPL_Object" (Shell.resolve shell "config");
  check string "bare deps" "deps Papers" (Shell.resolve shell "deps");
  check string "explicit kept" "why X" (Shell.resolve shell "why X");
  Shell.observe shell "focus InvitationRel" "focus: InvitationRel";
  check string "cursor from observe" "history InvitationRel"
    (Shell.resolve shell "history");
  Shell.observe shell "focus Papers" "error: no object Papers";
  check string "an error moves nothing" "why InvitationRel"
    (Shell.resolve shell "why");
  Shell.observe shell "config DBPL_Rel" "configuration over DBPL_Rel";
  check string "level from observe" "config DBPL_Rel" (Shell.resolve shell "config")

let suite =
  [
    QCheck_alcotest.to_alcotest prop_log_index;
    ("focus and deps ≡ the whole-history reference", `Quick,
     test_focus_and_deps_differential);
    ("unknown objects are errors and mint nothing", `Quick, test_unknown_objects);
    ("unknown config level is an error and mints nothing", `Quick,
     test_unknown_config_level);
    ("resolve and observe", `Quick, test_resolve_and_observe);
  ]
