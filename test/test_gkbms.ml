open Kernel
module Repo = Gkbms.Repository
module Meta = Gkbms.Metamodel
module Dec = Gkbms.Decision
module Map_ = Gkbms.Mapping
module Bt = Gkbms.Backtrack
module Ver = Gkbms.Version
module Nav = Gkbms.Navigation
module Scn = Gkbms.Scenario
module Dg = Gkbms.Depgraph
module J = Tms.Jtms
module Tdl = Langs.Taxis_dl
module Dbpl = Langs.Dbpl

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let sym = Symbol.intern

open Helpers

let names ids = List.sort String.compare (List.map Symbol.name ids)

(* metamodel ------------------------------------------------------------- *)

let test_metamodel_installed () =
  let repo = Repo.create () in
  let kb = Repo.kb repo in
  List.iter
    (fun c -> check bool c true (Cml.Kb.exists kb c))
    [ Meta.design_object; Meta.design_decision; Meta.design_tool;
      Meta.dbpl_rel; Meta.dec_move_down; Meta.dec_normalize ];
  check bool "Normalized isa Rel" true
    (List.exists (Symbol.equal (sym Meta.dbpl_rel))
       (Cml.Kb.isa_supers kb (sym Meta.dbpl_rel_normalized)));
  check bool "metamodel consistent" true
    (Cml.Consistency.check_all kb = [])

let test_metamodel_obligations () =
  check bool "normalize has obligations" true
    (List.length (Meta.obligations_of Meta.dec_normalize) >= 2);
  check Alcotest.(list string) "unknown class" []
    (Meta.obligations_of "NoSuchDec")

(* repository ------------------------------------------------------------- *)

let test_repository_objects_and_sources () =
  let repo = Repo.create () in
  let rel =
    Dbpl.relation ~key:[ "k" ] ~name:"TestRel" ~rec_name:"TestType"
      [ Dbpl.field "k" Dbpl.Surrogate ]
  in
  let id = ok (Repo.new_object repo ~cls:Meta.dbpl_rel (Repo.Dbpl_rel rel)) in
  check Alcotest.string "named after artifact" "TestRel" (Symbol.name id);
  (match Repo.artifact repo id with
  | Some (Repo.Dbpl_rel r) -> check Alcotest.string "artifact" "TestRel" r.Dbpl.rel_name
  | _ -> Alcotest.fail "artifact missing");
  (match Repo.source_text repo id with
  | Some src -> check bool "source rendered" true (contains "TYPE TestType" src)
  | None -> Alcotest.fail "no source text");
  check bool "listed in class" true
    (List.exists (Symbol.equal id) (Repo.objects_of_class repo Meta.dbpl_rel));
  check bool "listed as design object" true
    (List.exists (Symbol.equal id) (Repo.all_design_objects repo));
  match Repo.new_object repo ~cls:Meta.dbpl_rel (Repo.Dbpl_rel rel) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "duplicate design object accepted"

let test_repository_tools () =
  let repo = Repo.create () in
  Map_.register_tools repo;
  check bool "tool registered" true (Repo.find_tool repo "Normalizer" <> None);
  let for_normalize = Repo.tools_for repo Meta.dec_normalize in
  check Alcotest.(list string) "tools for DecNormalize" [ "Normalizer" ]
    (List.map (fun (t : Repo.tool) -> t.Repo.tool_name) for_normalize);
  (* a tool on a generalization applies to the specialization *)
  let for_keysubst = Repo.tools_for repo Meta.dec_key_subst in
  check bool "KeyEditor listed" true
    (List.exists
       (fun (t : Repo.tool) -> t.Repo.tool_name = "KeyEditor")
       for_keysubst)

(* mapping --------------------------------------------------------------- *)

let test_relation_of_class () =
  let d = Scn.meeting_design in
  let inv = Option.get (Tdl.find_class d "Invitations") in
  let rel = Map_.relation_of_class d inv in
  check Alcotest.string "name" "InvitationRel" rel.Dbpl.rel_name;
  check Alcotest.(list string) "surrogate key" [ "paperkey" ] rel.Dbpl.key;
  check bool "inherited fields" true
    (List.exists (fun f -> f.Dbpl.field_name = "date") rel.Dbpl.fields);
  check bool "set-valued kept" true
    (List.exists
       (fun f ->
         f.Dbpl.field_name = "receivers"
         && match f.Dbpl.field_ty with Dbpl.SetOf _ -> true | _ -> false)
       rel.Dbpl.fields)

let test_relation_of_class_with_key () =
  let d =
    {
      Tdl.design_name = "Keyed";
      classes =
        [
          Tdl.entity_class
            ~attrs:[ Tdl.attribute "code" "String" ]
            ~key:[ "code" ] "Rooms";
        ];
      transactions = [];
    }
  in
  let rooms = Option.get (Tdl.find_class d "Rooms") in
  let rel = Map_.relation_of_class d rooms in
  check Alcotest.(list string) "declared key used" [ "code" ] rel.Dbpl.key;
  check bool "no surrogate" true
    (not (List.exists (fun f -> f.Dbpl.field_ty = Dbpl.Surrogate) rel.Dbpl.fields))

let test_distribute_vs_move_down () =
  let run strategy =
    let repo = Repo.create () in
    Map_.register_tools repo;
    ignore (ok (Map_.load_design repo Scn.meeting_design_v2));
    ok (strategy repo ~design:Scn.meeting_design_v2 ~root:"Papers")
  in
  let dist = run Map_.distribute in
  let md = run Map_.move_down in
  let count role l = List.length (List.filter (fun (r, _) -> r = role) l) in
  (* distribute: one relation per class (3); no constructors *)
  check int "distribute relations" 3 (count "relation" dist);
  check int "distribute constructors" 0 (count "constructor" dist);
  (* move-down: relations only for the 2 leaves, constructor for Papers *)
  check int "move-down relations" 2 (count "relation" md);
  check int "move-down constructors" 1 (count "constructor" md)

let test_mapping_unknown_root () =
  let repo = Repo.create () in
  ignore (ok (Map_.load_design repo Scn.meeting_design));
  match Map_.distribute repo ~design:Scn.meeting_design ~root:"Ghost" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown root accepted"

let test_load_design_rejects_invalid () =
  let repo = Repo.create () in
  let bad =
    { Tdl.design_name = "Bad";
      classes = [ Tdl.entity_class ~supers:[ "Ghost" ] "A" ];
      transactions = [] }
  in
  match Map_.load_design repo bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid design loaded"

let test_version_names () =
  let repo = Repo.create () in
  check Alcotest.string "fresh base" "X" (Map_.next_version_name repo "X");
  ignore (ok (Cml.Kb.declare (Repo.kb repo) "X"));
  check Alcotest.string "second" "X2" (Map_.next_version_name repo "X");
  ignore (ok (Cml.Kb.declare (Repo.kb repo) "X2"));
  check Alcotest.string "third" "X3" (Map_.next_version_name repo "X");
  check Alcotest.string "base of versioned" "X" (Map_.version_base "X17");
  check Alcotest.string "base of plain" "X" (Map_.version_base "X")

(* decision execution ------------------------------------------------------ *)

let test_applicable_menu () =
  let st = ok (Scn.setup ()) in
  let menu = Dec.applicable st.Scn.repo st.Scn.invitations in
  let dcs = List.map (fun (e : Dec.menu_entry) -> e.Dec.decision_class) menu in
  check bool "move-down offered" true (List.mem Meta.dec_move_down dcs);
  check bool "distribute offered" true (List.mem Meta.dec_distribute dcs);
  (* most specific first: DecMoveDown/DecDistribute before TDL_MappingDec *)
  let pos x =
    let rec idx i = function
      | [] -> max_int
      | y :: rest -> if y = x then i else idx (i + 1) rest
    in
    idx 0 dcs
  in
  check bool "specific before general" true
    (pos Meta.dec_move_down < pos Meta.dec_mapping);
  let md_entry =
    List.find (fun (e : Dec.menu_entry) -> e.Dec.decision_class = Meta.dec_move_down) menu
  in
  check Alcotest.(list string) "tool attached" [ Map_.mapping_tool_move_down ]
    md_entry.Dec.tools

let test_menu_empty_for_nonmatching () =
  let st = ok (Scn.setup ()) in
  (* a DBPL-level focus can not trigger TaxisDL mapping decisions *)
  ignore (ok (Scn.map_move_down st));
  let menu = Dec.applicable st.Scn.repo st.Scn.invitation_rel in
  check bool "no TDL mapping for a relation" true
    (List.for_all
       (fun (e : Dec.menu_entry) -> e.Dec.decision_class <> Meta.dec_move_down)
       menu);
  check bool "normalize offered for relation" true
    (List.exists
       (fun (e : Dec.menu_entry) -> e.Dec.decision_class = Meta.dec_normalize)
       menu)

let test_execute_records_everything () =
  let st = ok (Scn.setup ()) in
  let executed = ok (Scn.map_move_down st) in
  let repo = st.Scn.repo in
  let dec = executed.Dec.decision in
  check bool "logged" true
    (List.exists (Symbol.equal dec) (Repo.decision_log repo));
  check Alcotest.(list (pair string string)) "inputs recorded"
    [ ("entity", "Papers") ]
    (List.map (fun (r, o) -> (r, Symbol.name o)) (Dec.inputs_of repo dec));
  (* design v1: one leaf relation (Invitations) + one constructor (Papers) *)
  check bool "outputs recorded" true (List.length (Dec.outputs_of repo dec) = 2);
  check bool "tool recorded" true
    (Dec.tool_of repo dec = Some Map_.mapping_tool_move_down);
  (match Dec.rationale_of repo dec with
  | Some r -> check bool "rationale kept" true (contains "move-down" r)
  | None -> Alcotest.fail "no rationale");
  check Alcotest.(list (pair string string)) "params kept"
    [ ("design", "MeetingDocuments") ]
    (Dec.params_of repo dec);
  (* outputs carry a JUSTIFICATION back-link *)
  List.iter
    (fun (_, out) ->
      check bool (Symbol.name out) true
        (Dec.justifying_decision repo out = Some dec))
    executed.Dec.outputs;
  (* KB still consistent *)
  check bool "consistent" true (Cml.Consistency.check_all (Repo.kb repo) = [])

let test_execute_rejects_bad_inputs () =
  let st = ok (Scn.setup ()) in
  let repo = st.Scn.repo in
  (match
     Dec.execute repo ~decision_class:Meta.dec_move_down
       ~tool:Map_.mapping_tool_move_down
       ~inputs:[ ("entity", sym "SendInvitation") ] (* a transaction, not an entity *)
       ~params:[ ("design", "MeetingDocuments") ]
       ()
   with
  | Error e -> check bool "classification error" true (contains "does not instantiate" e)
  | Ok _ -> Alcotest.fail "mis-typed input accepted");
  (match
     Dec.execute repo ~decision_class:"NoSuchDec" ~tool:Map_.mapping_tool_move_down
       ~inputs:[ ("entity", st.Scn.papers) ] ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown decision class accepted");
  match
    Dec.execute repo ~decision_class:Meta.dec_move_down ~tool:"NoSuchTool"
      ~inputs:[ ("entity", st.Scn.papers) ] ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tool accepted"

let test_execute_rejects_mismatched_tool () =
  let st = ok (Scn.setup ()) in
  match
    Dec.execute st.Scn.repo ~decision_class:Meta.dec_normalize
      ~tool:Map_.mapping_tool_move_down
      ~inputs:[ ("relation", st.Scn.papers) ] ()
  with
  | Error e -> check bool "tool/class mismatch" true (contains "executes" e)
  | Ok _ -> Alcotest.fail "tool executing wrong class accepted"

let test_failed_tool_rolls_back () =
  let st = ok (Scn.setup ()) in
  let repo = st.Scn.repo in
  let before = Store.Base.cardinal (Cml.Kb.base (Repo.kb repo)) in
  (* normalizing a TaxisDL object fails input classification before any
     change; normalizing a relation without set fields fails inside the
     tool after the tx opened *)
  ignore (ok (Scn.map_move_down st));
  let after_mapping = Store.Base.cardinal (Cml.Kb.base (Repo.kb repo)) in
  check bool "mapping grew the KB" true (after_mapping > before);
  (* MinuteRel-like: map a second design without set-valued attrs, then
     normalize its relation -> tool error -> rollback *)
  let paper_rel =
    List.find
      (fun id -> Symbol.name id = "ConsPaper")
      (Repo.objects_of_class repo Meta.dbpl_constructor)
  in
  ignore paper_rel;
  match
    Dec.execute repo ~decision_class:Meta.dec_normalize ~tool:Map_.normalize_tool
      ~inputs:[ ("relation", st.Scn.invitation_rel) ] ()
  with
  | Ok _ ->
    (* invitation relation has a set-valued field, so this succeeded;
       now a second normalize on the new current version must fail *)
    let current =
      List.find
        (fun id -> Symbol.name id = "InvitationRel2")
        (Repo.objects_of_class repo Meta.dbpl_rel)
    in
    let size_before = Store.Base.cardinal (Cml.Kb.base (Repo.kb repo)) in
    (match
       Dec.execute repo ~decision_class:Meta.dec_normalize
         ~tool:Map_.normalize_tool ~inputs:[ ("relation", current) ] ()
     with
    | Error e ->
      check bool "tool error surfaced" true (contains "no set-valued" e);
      check int "rolled back" size_before
        (Store.Base.cardinal (Cml.Kb.base (Repo.kb repo)))
    | Ok _ -> Alcotest.fail "normalizing a flat relation succeeded")
  | Error e -> Alcotest.failf "first normalize failed: %s" e

let test_obligations_lifecycle () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let repo = st.Scn.repo in
  (* execute the normalization directly (the scenario driver would
     formally discharge the selector obligation straight away) *)
  let executed =
    ok
      (Dec.execute repo ~decision_class:Meta.dec_normalize
         ~tool:Map_.normalize_tool
         ~inputs:[ ("relation", st.Scn.invitation_rel) ]
         ())
  in
  let norm_dec = executed.Dec.decision in
  (* the normalizer guarantees 2 of 3 obligations; the selector check is open *)
  check Alcotest.(list string) "open obligation"
    [ "referential-integrity-selector-correct" ]
    (Dec.open_obligations repo norm_dec);
  ok
    (Dec.sign_obligation repo ~decision:norm_dec
       ~obligation:"referential-integrity-selector-correct" ~by:"reviewer");
  check Alcotest.(list string) "discharged" [] (Dec.open_obligations repo norm_dec);
  (match
     Dec.sign_obligation repo ~decision:norm_dec
       ~obligation:"referential-integrity-selector-correct" ~by:"again"
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double signing accepted");
  match
    Dec.sign_obligation repo ~decision:norm_dec ~obligation:"nonexistent"
      ~by:"x"
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown obligation signed"

(* scenario: figs 2-2 .. 2-4 ------------------------------------------------ *)

let test_scenario_fig_2_2_code_frames () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let repo = st.Scn.repo in
  let src = Option.get (Repo.source_text repo (sym "InvitationRel")) in
  check bool "surrogate paperkey" true (contains "paperkey : Surrogate" src);
  check bool "record type" true (contains "TYPE InvitationType = RECORD" src);
  let cons = Option.get (Repo.source_text repo (sym "ConsPaper")) in
  check bool "constructor projects the leaf" true
    (contains "PROJECT InvitationRel" cons)

let test_scenario_fig_2_3_normalization () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let executed = ok (Scn.normalize_invitations st) in
  let out_names = names (List.map snd executed.Dec.outputs) in
  check Alcotest.(list string) "normalization outputs"
    [ "ConsInvitation"; "InvitationReceiversIC"; "InvitationReceiversRel";
      "InvitationRel2" ]
    out_names;
  let repo = st.Scn.repo in
  (* the new selector expresses referential integrity *)
  let sel = Option.get (Repo.source_text repo (sym "InvitationReceiversIC")) in
  check bool "selector checks containment" true (contains "SOME r IN InvitationRel2" sel);
  (* the constructor reconstructs the unnormalized relation *)
  let cons = Option.get (Repo.source_text repo (sym "ConsInvitation")) in
  check bool "nest reconstruction" true (contains "NEST" cons);
  (* the normalized relation lost the set-valued field *)
  match Repo.artifact repo (sym "InvitationRel2") with
  | Some (Repo.Dbpl_rel r) ->
    check bool "no set field left" true (Dbpl.set_valued_fields r = []);
    check bool "classified as normalized" true
      (Cml.Kb.is_instance (Repo.kb repo) ~inst:(sym "InvitationRel2")
         ~cls:(sym Meta.dbpl_rel_normalized))
  | _ -> Alcotest.fail "normalized relation missing"

let test_scenario_fig_2_3_key_subst () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let executed = ok (Scn.substitute_key st) in
  let repo = st.Scn.repo in
  let rekeyed =
    List.assoc "rekeyed" executed.Dec.outputs
  in
  check Alcotest.string "new version" "InvitationRel3" (Symbol.name rekeyed);
  (match Repo.artifact repo rekeyed with
  | Some (Repo.Dbpl_rel r) ->
    check Alcotest.(list string) "associative key" [ "date"; "author" ] r.Dbpl.key;
    check bool "surrogate dropped" true
      (not (List.exists (fun f -> f.Dbpl.field_ty = Dbpl.Surrogate) r.Dbpl.fields))
  | _ -> Alcotest.fail "rekeyed artifact missing");
  (* dependents got revisions *)
  let revision_roles =
    List.filter (fun (r, _) -> r = "revision") executed.Dec.outputs
  in
  check bool "dependents revised" true (List.length revision_roles >= 1);
  (* key decision was manual: obligation signed in the scenario *)
  check Alcotest.(list string) "no open obligations" []
    (Dec.open_obligations repo (Option.get st.Scn.key_dec))

let test_scenario_fig_2_4_conflict_and_backtrack () =
  let st = ok (Scn.run_through_conflict ()) in
  let repo = st.Scn.repo in
  (* the key decision's outputs lost their support *)
  let unsupported = names (Bt.unsupported_objects repo) in
  check bool "rekeyed version unsupported" true
    (List.mem "InvitationRel3" unsupported);
  (* dependency-directed suggestion points at the key decision *)
  (match Bt.suggest_culprit repo with
  | Some culprit ->
    check bool "culprit is key decision" true
      (Some culprit = st.Scn.key_dec)
  | None -> Alcotest.fail "no culprit suggested");
  let report = ok (Scn.resolve_conflict st) in
  check Alcotest.(list string) "only the key decision retracted"
    [ Symbol.name (Option.get st.Scn.key_dec) ]
    report.Bt.retracted_decisions;
  check bool "its outputs removed" true
    (List.mem "InvitationRel3" report.Bt.removed_objects);
  check bool "previous version restored" true
    (List.mem "InvitationRel2" report.Bt.restored_objects);
  (* the rest of the design survives *)
  List.iter
    (fun survivor ->
      check bool (survivor ^ " survives") true (Cml.Kb.exists (Repo.kb repo) survivor))
    [ "InvitationRel"; "InvitationRel2"; "InvitationReceiversRel"; "ConsPaper";
      "MinuteRel" ];
  check bool "removed object gone" false
    (Cml.Kb.exists (Repo.kb repo) "InvitationRel3");
  (* decisions 1, 2 and the Minutes mapping survive in the log *)
  check int "log keeps other decisions + retraction record" 4
    (List.length (Repo.decision_log repo));
  check bool "KB consistent after backtrack" true
    (Cml.Consistency.check_all (Repo.kb repo) = [])

let test_backtrack_cascades_through_consumers () =
  (* retracting the mapping decision removes everything downstream *)
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let repo = st.Scn.repo in
  let report =
    ok (Bt.retract repo (Option.get st.Scn.mapping_dec) ())
  in
  check int "both decisions retracted" 2
    (List.length report.Bt.retracted_decisions);
  check bool "normalization outputs removed" true
    (List.mem "InvitationRel2" report.Bt.removed_objects);
  check bool "mapping outputs removed" true
    (List.mem "InvitationRel" report.Bt.removed_objects);
  check bool "TaxisDL level untouched" true
    (Cml.Kb.exists (Repo.kb repo) "Invitations");
  check bool "KB consistent" true (Cml.Consistency.check_all (Repo.kb repo) = [])

let test_backtrack_unknown_decision () =
  let st = ok (Scn.setup ()) in
  match Bt.retract st.Scn.repo (sym "dec999") () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "retracting unknown decision accepted"

(* dependency graph ---------------------------------------------------------- *)

let test_depgraph_structure () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let repo = st.Scn.repo in
  let g = Dg.build repo in
  let dec1 = Option.get st.Scn.mapping_dec in
  let dec2 = Option.get st.Scn.normalize_dec in
  check bool "from edge" true
    (Kbgraph.Digraph.mem_edge g (sym "Papers") Dg.from_label dec1);
  check bool "to edge" true
    (Kbgraph.Digraph.mem_edge g dec1 Dg.to_label (sym "InvitationRel"));
  check bool "chained" true
    (Kbgraph.Digraph.mem_edge g (sym "InvitationRel") Dg.from_label dec2);
  check bool "by edge" true
    (Kbgraph.Digraph.mem_edge g dec1 Dg.by_label (sym Map_.mapping_tool_move_down));
  check bool "replaces edge" true
    (Kbgraph.Digraph.mem_edge g (sym "InvitationRel2") Dg.replaces_label
       (sym "InvitationRel"))

let test_depgraph_consequences () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let decisions, objects =
    Dg.consequences st.Scn.repo (Option.get st.Scn.mapping_dec)
  in
  check int "two decisions in closure" 2 (List.length decisions);
  check bool "downstream object in closure" true
    (List.exists (fun o -> Symbol.name o = "InvitationRel2") objects)

(* versions & configurations -------------------------------------------------- *)

let test_version_chain () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  ignore (ok (Scn.substitute_key st));
  let repo = st.Scn.repo in
  check Alcotest.(list string) "chain from the middle"
    [ "InvitationRel"; "InvitationRel2"; "InvitationRel3" ]
    (List.map Symbol.name (Ver.version_chain repo (sym "InvitationRel2")));
  check bool "current" true (Ver.is_current repo (sym "InvitationRel3"));
  check bool "superseded" false (Ver.is_current repo (sym "InvitationRel"));
  check bool "predecessor" true
    (Ver.predecessor repo (sym "InvitationRel2") = Some (sym "InvitationRel"))

let test_configuration_current_versions () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let config = Ver.configure st.Scn.repo ~level:Meta.dbpl_object in
  check bool "current version in" true
    (List.exists (fun m -> Symbol.name m = "InvitationRel2") config.Ver.members);
  check bool "old version out" true
    (List.exists (fun m -> Symbol.name m = "InvitationRel") config.Ver.superseded);
  check Alcotest.(list string) "complete" [] config.Ver.incomplete

let test_configuration_to_module () =
  let st, _report = ok (Scn.run_all ()) in
  let repo = st.Scn.repo in
  let config = Ver.configure repo ~level:Meta.dbpl_object in
  let m = ok (Ver.to_dbpl_module repo config ~name:"MeetingDB") in
  check bool "module validates" true (Dbpl.validate m = Ok ());
  check bool "has invitations" true
    (List.exists (fun r -> r.Dbpl.rel_name = "InvitationRel2") m.Dbpl.relations);
  check bool "has minutes" true
    (List.exists (fun r -> r.Dbpl.rel_name = "MinuteRel") m.Dbpl.relations)

let test_vertical_check () =
  let st = ok (Scn.setup ()) in
  check Alcotest.(list string) "nothing mapped yet"
    [ "Invitations"; "Papers" ]
    (Ver.vertical_check st.Scn.repo ~root:st.Scn.papers);
  ignore (ok (Scn.map_move_down st));
  check Alcotest.(list string) "root mapped covers subtree input"
    [ "Invitations" ]
    (Ver.vertical_check st.Scn.repo ~root:st.Scn.papers)

(* navigation ------------------------------------------------------------------ *)

let test_unmapped_objects () =
  let st = ok (Scn.setup ()) in
  check Alcotest.(list string) "fig 2-1 unmapped list"
    [ "Invitations"; "Papers" ]
    (names (Nav.unmapped_objects st.Scn.repo));
  ignore (ok (Scn.map_move_down st));
  check bool "Papers now mapped" true
    (not (List.mem "Papers" (names (Nav.unmapped_objects st.Scn.repo))))

let test_focus_view () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let view = Nav.focus st.Scn.repo st.Scn.invitation_rel in
  check bool "classes shown" true (List.mem Meta.dbpl_rel view.Nav.classes);
  check bool "menu nonempty" true (view.Nav.menu <> []);
  check bool "has upstream direction" true
    (List.exists
       (function Nav.Process_upstream _ -> true | _ -> false)
       view.Nav.directions);
  check bool "status direction" true
    (List.exists
       (function Nav.Status "DBPL" -> true | _ -> false)
       view.Nav.directions);
  check bool "source attached" true (view.Nav.source <> None);
  let rendered = Format.asprintf "%a" Nav.pp_focus view in
  check bool "pretty printed" true (contains "focus: InvitationRel" rendered)

let test_browse_dimensions () =
  let st = ok (Scn.setup ()) in
  let t0 = Time.Clock.now () in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let repo = st.Scn.repo in
  (* status *)
  let dbpl = names (Nav.browse_status repo ~level:Meta.dbpl_rel) in
  check bool "status browse has relations" true (List.mem "InvitationRel" dbpl);
  (* process: mapping before normalization *)
  let process = Nav.browse_process repo in
  (match process with
  | (first, dc1) :: (_second, dc2) :: _ ->
    check bool "first is the mapping" true (Some first = st.Scn.mapping_dec);
    check Alcotest.string "class 1" Meta.dec_move_down dc1;
    check Alcotest.string "class 2" Meta.dec_normalize dc2
  | _ -> Alcotest.fail "expected two decisions");
  ignore t0;
  (* temporal: everything created since setup *)
  let recent = Nav.browse_temporal repo ~since:0 in
  check bool "temporal browse nonempty" true (recent <> [])

let test_history_of () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let hist = Nav.history_of st.Scn.repo (sym "InvitationRel") in
  check int "two versions" 2 (List.length hist);
  match hist with
  | (_, d1, _) :: (_, d2, _) :: _ ->
    check bool "first by mapping" true (d1 = st.Scn.mapping_dec);
    check bool "second by normalization" true (d2 = st.Scn.normalize_dec)
  | _ -> Alcotest.fail "history shape"

(* replay ---------------------------------------------------------------------- *)

let test_replay_check_applicable () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let dec = Option.get st.Scn.mapping_dec in
  check bool "recorded decision re-applicable" true
    (Gkbms.Replay.check st.Scn.repo dec = Gkbms.Replay.Applicable)

let test_replay_one () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let repo = st.Scn.repo in
  let dec = Option.get st.Scn.mapping_dec in
  let replica = ok (Gkbms.Replay.replay_one repo dec) in
  check bool "fresh decision instance" true (replica.Dec.decision <> dec);
  (* replaying the mapping creates new versions of the relations *)
  check bool "versioned outputs" true
    (List.exists
       (fun (_, o) -> Symbol.name o = "InvitationRel2")
       replica.Dec.outputs)

let test_replay_detects_missing_input () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let repo = st.Scn.repo in
  let norm_dec = Option.get st.Scn.normalize_dec in
  (* simulate an out-of-band deletion of the normalization's input *)
  ignore
    (Store.Base.remove (Cml.Kb.base (Repo.kb repo)) (sym "InvitationRel"));
  match Gkbms.Replay.check repo norm_dec with
  | Gkbms.Replay.Inputs_missing missing ->
    check Alcotest.(list string) "the removed relation" [ "InvitationRel" ]
      missing
  | other ->
    Alcotest.failf "expected missing inputs, got %s"
      (Format.asprintf "%a" Gkbms.Replay.pp_applicability other)

(* explanation ------------------------------------------------------------------ *)

let test_explain_why () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let steps = Gkbms.Explain.why st.Scn.repo (sym "InvitationRel2") in
  let rendered = Format.asprintf "%a" Gkbms.Explain.pp_why steps in
  check bool "mentions normalize decision" true (contains "dec2" rendered);
  check bool "mentions mapping decision" true (contains "dec1" rendered);
  check bool "reaches the premise" true (contains "premise" rendered)

let test_explain_decision () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let text = ok (Gkbms.Explain.explain_decision st.Scn.repo (Option.get st.Scn.mapping_dec)) in
  check bool "class line" true (contains Meta.dec_move_down text);
  check bool "tool line" true (contains Map_.mapping_tool_move_down text);
  check bool "inputs" true (contains "entity = Papers" text);
  check bool "belief IN" true (contains "belief:    IN" text);
  match Gkbms.Explain.explain_decision st.Scn.repo (sym "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "explaining unknown decision"

(* one installer builds the JTMS live and on reload, so each logged
   decision, the retraction's included, explains the same on both *)
let test_explain_live_equals_reloaded () =
  let st, _report = ok (Scn.run_all ()) in
  let repo = st.Scn.repo in
  let reloaded =
    ok (Gkbms.Persist.load_repository (Gkbms.Persist.save_repository repo))
  in
  List.iter
    (fun dec ->
      Alcotest.(check string) (Symbol.name dec)
        (ok (Gkbms.Explain.explain_decision repo dec))
        (ok (Gkbms.Explain.explain_decision reloaded dec)))
    (Repo.decision_log repo)

(* JTMS integration ---------------------------------------------------------- *)

let test_jtms_mirrors_decisions () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let j = Repo.jtms st.Scn.repo in
  let node name = Option.get (J.find j name) in
  check bool "decision IN" true (J.is_in j (node "dec1"));
  check bool "output IN" true (J.is_in j (node "InvitationRel"));
  check bool "input premised" true (J.is_in j (node "Papers"))

let test_jtms_assumption_defeat () =
  let st = ok (Scn.run_through_conflict ()) in
  let j = Repo.jtms st.Scn.repo in
  let node name = Option.get (J.find j name) in
  check bool "assumption defeated" true
    (J.is_out j (node Scn.only_invitations_assumption));
  check bool "key decision OUT" true
    (J.is_out j (node (Symbol.name (Option.get st.Scn.key_dec))));
  check bool "minutes mapping IN" true
    (J.is_in j (node (Symbol.name (Option.get st.Scn.minutes_dec))))

(* deductive view: derive and explain ------------------------------------ *)

module T = Logic.Term

let canon substs =
  List.sort_uniq String.compare (List.map (Format.asprintf "%a" T.Subst.pp) substs)

let small_kb () =
  let kb = Cml.Kb.create () in
  List.iter
    (fun n -> ignore (ok (Cml.Kb.declare kb n)))
    [ "Doc"; "Report"; "Paper"; "r1"; "p1" ];
  ignore (ok (Cml.Kb.add_isa kb ~sub:"Report" ~super:"Doc"));
  ignore (ok (Cml.Kb.add_isa kb ~sub:"Paper" ~super:"Doc"));
  ignore (ok (Cml.Kb.add_instanceof kb ~inst:"r1" ~cls:"Report"));
  ignore (ok (Cml.Kb.add_instanceof kb ~inst:"p1" ~cls:"Paper"));
  kb

(* [Kb.derive] runs the tabled prover top-down; a bottom-up
   materialisation of the same view ([Kb.datalog]) must answer the same
   substitution set.  Inputs: the small KB above, and the §2.1 scenario
   after the key decision plus one manual edit per design object,
   queried with the browse mix's two forms on every design object and
   with two open goals. *)
let test_kb_derive_equal () =
  let same kb goal =
    let derived = canon (ok (Cml.Kb.derive kb goal)) in
    let materialised = canon (ok (Logic.Datalog.query (Cml.Kb.datalog kb) goal)) in
    check (Alcotest.list Alcotest.string)
      (Format.asprintf "%a" T.pp_atom goal)
      materialised derived;
    derived
  in
  let kb = small_kb () in
  List.iter
    (fun goal -> ignore (same kb goal))
    [
      T.atom "in" [ T.var "X"; T.sym "Doc" ];
      T.atom "isa_tc" [ T.var "X"; T.var "Y" ];
      T.atom "instanceof" [ T.sym "p1"; T.var "C" ];
    ];
  check bool "r1 is in Report and Doc" true
    (List.length (same kb (T.atom "in" [ T.sym "r1"; T.var "C" ])) >= 2);
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  ignore (ok (Scn.substitute_key st));
  let repo = st.Scn.repo in
  let objects = Repo.all_design_objects repo in
  let sh = Gkbms.Shell.session repo in
  List.iter
    (fun o ->
      ignore
        (Gkbms.Shell.eval sh
           (Printf.sprintf "run DecManualEdit Editor object=%s text=e" (Symbol.name o))))
    objects;
  let kb = Repo.kb repo in
  let edited = ref 0 in
  List.iter
    (fun o ->
      let x = T.symbol o in
      check bool "classified" true (same kb (T.atom "in" [ x; T.var "C" ]) <> []);
      if same kb (T.atom "attr" [ T.var "D"; T.sym "edited"; x ]) <> [] then incr edited)
    (Repo.all_design_objects repo);
  check bool "edits answer attr(?D,edited,X)" true (!edited >= List.length objects);
  check bool "DBPL objects" true
    (same kb (T.atom "in" [ T.var "X"; T.sym "DBPL_Object" ]) <> []);
  check bool "isa closure" true (same kb (T.atom "isa_tc" [ T.var "X"; T.var "Y" ]) <> [])

let in_invitation_rel = T.atom "in" [ T.sym "InvitationRel"; T.var "C" ]

(* [explain] renders the prover's run.  Every line is pinned except the
   resolution and lemma-hit counters: they follow the lemma table's
   iteration order, which the process's interning order sets, so they
   must only be positive, and the registry must have published exactly
   the resolutions the report counts. *)
let test_kb_explain_pinned () =
  let st, _report = ok (Scn.run_all ()) in
  let resolutions () =
    match Obs.Registry.find Obs.Registry.default "gkbms_prover_resolutions_total" with
    | Some { Obs.Registry.value = Obs.Registry.Counter_v n; _ } -> n
    | _ -> 0
  in
  let before = resolutions () in
  let report = ok (Cml.Kb.explain (Repo.kb st.Scn.repo) in_invitation_rel) in
  let published = resolutions () - before in
  let mask line =
    match String.index_opt line ':' with
    | Some i when List.mem (String.sub line 0 i) [ "resolutions"; "lemma hits" ] ->
      let n = int_of_string (String.trim (String.sub line (i + 1) (String.length line - i - 1))) in
      check bool (line ^ " > 0") true (n > 0);
      if String.sub line 0 i = "resolutions" then
        check int "resolutions published" n published;
      String.sub line 0 i ^ ": N"
    | _ -> line
  in
  check (Alcotest.list Alcotest.string) "explain in(InvitationRel, ?C)"
    [
      "query: in(InvitationRel, ?C)";
      "engine: tabled prover, 3 subgoals";
      "  in(InvitationRel, ?V0): 2 answers";
      "  isa_tc(DBPL_Object, ?V0): 0 answers";
      "  isa_tc(DBPL_Rel, ?V0): 1 answer";
      "resolutions: N";
      "lemma hits: N";
      "answers: 2";
      "";
    ]
    (List.map mask (String.split_on_char '\n' report))

(* Nothing [explain] builds outlives the call: the KB reaches as many
   words after it as before. *)
let test_kb_explain_no_side_table () =
  let st, _report = ok (Scn.run_all ()) in
  let kb = Repo.kb st.Scn.repo in
  let words () = Obj.reachable_words (Obj.repr kb) in
  let before = words () in
  ignore (ok (Cml.Kb.explain kb in_invitation_rel));
  check int "reachable words" before (words ())

let suite =
  [
    ("metamodel installed", `Quick, test_metamodel_installed);
    ("metamodel obligations", `Quick, test_metamodel_obligations);
    ("repository objects and sources", `Quick, test_repository_objects_and_sources);
    ("repository tools", `Quick, test_repository_tools);
    ("relation of class", `Quick, test_relation_of_class);
    ("relation of class with key", `Quick, test_relation_of_class_with_key);
    ("distribute vs move-down", `Quick, test_distribute_vs_move_down);
    ("mapping unknown root", `Quick, test_mapping_unknown_root);
    ("load design rejects invalid", `Quick, test_load_design_rejects_invalid);
    ("version names", `Quick, test_version_names);
    ("applicable menu (fig 2-1)", `Quick, test_applicable_menu);
    ("menu respects classification", `Quick, test_menu_empty_for_nonmatching);
    ("execute records everything", `Quick, test_execute_records_everything);
    ("execute rejects bad inputs", `Quick, test_execute_rejects_bad_inputs);
    ("execute rejects mismatched tool", `Quick, test_execute_rejects_mismatched_tool);
    ("failed tool rolls back", `Quick, test_failed_tool_rolls_back);
    ("obligations lifecycle", `Quick, test_obligations_lifecycle);
    ("fig 2-2 code frames", `Quick, test_scenario_fig_2_2_code_frames);
    ("fig 2-3 normalization", `Quick, test_scenario_fig_2_3_normalization);
    ("fig 2-3 key substitution", `Quick, test_scenario_fig_2_3_key_subst);
    ("fig 2-4 conflict and backtrack", `Quick,
     test_scenario_fig_2_4_conflict_and_backtrack);
    ("backtrack cascades", `Quick, test_backtrack_cascades_through_consumers);
    ("backtrack unknown decision", `Quick, test_backtrack_unknown_decision);
    ("depgraph structure (fig 2-2)", `Quick, test_depgraph_structure);
    ("depgraph consequences", `Quick, test_depgraph_consequences);
    ("version chain", `Quick, test_version_chain);
    ("configuration current versions", `Quick, test_configuration_current_versions);
    ("configuration to module (fig 3-4)", `Quick, test_configuration_to_module);
    ("vertical check", `Quick, test_vertical_check);
    ("unmapped objects (fig 2-1)", `Quick, test_unmapped_objects);
    ("focus view", `Quick, test_focus_view);
    ("browse dimensions", `Quick, test_browse_dimensions);
    ("history of object", `Quick, test_history_of);
    ("replay check applicable", `Quick, test_replay_check_applicable);
    ("replay one", `Quick, test_replay_one);
    ("replay detects missing input", `Quick, test_replay_detects_missing_input);
    ("explain why", `Quick, test_explain_why);
    ("explain decision", `Quick, test_explain_decision);
    ("decisions explain the same live and reloaded", `Quick, test_explain_live_equals_reloaded);
    ("jtms mirrors decisions", `Quick, test_jtms_mirrors_decisions);
    ("jtms assumption defeat", `Quick, test_jtms_assumption_defeat);
    ("kb: derive ≡ bottom-up materialisation", `Quick, test_kb_derive_equal);
    ("kb: explain output pinned", `Quick, test_kb_explain_pinned);
    ("explain keeps no side table", `Quick, test_kb_explain_no_side_table);
  ]
