(* Cross-module integration tests: replay chains, version lattice
   rendering, the ConceptBase model processor driven from the GKBMS, and
   failure injection on the decision machinery. *)

open Kernel
module Repo = Gkbms.Repository
module Dec = Gkbms.Decision
module Scn = Gkbms.Scenario
module Ver = Gkbms.Version
module Bt = Gkbms.Backtrack

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let sym = Symbol.intern

open Helpers

let test_replay_from_whole_chain () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let repo = st.Scn.repo in
  let results =
    ok (Gkbms.Replay.replay_from repo (Option.get st.Scn.mapping_dec))
  in
  check int "both decisions replayed" 2 (List.length results);
  List.iter
    (fun (_, r) ->
      match r with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "replay failed: %s" e)
    results;
  (* the replayed mapping created fresh versions *)
  check bool "new relation version exists" true
    (Cml.Kb.exists (Repo.kb repo) "InvitationRel3")

let test_version_lattice_rendering () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let out =
    Format.asprintf "%a" (fun ppf () -> Ver.pp_version_lattice st.Scn.repo ppf ()) ()
  in
  check bool "chain rendered with decisions" true
    (contains "InvitationRel[dec1] ==> InvitationRel2[dec2]" out)

let test_model_processor_from_gkbms () =
  (* the GKBMS levels as ConceptBase models: configure the DBPL level
     and project it out of the proposition base *)
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let repo = st.Scn.repo in
  let kb = Repo.kb repo in
  let mb = Cml.Model.create kb in
  ok (Cml.Model.define mb "tdl-level");
  ok (Cml.Model.define mb "dbpl-level");
  List.iter
    (fun o -> ok (Cml.Model.add_object mb ~model:"tdl-level" o))
    (Repo.objects_of_class repo Gkbms.Metamodel.tdl_entity_class);
  List.iter
    (fun o -> ok (Cml.Model.add_object mb ~model:"dbpl-level" o))
    (Repo.objects_of_class repo Gkbms.Metamodel.dbpl_object);
  ok (Cml.Model.include_model mb ~model:"dbpl-level" ~included:"tdl-level");
  ok (Cml.Model.configure mb [ "dbpl-level" ]);
  check bool "relation active" true (Cml.Model.is_active mb (sym "InvitationRel"));
  check bool "entity active via inclusion" true
    (Cml.Model.is_active mb (sym "Invitations"));
  check bool "decision objects not in the model" false
    (Cml.Model.is_active mb (sym "dec1"));
  let projected = ok (Cml.Model.project mb) in
  check bool "projection nonempty" true (Store.Base.cardinal projected > 0)

let test_retraction_record_is_not_retractable_blindly () =
  let st, _report = ok (Scn.run_all ()) in
  let repo = st.Scn.repo in
  (* the retraction record itself is a decision in the log; retracting it
     must not resurrect anything or corrupt the KB *)
  let retract_dec =
    List.find
      (fun d -> Dec.decision_class_of repo d = Some Gkbms.Metamodel.dec_retract)
      (Repo.decision_log repo)
  in
  let report = ok (Bt.retract repo retract_dec ()) in
  check int "only itself" 1 (List.length report.Bt.retracted_decisions);
  check bool "KB consistent" true
    (Cml.Consistency.check_all (Repo.kb repo) = [])

let test_double_retract_fails () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let repo = st.Scn.repo in
  let dec = Option.get st.Scn.mapping_dec in
  ignore (ok (Bt.retract repo dec ()));
  match Bt.retract repo dec () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "retracting twice succeeded"

let test_decision_after_backtrack () =
  (* the design remains fully workable after a backtrack: the mapping can
     simply be taken again (the paper's "without redoing all the rest") *)
  let st, _ = ok (Scn.run_all ()) in
  let repo = st.Scn.repo in
  let executed =
    ok
      (Dec.execute repo ~decision_class:Gkbms.Metamodel.dec_key_subst
         ~tool:Gkbms.Mapping.key_subst_tool
         ~inputs:[ ("relation", sym "InvitationRel2") ]
         ~params:[ ("key", "date,author") ]
         ~rationale:"retrying the associative key after the backtrack" ())
  in
  (* version numbering continues past the retracted version's name *)
  let rekeyed = List.assoc "rekeyed" executed.Dec.outputs in
  check bool "fresh version name" true
    (Symbol.name rekeyed <> "InvitationRel2"
    && contains "InvitationRel" (Symbol.name rekeyed));
  check bool "consistent" true (Cml.Consistency.check_all (Repo.kb repo) = [])

let test_focus_menu_includes_requirements () =
  let repo = Repo.create () in
  Gkbms.Mapping.register_tools repo;
  Gkbms.Requirements.register_tools repo;
  let doc =
    ok
      (Gkbms.Requirements.load_world_model_text repo ~name:"W"
         "Class Thing with\n  attribute\n    a : B\nend\n")
  in
  let menu = Dec.applicable repo doc in
  check bool "requirements mapping offered" true
    (List.exists
       (fun (e : Dec.menu_entry) ->
         e.Dec.decision_class = Gkbms.Metamodel.dec_req_mapping)
       menu)

let test_depgraph_dot_escaping () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let dot = Gkbms.Depgraph.to_dot st.Scn.repo in
  check bool "decisions boxed" true (contains "shape=\"box\"" dot);
  check bool "tools dashed" true (contains "style=\"dashed\"" dot)

let suite =
  [
    ("replay from whole chain", `Quick, test_replay_from_whole_chain);
    ("version lattice rendering", `Quick, test_version_lattice_rendering);
    ("model processor from GKBMS", `Quick, test_model_processor_from_gkbms);
    ("retraction record retractable", `Quick,
     test_retraction_record_is_not_retractable_blindly);
    ("double retract fails", `Quick, test_double_retract_fails);
    ("decision after backtrack", `Quick, test_decision_after_backtrack);
    ("focus menu includes requirements", `Quick,
     test_focus_menu_includes_requirements);
    ("depgraph dot escaping", `Quick, test_depgraph_dot_escaping);
  ]
