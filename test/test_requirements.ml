open Kernel
module Repo = Gkbms.Repository
module Req = Gkbms.Requirements
module Dec = Gkbms.Decision
module Op = Cml.Object_processor

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

let world_text =
  "Class Meeting with\n\
  \  attribute\n\
  \    organizer : Person\n\
  \  setof\n\
  \    agenda : Topic\n\
   end\n\
   Class Workshop isA Meeting with\n\
  \  attribute\n\
  \    fee : Money\n\
   end\n"

let fresh_repo () =
  let repo = Repo.create () in
  Gkbms.Mapping.register_tools repo;
  Req.register_tools repo;
  repo

let test_load_world_model () =
  let repo = fresh_repo () in
  let doc = ok (Req.load_world_model_text repo ~name:"World" world_text) in
  check Alcotest.(list string) "concepts recorded"
    [ "Meeting"; "Workshop" ]
    (List.sort String.compare
       (List.map Symbol.name (Req.concepts_of_model repo doc)));
  (* the frames live in the KB: Workshop isA Meeting is queryable *)
  check bool "isa in KB" true
    (List.exists
       (Symbol.equal (Symbol.intern "Meeting"))
       (Cml.Kb.isa_supers (Repo.kb repo) (Symbol.intern "Workshop")));
  check bool "classified CML_Object" true
    (Cml.Kb.is_instance (Repo.kb repo) ~inst:(Symbol.intern "Meeting")
       ~cls:(Symbol.intern Gkbms.Metamodel.cml_object));
  match Req.load_world_model_text repo ~name:"World2" world_text with
  | Error _ -> () (* duplicate concept names rejected *)
  | Ok _ -> Alcotest.fail "duplicate concepts accepted"

let test_to_design () =
  let frames = ok (Langs.Cml_frames.parse world_text) in
  let design = ok (Req.to_design ~name:"Sys" frames) in
  check int "two classes" 2 (List.length design.Langs.Taxis_dl.classes);
  let meetings =
    Option.get (Langs.Taxis_dl.find_class design "Meetings")
  in
  check bool "setof carried over" true
    (List.exists
       (fun a ->
         a.Langs.Taxis_dl.attr_name = "agenda"
         && a.Langs.Taxis_dl.kind = Langs.Taxis_dl.SetOf)
       meetings.Langs.Taxis_dl.attrs);
  let workshops =
    Option.get (Langs.Taxis_dl.find_class design "Workshops")
  in
  check Alcotest.(list string) "isa pluralized" [ "Meetings" ]
    workshops.Langs.Taxis_dl.supers;
  match Req.to_design ~name:"Empty" [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty model accepted"

let test_requirements_decision () =
  let repo = fresh_repo () in
  let doc = ok (Req.load_world_model_text repo ~name:"World" world_text) in
  let executed =
    ok
      (Dec.execute repo ~decision_class:Gkbms.Metamodel.dec_req_mapping
         ~tool:Req.requirements_tool
         ~inputs:[ ("concept", doc) ]
         ~params:[ ("design", "MeetingSystem") ]
         ())
  in
  check bool "design output" true
    (List.mem_assoc "design" executed.Dec.outputs);
  check int "entity outputs" 2
    (List.length (List.filter (fun (r, _) -> r = "entity") executed.Dec.outputs));
  check bool "KB consistent" true
    (Cml.Consistency.check_all (Repo.kb repo) = [])

let test_three_level_lifecycle () =
  let repo = fresh_repo () in
  let doc = ok (Req.load_world_model_text repo ~name:"World" world_text) in
  ignore
    (ok
       (Dec.execute repo ~decision_class:Gkbms.Metamodel.dec_req_mapping
          ~tool:Req.requirements_tool
          ~inputs:[ ("concept", doc) ]
          ~params:[ ("design", "MeetingSystem") ]
          ()));
  let ex2 =
    ok
      (Dec.execute repo ~decision_class:Gkbms.Metamodel.dec_move_down
         ~tool:Gkbms.Mapping.mapping_tool_move_down
         ~inputs:[ ("entity", Symbol.intern "Meetings") ]
         ~params:[ ("design", "MeetingSystem") ]
         ())
  in
  check bool "DBPL relation produced" true
    (List.exists (fun (r, _) -> r = "relation") ex2.Dec.outputs);
  (* the explanation chain crosses all three levels *)
  let steps = Gkbms.Explain.why repo (Symbol.intern "WorkshopRel") in
  let rendered = Format.asprintf "%a" Gkbms.Explain.pp_why steps in
  check bool "chain reaches TaxisDL" true (contains "Meetings" rendered);
  check bool "chain reaches the world model" true (contains "World" rendered);
  (* vertical configuration: every mapped level is consistent *)
  check bool "KB consistent" true
    (Cml.Consistency.check_all (Repo.kb repo) = [])

let test_pluralize_shapes () =
  let frames =
    [ Op.frame ~classes:[ "X" ] "Address"; Op.frame ~classes:[ "X" ] "Bus" ]
  in
  let design = ok (Req.to_design ~name:"P" frames) in
  check Alcotest.(list string) "plural forms"
    [ "Addresses"; "Buses" ]
    (List.sort String.compare
       (List.map
          (fun (c : Langs.Taxis_dl.entity_class) -> c.Langs.Taxis_dl.cls_name)
          design.Langs.Taxis_dl.classes))

let suite =
  [
    ("load world model", `Quick, test_load_world_model);
    ("to design", `Quick, test_to_design);
    ("requirements decision", `Quick, test_requirements_decision);
    ("three-level lifecycle", `Quick, test_three_level_lifecycle);
    ("pluralization", `Quick, test_pluralize_shapes);
  ]
