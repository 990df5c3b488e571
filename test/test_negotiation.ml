open Kernel
module Neg = Gkbms.Negotiation
module Arg = Group.Argumentation
module Repo = Gkbms.Repository
module Scn = Gkbms.Scenario
module Dec = Gkbms.Decision

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

let issue = "which key for InvitationRel2?"

let arena_for st =
  ignore st;
  let arena = Arg.create () in
  ok (Arg.raise_issue arena ~about:"InvitationRel2" issue);
  ok (Arg.propose arena ~issue ~position:"associative key" ~by:"jarke");
  ok (Arg.propose arena ~issue ~position:"keep surrogate" ~by:"rose");
  ok
    (Arg.argue arena ~issue ~position:"associative key" ~by:"jarke"
       ~polarity:Arg.Pro ~weight:3 "user-friendly");
  ok
    (Arg.argue arena ~issue ~position:"keep surrogate" ~by:"rose"
       ~polarity:Arg.Pro ~weight:1 "robust");
  arena

let prepared () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  (st, arena_for st)

let test_record_issue () =
  let st, arena = prepared () in
  let repo = st.Scn.repo in
  let issue_id = ok (Neg.record_issue repo arena ~issue) in
  check bool "issue object exists" true
    (Cml.Kb.is_instance (Repo.kb repo) ~inst:issue_id
       ~cls:(Symbol.intern Gkbms.Metamodel.issue_class));
  (* linked to the object under discussion *)
  check bool "about link" true
    (List.exists
       (Symbol.equal (Symbol.intern "InvitationRel2"))
       (Cml.Kb.attribute_values (Repo.kb repo) issue_id "about"));
  let positions = Neg.positions_of repo issue_id in
  check int "two positions" 2 (List.length positions);
  (* argument texts attached *)
  let pos_with_args =
    List.find
      (fun p ->
        Cml.Kb.attribute_values (Repo.kb repo) p "pro" <> [])
      positions
  in
  (match
     Cml.Kb.attribute_values (Repo.kb repo) pos_with_args "pro"
   with
  | text_id :: _ -> (
    match Repo.artifact repo text_id with
    | Some (Repo.Text t) ->
      check bool "argument text recorded" true
        (String.length t > 0)
    | _ -> Alcotest.fail "argument artifact missing")
  | [] -> Alcotest.fail "no pro argument recorded");
  (* duplicate recording rejected *)
  (match Neg.record_issue repo arena ~issue with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "issue recorded twice");
  (* KB remains consistent with the argumentation inside *)
  check bool "consistent" true (Cml.Consistency.check_all (Repo.kb repo) = [])

let test_record_unknown_issue () =
  let st, arena = prepared () in
  match Neg.record_issue st.Scn.repo arena ~issue:"nonexistent" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown issue recorded"

let test_decide_requires_resolution () =
  let st, _ = prepared () in
  (* a fresh arena with a tie: no resolution *)
  let arena = Arg.create () in
  ok (Arg.raise_issue arena ~about:"x" issue);
  ok (Arg.propose arena ~issue ~position:"a" ~by:"p");
  ok (Arg.propose arena ~issue ~position:"b" ~by:"q");
  match
    Neg.decide st.Scn.repo arena ~issue
      ~decision_class:Gkbms.Metamodel.dec_key_subst
      ~tool:Gkbms.Mapping.key_subst_tool
      ~inputs:[ ("relation", st.Scn.invitation_rel) ]
      ~params:[ ("key", "date,author") ]
      ()
  with
  | Error e -> check bool "explains" true (String.length e > 0)
  | Ok _ -> Alcotest.fail "decided without a resolution"

let test_decide_executes_and_links () =
  let st, arena = prepared () in
  let repo = st.Scn.repo in
  let executed =
    ok
      (Neg.decide repo arena ~issue
         ~decision_class:Gkbms.Metamodel.dec_key_subst
         ~tool:Gkbms.Mapping.key_subst_tool
         ~inputs:[ ("relation", st.Scn.invitation_rel) ]
         ~params:[ ("key", "date,author") ]
         ())
  in
  (* the rationale quotes the argumentation *)
  (match Dec.rationale_of repo executed.Dec.decision with
  | Some r ->
    check bool "rationale cites the accepted position" true
      (let needle = "associative key" in
       let nl = String.length needle and hl = String.length r in
       let rec loop i = i + nl <= hl && (String.sub r i nl = needle || loop (i + 1)) in
       loop 0)
  | None -> Alcotest.fail "no rationale");
  (* decision links back to the recorded issue *)
  (match Neg.issue_of_decision repo executed.Dec.decision with
  | Some issue_id ->
    check bool "resolves link" true
      (Cml.Kb.is_instance (Repo.kb repo) ~inst:issue_id
         ~cls:(Symbol.intern Gkbms.Metamodel.issue_class))
  | None -> Alcotest.fail "decision not linked to the issue");
  check bool "consistent" true (Cml.Consistency.check_all (Repo.kb repo) = [])

let suite =
  [
    ("record issue in the KB", `Quick, test_record_issue);
    ("record unknown issue", `Quick, test_record_unknown_issue);
    ("decide requires a resolution", `Quick, test_decide_requires_resolution);
    ("decide executes and links", `Quick, test_decide_executes_and_links);
  ]
