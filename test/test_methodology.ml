open Kernel
module M = Gkbms.Methodology
module Scn = Gkbms.Scenario
module Dec = Gkbms.Decision
module Repo = Gkbms.Repository

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

let test_clean_history_conforms () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  ignore (ok (Scn.substitute_key st));
  check int "no violations" 0
    (List.length (M.check_history st.Scn.repo M.daida_kernel))

let test_gate_blocks_premature_key_subst () =
  (* trying to substitute keys straight after mapping, skipping
     normalization, violates the kernel methodology *)
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  match
    M.gate st.Scn.repo M.daida_kernel
      ~decision_class:Gkbms.Metamodel.dec_key_subst
      ~inputs:[ ("relation", st.Scn.invitation_rel) ]
  with
  | Error e ->
    check bool "names the missing step" true (contains "DecNormalize" e)
  | Ok () -> Alcotest.fail "premature key substitution allowed"

let test_gate_allows_after_normalization () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  (* run normalization directly so its selector obligation stays open *)
  let executed =
    ok
      (Gkbms.Decision.execute st.Scn.repo
         ~decision_class:Gkbms.Metamodel.dec_normalize
         ~tool:Gkbms.Mapping.normalize_tool
         ~inputs:[ ("relation", st.Scn.invitation_rel) ]
         ())
  in
  let rel2 = List.assoc "normalized" executed.Dec.outputs in
  (match
     M.gate st.Scn.repo M.daida_kernel
       ~decision_class:Gkbms.Metamodel.dec_key_subst
       ~inputs:[ ("relation", rel2) ]
   with
  | Error e -> check bool "open obligations flagged" true (contains "open" e)
  | Ok () -> Alcotest.fail "undischarged inputs allowed");
  (* discharge it formally, and the gate opens *)
  ignore
    (ok
       (Gkbms.Verify.discharge st.Scn.repo ~decision:executed.Dec.decision
          ~obligation:"referential-integrity-selector-correct" ()));
  ok
    (M.gate st.Scn.repo M.daida_kernel
       ~decision_class:Gkbms.Metamodel.dec_key_subst
       ~inputs:[ ("relation", rel2) ])

let test_rationale_required () =
  let repo = Repo.create () in
  Gkbms.Mapping.register_tools repo;
  let doc =
    ok
      (Repo.new_object repo ~name:"Docx" ~cls:Gkbms.Metamodel.dbpl_object
         (Repo.Text "v0"))
  in
  let executed =
    ok
      (Dec.execute repo ~decision_class:Gkbms.Metamodel.dec_manual_edit
         ~tool:Gkbms.Mapping.editor_tool
         ~inputs:[ ("object", doc) ]
         ~params:[ ("text", "v1") ]
         ())
  in
  (* no rationale given: the check flags it after the fact *)
  let violations = M.check_decision repo M.daida_kernel executed.Dec.decision in
  check bool "missing rationale flagged" true
    (List.exists (fun v -> contains "rationale" v.M.rule_text) violations)

let test_max_open_obligations () =
  (* a manual edit leaves its edit-preserves-interfaces obligation open *)
  let repo = Repo.create () in
  Gkbms.Mapping.register_tools repo;
  let doc =
    ok
      (Repo.new_object repo ~name:"Docy" ~cls:Gkbms.Metamodel.dbpl_object
         (Repo.Text "v0"))
  in
  ignore
    (ok
       (Dec.execute repo ~decision_class:Gkbms.Metamodel.dec_manual_edit
          ~tool:Gkbms.Mapping.editor_tool
          ~inputs:[ ("object", doc) ]
          ~params:[ ("text", "v1") ]
          ~rationale:"tidy up" ()));
  let strict =
    { M.methodology_name = "strict"; rules = [ M.Max_open_obligations 0 ] }
  in
  check bool "budget exceeded" true (M.check_history repo strict <> []);
  let lax =
    { M.methodology_name = "lax"; rules = [ M.Max_open_obligations 10 ] }
  in
  check int "within budget" 0 (List.length (M.check_history repo lax))

let test_producers_upstream () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let producers =
    M.producers_upstream st.Scn.repo (Symbol.intern "InvitationRel2")
  in
  check Alcotest.(list string) "both producing decisions"
    [ "dec2"; "dec1" ]
    (List.map Symbol.name producers)

let suite =
  [
    ("clean history conforms", `Quick, test_clean_history_conforms);
    ("gate blocks premature key substitution", `Quick,
     test_gate_blocks_premature_key_subst);
    ("gate opens after discharge", `Quick, test_gate_allows_after_normalization);
    ("rationale required", `Quick, test_rationale_required);
    ("max open obligations", `Quick, test_max_open_obligations);
    ("producers upstream", `Quick, test_producers_upstream);
  ]
