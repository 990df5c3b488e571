module Dbpl = Langs.Dbpl
module Ev = Langs.Dbpl_eval

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

let people_module () =
  let person =
    Dbpl.relation ~key:[ "name" ] ~name:"PersonRel" ~rec_name:"PersonType"
      [ Dbpl.field "name" (Dbpl.Named "String");
        Dbpl.field "dept" (Dbpl.Named "String") ]
  in
  let task =
    Dbpl.relation ~key:[ "tid" ] ~name:"TaskRel" ~rec_name:"TaskType"
      [ Dbpl.field "tid" Dbpl.Surrogate;
        Dbpl.field "name" (Dbpl.Named "String");
        Dbpl.field "hours" (Dbpl.Named "Int") ]
  in
  let busy =
    {
      Dbpl.con_name = "Busy";
      con_fields = [ Dbpl.field "name" (Dbpl.Named "String") ];
      def = Dbpl.Project (Dbpl.Rel "TaskRel", [ "name" ]);
    }
  in
  let joined =
    {
      Dbpl.con_name = "Joined";
      con_fields = [];
      def = Dbpl.NatJoin (Dbpl.Rel "PersonRel", Dbpl.Rel "TaskRel");
    }
  in
  let ri =
    {
      Dbpl.sel_name = "TaskPersonIC";
      ranges = [ ("t", "TaskRel") ];
      predicate = "SOME p IN PersonRel (p.name = t.name)";
      sem =
        Some (Dbpl.Ref_integrity
                { child = "TaskRel"; parent = "PersonRel"; key = [ "name" ] });
    }
  in
  let add_tx =
    {
      Dbpl.tx_name = "AddPerson";
      params = [ ("n", "String"); ("d", "String") ];
      body = [ Dbpl.Insert ("PersonRel", [ ("name", "n"); ("dept", "d") ]) ];
    }
  in
  {
    (Dbpl.empty_module "People") with
    Dbpl.relations = [ person; task ];
    constructors = [ busy; joined ];
    selectors = [ ri ];
    transactions = [ add_tx ];
  }

let populated () =
  let db = ok (Ev.create (people_module ())) in
  ok (Ev.insert db ~rel:"PersonRel" [ ("name", Ev.Str "jarke"); ("dept", Ev.Str "db") ]);
  ok (Ev.insert db ~rel:"PersonRel" [ ("name", Ev.Str "rose"); ("dept", Ev.Str "db") ]);
  ok
    (Ev.insert db ~rel:"TaskRel"
       [ ("tid", Ev.fresh_surrogate db); ("name", Ev.Str "jarke");
         ("hours", Ev.Int 4) ]);
  ok
    (Ev.insert db ~rel:"TaskRel"
       [ ("tid", Ev.fresh_surrogate db); ("name", Ev.Str "jarke");
         ("hours", Ev.Int 2) ]);
  db

let test_create_rejects_invalid () =
  let bad =
    { (Dbpl.empty_module "Bad") with
      Dbpl.constructors =
        [ { Dbpl.con_name = "C"; con_fields = []; def = Dbpl.Rel "Nope" } ] }
  in
  match Ev.create bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "invalid module accepted"

let test_insert_and_tuples () =
  let db = populated () in
  check int "person cardinality" 2 (Ev.cardinality db "PersonRel");
  check int "task cardinality" 2 (Ev.cardinality db "TaskRel");
  let ts = ok (Ev.tuples db "PersonRel") in
  check int "tuples listed" 2 (List.length ts)

let test_insert_key_violation () =
  let db = populated () in
  match
    Ev.insert db ~rel:"PersonRel" [ ("name", Ev.Str "jarke"); ("dept", Ev.Str "x") ]
  with
  | Error e -> check bool "key violation" true (String.length e > 0)
  | Ok () -> Alcotest.fail "duplicate key accepted"

let test_insert_field_mismatch () =
  let db = populated () in
  (match Ev.insert db ~rel:"PersonRel" [ ("name", Ev.Str "x") ] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "missing field accepted");
  match
    Ev.insert db ~rel:"TaskRel"
      [ ("tid", Ev.Str "notasurrogate"); ("name", Ev.Str "x"); ("hours", Ev.Int 1) ]
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "ill-typed surrogate accepted"

let test_project_dedups () =
  let db = populated () in
  let busy = ok (Ev.eval_constructor db "Busy") in
  (* two tasks, one worker *)
  check int "projection deduplicates" 1 (List.length busy)

let test_natjoin () =
  let db = populated () in
  let joined = ok (Ev.eval_constructor db "Joined") in
  check int "join matches on shared field" 2 (List.length joined);
  List.iter
    (fun t ->
      check bool "join carries dept" true (List.mem_assoc "dept" t);
      check bool "join carries hours" true (List.mem_assoc "hours" t))
    joined

let test_union_and_selecteq () =
  let db = populated () in
  let u =
    ok
      (Ev.eval_expr db
         (Dbpl.Union
            ( Dbpl.Project (Dbpl.Rel "PersonRel", [ "name" ]),
              Dbpl.Project (Dbpl.Rel "TaskRel", [ "name" ]) )))
  in
  check int "union dedups" 2 (List.length u);
  let sel =
    ok (Ev.eval_expr db (Dbpl.SelectEq (Dbpl.Rel "PersonRel", "name", "rose")))
  in
  check int "select literal" 1 (List.length sel)

let test_nest () =
  let db = populated () in
  let nested =
    ok
      (Ev.eval_expr db
         (Dbpl.Nest
            ( Dbpl.Project (Dbpl.Rel "TaskRel", [ "name"; "hours" ]),
              [ "hours" ], "hours" )))
  in
  match nested with
  | [ t ] -> (
    match List.assoc_opt "hours" t with
    | Some (Ev.VSet vs) -> check int "two hours nested" 2 (List.length vs)
    | _ -> Alcotest.fail "expected a set value")
  | l -> Alcotest.failf "expected one group, got %d" (List.length l)

let test_selector_check () =
  let db = populated () in
  let sel = List.hd (people_module ()).Dbpl.selectors in
  check bool "holds" true (ok (Ev.check_selector db sel));
  check Alcotest.(list string) "no violations" [] (Ev.violated_selectors db);
  ignore
    (ok
       (Ev.delete db ~rel:"PersonRel" (fun t ->
            List.assoc_opt "name" t = Some (Ev.Str "jarke"))));
  check bool "violated after delete" false (ok (Ev.check_selector db sel));
  check Alcotest.(list string) "violation listed" [ "TaskPersonIC" ]
    (Ev.violated_selectors db)

let test_selector_without_sem () =
  let db = populated () in
  match
    Ev.check_selector db
      { Dbpl.sel_name = "opaque"; ranges = []; predicate = "?"; sem = None }
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "selector without semantics checked"

let test_transaction_insert () =
  let db = populated () in
  ok
    (Ev.run_transaction db "AddPerson"
       ~args:[ ("n", Ev.Str "vassiliou"); ("d", Ev.Str "kbms") ]);
  check int "inserted" 3 (Ev.cardinality db "PersonRel");
  match
    Ev.run_transaction db "AddPerson"
      ~args:[ ("n", Ev.Str "vassiliou"); ("d", Ev.Str "kbms") ]
  with
  | Error _ -> () (* key violation surfaces through the transaction *)
  | Ok () -> Alcotest.fail "transactional key violation ignored"

let test_unknown_transaction () =
  let db = populated () in
  match Ev.run_transaction db "NoSuchTx" ~args:[] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown transaction ran"

(* Verify ------------------------------------------------------------------- *)

let ok' = ok

let normalized_scenario () =
  (* run the normalization decision directly so its selector obligation
     is still open (the scenario driver discharges it eagerly) *)
  let st = ok' (Gkbms.Scenario.setup ()) in
  ignore (ok' (Gkbms.Scenario.map_move_down st));
  let norm =
    ok'
      (Gkbms.Decision.execute st.Gkbms.Scenario.repo
         ~decision_class:Gkbms.Metamodel.dec_normalize
         ~tool:Gkbms.Mapping.normalize_tool
         ~inputs:[ ("relation", st.Gkbms.Scenario.invitation_rel) ]
         ())
  in
  (st, norm.Gkbms.Decision.decision)

let test_verify_lossless () =
  let st, dec = normalized_scenario () in
  let v =
    ok'
      (Gkbms.Verify.check_obligation st.Gkbms.Scenario.repo ~decision:dec
         ~obligation:"reconstruction-constructor-lossless" ())
  in
  check bool "lossless passes" true v.Gkbms.Verify.passed

let test_verify_ref_integrity () =
  let st, dec = normalized_scenario () in
  let v =
    ok'
      (Gkbms.Verify.check_obligation st.Gkbms.Scenario.repo ~decision:dec
         ~obligation:"referential-integrity-selector-correct" ())
  in
  check bool "selector check passes" true v.Gkbms.Verify.passed

let test_verify_mapping_extension () =
  let st, _ = normalized_scenario () in
  let mdec = Option.get st.Gkbms.Scenario.mapping_dec in
  let v =
    ok'
      (Gkbms.Verify.check_obligation st.Gkbms.Scenario.repo ~decision:mdec
         ~obligation:"mapping-preserves-extension" ())
  in
  check bool "extension preserved" true v.Gkbms.Verify.passed

let test_verify_discharges_obligation () =
  let st, dec = normalized_scenario () in
  let repo = st.Gkbms.Scenario.repo in
  check Alcotest.(list string) "selector obligation open"
    [ "referential-integrity-selector-correct" ]
    (Gkbms.Decision.open_obligations repo dec);
  ignore
    (ok'
       (Gkbms.Verify.discharge repo ~decision:dec
          ~obligation:"referential-integrity-selector-correct" ()));
  check Alcotest.(list string) "formally discharged" []
    (Gkbms.Decision.open_obligations repo dec)

let test_verify_unknown_obligation () =
  let st, dec = normalized_scenario () in
  match
    Gkbms.Verify.check_obligation st.Gkbms.Scenario.repo ~decision:dec
      ~obligation:"unheard-of" ()
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown obligation checked"

let test_verify_detects_lossy_reconstruction () =
  (* empty sets are genuinely lost by the join-based reconstruction: the
     evaluator must expose that *)
  let orig =
    Dbpl.relation ~key:[ "k" ] ~name:"R" ~rec_name:"RT"
      [ Dbpl.field "k" Dbpl.Surrogate;
        Dbpl.field "xs" (Dbpl.SetOf (Dbpl.Named "X")) ]
  in
  let norm =
    Dbpl.relation ~key:[ "k" ] ~name:"RN" ~rec_name:"RNT"
      [ Dbpl.field "k" Dbpl.Surrogate ]
  in
  let child =
    Dbpl.relation ~key:[ "k"; "xs" ] ~name:"RX" ~rec_name:"RXT"
      [ Dbpl.field "k" Dbpl.Surrogate; Dbpl.field "xs" (Dbpl.Named "X") ]
  in
  let cons =
    {
      Dbpl.con_name = "ConsR";
      con_fields = orig.Dbpl.fields;
      def = Dbpl.Nest (Dbpl.NatJoin (Dbpl.Rel "RN", Dbpl.Rel "RX"), [ "xs" ], "xs");
    }
  in
  let m =
    { (Dbpl.empty_module "Lossy") with
      Dbpl.relations = [ norm; child ];
      constructors = [ cons ] }
  in
  let db = ok (Ev.create m) in
  (* one row with members, one with an empty set *)
  ok (Ev.insert db ~rel:"RN" [ ("k", Ev.Sur 1) ]);
  ok (Ev.insert db ~rel:"RN" [ ("k", Ev.Sur 2) ]);
  ok (Ev.insert db ~rel:"RX" [ ("k", Ev.Sur 1); ("xs", Ev.Str "a") ]);
  let reconstructed = ok (Ev.eval_constructor db "ConsR") in
  check int "the empty-set row is lost" 1 (List.length reconstructed)

let suite =
  [
    ("create rejects invalid module", `Quick, test_create_rejects_invalid);
    ("insert and tuples", `Quick, test_insert_and_tuples);
    ("insert key violation", `Quick, test_insert_key_violation);
    ("insert field mismatch", `Quick, test_insert_field_mismatch);
    ("project dedups", `Quick, test_project_dedups);
    ("natural join", `Quick, test_natjoin);
    ("union and select", `Quick, test_union_and_selecteq);
    ("nest groups into sets", `Quick, test_nest);
    ("selector check", `Quick, test_selector_check);
    ("selector without semantics", `Quick, test_selector_without_sem);
    ("transaction insert", `Quick, test_transaction_insert);
    ("unknown transaction", `Quick, test_unknown_transaction);
    ("verify lossless reconstruction", `Quick, test_verify_lossless);
    ("verify referential integrity selector", `Quick, test_verify_ref_integrity);
    ("verify mapping preserves extension", `Quick, test_verify_mapping_extension);
    ("verify discharges obligation", `Quick, test_verify_discharges_obligation);
    ("verify unknown obligation", `Quick, test_verify_unknown_obligation);
    ("verify exposes lossy reconstruction", `Quick,
     test_verify_detects_lossy_reconstruction);
  ]
