(* Final coverage batch: paths not exercised elsewhere — negation under
   the tabled prover, display details, configuration diagnostics,
   multi-field nesting, temporal browsing boundaries, and prover
   statistics. *)

open Kernel
module T = Logic.Term
module Dbpl = Langs.Dbpl
module Ev = Langs.Dbpl_eval

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let sym = Symbol.intern

open Helpers

let v = T.var
let s = T.sym

(* tabled prover with negation (stratified) ------------------------------ *)

let test_tabled_negation () =
  let d = Logic.Datalog.create () in
  List.iter
    (fun (a, b) -> ok (Logic.Datalog.add_fact d (T.atom "par" [ s a; s b ])))
    [ ("tom", "bob"); ("bob", "ann") ];
  ok
    (Logic.Datalog.add_clause d
       (T.clause (T.atom "has_child" [ v "X" ])
          [ T.Pos (T.atom "par" [ v "X"; v "Y" ]) ]));
  ok
    (Logic.Datalog.add_clause d
       (T.clause (T.atom "leaf" [ v "X" ])
          [ T.Pos (T.atom "par" [ v "Y"; v "X" ]);
            T.Neg (T.atom "has_child" [ v "X" ]) ]));
  let p = Logic.Prover.make d in
  let leaves =
    List.sort_uniq compare
      (List.map
         (fun su -> Format.asprintf "%a" T.pp (T.Subst.apply su (v "X")))
         (Logic.Prover.solve p [ T.atom "leaf" [ v "X" ] ]))
  in
  check Alcotest.(list string) "tabled negation" [ "ann" ] leaves;
  check bool "ground disproof via negation" false
    (Logic.Prover.prove p [ T.atom "leaf" [ s "bob" ] ])

let test_prover_stats_accumulate () =
  let d = Logic.Datalog.create () in
  ok (Logic.Datalog.add_fact d (T.atom "e" [ s "a"; s "b" ]));
  ok
    (Logic.Datalog.add_clause d
       (T.clause (T.atom "r" [ v "X"; v "Y" ])
          [ T.Pos (T.atom "e" [ v "X"; v "Y" ]) ]));
  let p = Logic.Prover.make d in
  ignore (Logic.Prover.solve p [ T.atom "r" [ v "X"; v "Y" ] ]);
  let stats = Logic.Prover.stats p in
  check bool "resolutions counted" true (stats.Logic.Prover.resolutions > 0);
  check bool "lemmas stored" true (Logic.Prover.lemma_count p > 0);
  Logic.Prover.clear_lemmas p;
  check int "lemmas cleared" 0 (Logic.Prover.lemma_count p)

(* display & browsing ------------------------------------------------------ *)

let test_relational_display_category_column () =
  let kb = Cml.Kb.create () in
  ignore (ok (Cml.Kb.declare kb "TDL_EntityClass"));
  ignore (ok (Cml.Kb.declare kb "Person"));
  ignore (ok (Cml.Kb.declare kb "Invitation"));
  ignore (ok (Cml.Kb.add_instanceof kb ~inst:"Invitation" ~cls:"TDL_EntityClass"));
  ignore
    (ok (Cml.Kb.add_attribute kb ~source:"Invitation" ~label:"sender" ~dest:"Person"));
  ignore (ok (Cml.Kb.declare kb "inv1"));
  ignore (ok (Cml.Kb.declare kb "jarke"));
  ignore (ok (Cml.Kb.add_instanceof kb ~inst:"inv1" ~cls:"Invitation"));
  ignore
    (ok
       (Cml.Kb.add_attribute kb ~category:"sender" ~source:"inv1" ~label:"sender"
          ~dest:"jarke"));
  let out = Format.asprintf "%a" (Cml.Display.relational_display kb) (sym "inv1") in
  check bool "category column populated" true
    (contains "sender" out && contains "jarke" out && not (contains "| -" out))

let test_browse_temporal_boundary () =
  let st = ok (Gkbms.Scenario.setup ()) in
  let t0 = Time.Clock.now () in
  Time.Clock.reset ();
  ignore (Time.Clock.tick ());
  ignore t0;
  let before = Gkbms.Navigation.browse_temporal st.Gkbms.Scenario.repo ~since:max_int in
  check int "nothing learnt in the future" 0 (List.length before)

let test_configuration_incomplete_diagnostics () =
  let repo = Gkbms.Repository.create () in
  (* a constructor reading a relation that was never created *)
  let con =
    { Dbpl.con_name = "Orphan";
      con_fields = [];
      def = Dbpl.Project (Dbpl.Rel "GhostRel", [ "x" ]) }
  in
  ignore
    (ok
       (Gkbms.Repository.new_object repo ~cls:Gkbms.Metamodel.dbpl_constructor
          (Gkbms.Repository.Dbpl_con con)));
  let config = Gkbms.Version.configure repo ~level:Gkbms.Metamodel.dbpl_object in
  check bool "dangling source diagnosed" true
    (List.exists (fun d -> contains "GhostRel" d) config.Gkbms.Version.incomplete);
  match Gkbms.Version.to_dbpl_module repo config ~name:"X" with
  | Error e -> check bool "module refused" true (contains "incomplete" e)
  | Ok _ -> Alcotest.fail "incomplete configuration assembled"

(* evaluator: multi-field nest, constructor-over-constructor --------------- *)

let test_nest_multiple_fields () =
  let m =
    { (Dbpl.empty_module "M") with
      Dbpl.relations =
        [ Dbpl.relation ~name:"R" ~rec_name:"RT"
            [ Dbpl.field "g" (Dbpl.Named "Int");
              Dbpl.field "a" (Dbpl.Named "Int");
              Dbpl.field "b" (Dbpl.Named "Int") ] ] }
  in
  let db = ok (Ev.create m) in
  List.iter
    (fun (g, a, b) ->
      ok (Ev.insert db ~rel:"R" [ ("g", Ev.Int g); ("a", Ev.Int a); ("b", Ev.Int b) ]))
    [ (1, 1, 1); (1, 2, 2); (2, 3, 3) ];
  let nested = ok (Ev.eval_expr db (Dbpl.Nest (Dbpl.Rel "R", [ "a"; "b" ], "ab"))) in
  check int "two groups" 2 (List.length nested);
  let g1 = List.find (fun t -> List.assoc_opt "g" t = Some (Ev.Int 1)) nested in
  match List.assoc_opt "ab" g1 with
  | Some (Ev.VSet pairs) -> check int "two nested pairs" 2 (List.length pairs)
  | _ -> Alcotest.fail "expected nested set"

let test_constructor_over_constructor () =
  let m =
    { (Dbpl.empty_module "M") with
      Dbpl.relations =
        [ Dbpl.relation ~name:"R" ~rec_name:"RT"
            [ Dbpl.field "x" (Dbpl.Named "Int"); Dbpl.field "y" (Dbpl.Named "Int") ] ];
      constructors =
        [ { Dbpl.con_name = "C1";
            con_fields = [];
            def = Dbpl.Project (Dbpl.Rel "R", [ "x" ]) };
          { Dbpl.con_name = "C2";
            con_fields = [];
            def = Dbpl.Project (Dbpl.Rel "C1", [ "x" ]) } ] }
  in
  let db = ok (Ev.create m) in
  ok (Ev.insert db ~rel:"R" [ ("x", Ev.Int 1); ("y", Ev.Int 2) ]);
  let c2 = ok (Ev.eval_constructor db "C2") in
  check int "layered constructors evaluate" 1 (List.length c2)

let suite =
  [
    ("tabled prover negation", `Quick, test_tabled_negation);
    ("prover stats accumulate", `Quick, test_prover_stats_accumulate);
    ("relational display categories", `Quick, test_relational_display_category_column);
    ("temporal browsing boundary", `Quick, test_browse_temporal_boundary);
    ("incomplete configuration diagnosed", `Quick,
     test_configuration_incomplete_diagnostics);
    ("nest multiple fields", `Quick, test_nest_multiple_fields);
    ("constructor over constructor", `Quick, test_constructor_over_constructor);
  ]
