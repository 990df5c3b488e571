module A = Langs.Assertion
module Term = Logic.Term
module Formula = Logic.Formula

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

let test_terms () =
  check bool "variable" true (Term.equal (ok (A.parse_term "?x")) (Term.var "x"));
  check bool "symbol" true
    (Term.equal (ok (A.parse_term "Invitation")) (Term.sym "Invitation"));
  check bool "integer" true (Term.equal (ok (A.parse_term "42")) (Term.int 42));
  match A.parse_term "?x trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing input accepted"

let test_atom () =
  let a = ok (A.parse_atom "attr(?i, sender, ?p)") in
  check Alcotest.string "pred" "attr" (Kernel.Symbol.name a.Term.pred);
  check int "arity" 3 (Array.length a.Term.args);
  check bool "second arg symbol" true (Term.equal a.Term.args.(1) (Term.sym "sender"))

let test_formula_quantifiers () =
  let f = ok (A.parse_formula "forall x/Paper in(?x, Document)") in
  (match f with
  | Formula.Forall ("x", cls, Formula.Atom _) ->
    check Alcotest.string "class" "Paper" (Kernel.Symbol.name cls)
  | _ -> Alcotest.fail "unexpected shape");
  match ok (A.parse_formula "exists ?p/Person attr(?i, sender, ?p)") with
  | Formula.Exists ("p", _, _) -> ()
  | _ -> Alcotest.fail "exists shape"

let test_formula_connectives () =
  (match ok (A.parse_formula "true and false or true") with
  | Formula.Or (Formula.And (Formula.True, Formula.False), Formula.True) -> ()
  | f -> Alcotest.failf "precedence wrong: %s" (A.formula_to_string f));
  (match ok (A.parse_formula "not (true or false)") with
  | Formula.Not (Formula.Or _) -> ()
  | _ -> Alcotest.fail "negation scope");
  match ok (A.parse_formula "true => false => true") with
  | Formula.Implies (Formula.True, Formula.Implies (Formula.False, Formula.True))
    -> ()
  | f -> Alcotest.failf "implication assoc: %s" (A.formula_to_string f)

let test_formula_comparisons () =
  (match ok (A.parse_formula "?x < 3") with
  | Formula.Cmp (Term.Lt, Term.Var "x", Term.Int 3) -> ()
  | _ -> Alcotest.fail "lt");
  (match ok (A.parse_formula "?x <> chair") with
  | Formula.Cmp (Term.Neq, _, _) -> ()
  | _ -> Alcotest.fail "neq");
  match ok (A.parse_formula "sender >= 2") with
  | Formula.Cmp (Term.Ge, Term.Sym _, Term.Int 2) -> ()
  | _ -> Alcotest.fail "symbol lhs comparison"

let test_formula_pp_roundtrip () =
  let cases =
    [
      "forall x/Paper exists p/Person attr(?x, sender, ?p)";
      "(in(?x, Document) and not (isa(?x, ?x))) => true";
      "true or (false and ?y = 3)";
    ]
  in
  List.iter
    (fun src ->
      let f = ok (A.parse_formula src) in
      let printed = A.formula_to_string f in
      let f' = ok (A.parse_formula printed) in
      check bool (src ^ " roundtrips") true (f = f'))
    cases

let test_formula_errors () =
  List.iter
    (fun src ->
      match A.parse_formula src with
      | Error _ -> ()
      | Ok f -> Alcotest.failf "%S parsed as %s" src (A.formula_to_string f))
    [ "forall x Paper p(x)"; "p("; "and true"; "" ]

let test_rules () =
  let c = ok (A.parse_rule "sends(?P, ?I) :- attr(?I, sender, ?P), not minuted(?I), ?P <> chair.") in
  check Alcotest.string "head" "sends" (Kernel.Symbol.name c.Term.head.Term.pred);
  check int "three body literals" 3 (List.length c.Term.body);
  (match c.Term.body with
  | [ Term.Pos _; Term.Neg _; Term.Cmp (Term.Neq, _, _) ] -> ()
  | _ -> Alcotest.fail "body shape");
  let fact = ok (A.parse_rule "par(tom, bob)") in
  check bool "fact" true (fact.Term.body = [])

let test_rule_pp_roundtrip () =
  let c = ok (A.parse_rule "anc(?X, ?Y) :- par(?X, ?Z), anc(?Z, ?Y).") in
  let printed = A.rule_to_string c in
  let c' = ok (A.parse_rule printed) in
  check bool "roundtrip" true (c = c')

let test_rule_into_engine () =
  (* end to end: parse rules and facts, run the engine *)
  let d = Logic.Datalog.create () in
  List.iter
    (fun src -> ok (Logic.Datalog.add_fact d (ok (A.parse_rule src)).Term.head))
    [ "par(tom, bob)"; "par(bob, ann)" ];
  ok (Logic.Datalog.add_clause d (ok (A.parse_rule "anc(?X, ?Y) :- par(?X, ?Y).")));
  ok
    (Logic.Datalog.add_clause d
       (ok (A.parse_rule "anc(?X, ?Y) :- par(?X, ?Z), anc(?Z, ?Y).")));
  let substs =
    ok (Logic.Datalog.query d (ok (A.parse_atom "anc(tom, ?W)")))
  in
  check int "two descendants" 2 (List.length substs)

let test_formula_against_kb () =
  let kb = Cml.Kb.create () in
  ignore (ok (Cml.Kb.declare kb "Paper"));
  ignore (ok (Cml.Kb.declare kb "Document"));
  ignore (ok (Cml.Kb.declare kb "p1"));
  ignore (ok (Cml.Kb.add_isa kb ~sub:"Paper" ~super:"Document"));
  ignore (ok (Cml.Kb.add_instanceof kb ~inst:"p1" ~cls:"Paper"));
  let f = ok (A.parse_formula "forall x/Paper in(?x, Document)") in
  check bool "parsed formula evaluates" true (ok (Cml.Kb.ask kb f))

let suite =
  [
    ("terms", `Quick, test_terms);
    ("atom", `Quick, test_atom);
    ("quantifiers", `Quick, test_formula_quantifiers);
    ("connectives", `Quick, test_formula_connectives);
    ("comparisons", `Quick, test_formula_comparisons);
    ("formula pp roundtrip", `Quick, test_formula_pp_roundtrip);
    ("formula errors", `Quick, test_formula_errors);
    ("rules", `Quick, test_rules);
    ("rule pp roundtrip", `Quick, test_rule_pp_roundtrip);
    ("rules drive the engine", `Quick, test_rule_into_engine);
    ("formula against a KB", `Quick, test_formula_against_kb);
  ]
