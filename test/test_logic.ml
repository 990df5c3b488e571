open Logic
module T = Term

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

let v = T.var
let s = T.sym

(* Terms / unification --------------------------------------------------- *)

let test_unify_basics () =
  check bool "sym/sym equal" true (T.unify (s "a") (s "a") T.Subst.empty <> None);
  check bool "sym/sym differ" true (T.unify (s "a") (s "b") T.Subst.empty = None);
  check bool "int mismatch" true (T.unify (T.int 1) (T.int 2) T.Subst.empty = None);
  (match T.unify (v "X") (s "a") T.Subst.empty with
  | Some subst ->
    check bool "binding applied" true
      (T.equal (T.Subst.apply subst (v "X")) (s "a"))
  | None -> Alcotest.fail "var should unify");
  match T.unify (v "X") (v "Y") T.Subst.empty with
  | Some subst ->
    let both_same =
      T.equal (T.Subst.apply subst (v "X")) (T.Subst.apply subst (v "Y"))
    in
    check bool "var-var aliased" true both_same
  | None -> Alcotest.fail "var-var should unify"

let test_unify_atoms () =
  let a = T.atom "isa" [ v "X"; s "Paper" ] in
  let b = T.atom "isa" [ s "Invitation"; v "Y" ] in
  (match T.unify_atoms a b T.Subst.empty with
  | Some subst ->
    check bool "X bound" true
      (T.equal (T.Subst.apply subst (v "X")) (s "Invitation"));
    check bool "Y bound" true
      (T.equal (T.Subst.apply subst (v "Y")) (s "Paper"))
  | None -> Alcotest.fail "atoms should unify");
  check bool "arity mismatch" true
    (T.unify_atoms a (T.atom "isa" [ s "x" ]) T.Subst.empty = None);
  check bool "pred mismatch" true
    (T.unify_atoms a (T.atom "other" [ s "x"; s "y" ]) T.Subst.empty = None)

let test_clause_safety () =
  let safe =
    T.clause
      (T.atom "anc" [ v "X"; v "Y" ])
      [ T.Pos (T.atom "par" [ v "X"; v "Y" ]) ]
  in
  check bool "safe" true (T.clause_safe safe);
  let unsafe_head =
    T.clause
      (T.atom "anc" [ v "X"; v "Z" ])
      [ T.Pos (T.atom "par" [ v "X"; v "Y" ]) ]
  in
  check bool "unsafe head var" false (T.clause_safe unsafe_head);
  let unsafe_neg =
    T.clause
      (T.atom "p" [ v "X" ])
      [ T.Pos (T.atom "q" [ v "X" ]); T.Neg (T.atom "r" [ v "Z" ]) ]
  in
  check bool "unsafe negated var" false (T.clause_safe unsafe_neg)

let test_eval_cmp () =
  check bool "int lt" true (T.eval_cmp T.Lt (T.int 1) (T.int 2) = Some true);
  check bool "sym eq" true (T.eval_cmp T.Eq (s "a") (s "a") = Some true);
  check bool "sym neq" true (T.eval_cmp T.Neq (s "a") (s "b") = Some true);
  check bool "mixed eq false" true (T.eval_cmp T.Eq (s "a") (T.int 1) = Some false);
  check bool "non-ground" true (T.eval_cmp T.Lt (v "X") (T.int 2) = None)

(* Datalog --------------------------------------------------------------- *)

let family () =
  let d = Datalog.create () in
  List.iter
    (fun (a, b) -> ok (Datalog.add_fact d (T.atom "par" [ s a; s b ])))
    [ ("tom", "bob"); ("bob", "ann"); ("ann", "joe"); ("tom", "liz") ];
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "anc" [ v "X"; v "Y" ])
          [ T.Pos (T.atom "par" [ v "X"; v "Y" ]) ]));
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "anc" [ v "X"; v "Y" ])
          [ T.Pos (T.atom "par" [ v "X"; v "Z" ]);
            T.Pos (T.atom "anc" [ v "Z"; v "Y" ]) ]));
  d

let anc_pairs d =
  let substs = ok (Datalog.query d (T.atom "anc" [ v "X"; v "Y" ])) in
  List.sort compare
    (List.map
       (fun subst ->
         ( Format.asprintf "%a" T.pp (T.Subst.apply subst (v "X")),
           Format.asprintf "%a" T.pp (T.Subst.apply subst (v "Y")) ))
       substs)

let expected_anc =
  List.sort compare
    [ ("tom", "bob"); ("tom", "ann"); ("tom", "joe"); ("tom", "liz");
      ("bob", "ann"); ("bob", "joe"); ("ann", "joe") ]

let test_datalog_seminaive () =
  check
    Alcotest.(list (pair string string))
    "ancestor closure (seminaive)" expected_anc
    (anc_pairs (family ()))

let test_datalog_bound_query () =
  let d = family () in
  let substs = ok (Datalog.query d (T.atom "anc" [ s "bob"; v "Y" ])) in
  check int "two descendants of bob" 2 (List.length substs)

let test_datalog_negation () =
  let d = family () in
  (* leaf(X) :- par(_, X), not par(X, _) — needs a helper for safety *)
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "has_child" [ v "X" ])
          [ T.Pos (T.atom "par" [ v "X"; v "Y" ]) ]));
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "leaf" [ v "X" ])
          [ T.Pos (T.atom "par" [ v "Y"; v "X" ]);
            T.Neg (T.atom "has_child" [ v "X" ]) ]));
  let substs = ok (Datalog.query d (T.atom "leaf" [ v "X" ])) in
  let names =
    List.sort_uniq compare
      (List.map
         (fun subst -> Format.asprintf "%a" T.pp (T.Subst.apply subst (v "X")))
         substs)
  in
  check Alcotest.(list string) "leaves" [ "joe"; "liz" ] names

let test_datalog_stratification_error () =
  let d = Datalog.create () in
  ok (Datalog.add_fact d (T.atom "base" [ s "a" ]));
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "p" [ v "X" ])
          [ T.Pos (T.atom "base" [ v "X" ]); T.Neg (T.atom "q" [ v "X" ]) ]));
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "q" [ v "X" ])
          [ T.Pos (T.atom "base" [ v "X" ]); T.Neg (T.atom "p" [ v "X" ]) ]));
  match Datalog.solve d with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unstratifiable program accepted"

let test_datalog_strata_order () =
  let d = family () in
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "has_child" [ v "X" ])
          [ T.Pos (T.atom "par" [ v "X"; v "Y" ]) ]));
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "leaf" [ v "X" ])
          [ T.Pos (T.atom "par" [ v "Y"; v "X" ]);
            T.Neg (T.atom "has_child" [ v "X" ]) ]));
  let strata = ok (Datalog.stratify d) in
  check int "two strata" 2 (List.length strata);
  let stratum_of p =
    let rec idx i = function
      | [] -> -1
      | preds :: rest ->
        if List.exists (fun q -> Kernel.Symbol.name q = p) preds then i
        else idx (i + 1) rest
    in
    idx 0 strata
  in
  check bool "leaf above has_child" true
    (stratum_of "leaf" > stratum_of "has_child")

let test_datalog_rejects_unsafe () =
  let d = Datalog.create () in
  match
    Datalog.add_clause d (T.clause (T.atom "p" [ v "X" ]) [])
  with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unsafe clause accepted"

let test_datalog_rejects_nonground_fact () =
  let d = Datalog.create () in
  match Datalog.add_fact d (T.atom "p" [ v "X" ]) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-ground fact accepted"

let test_datalog_external_relation () =
  let d = Datalog.create () in
  Datalog.register_external d (Kernel.Symbol.intern "num")
    (fun _pattern -> List.init 5 (fun i -> [ T.int i ]));
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "big" [ v "X" ])
          [ T.Pos (T.atom "num" [ v "X" ]); T.Cmp (T.Ge, v "X", T.int 3) ]));
  let substs = ok (Datalog.query d (T.atom "big" [ v "X" ])) in
  check int "3 and 4" 2 (List.length substs)

let test_datalog_cmp_literal () =
  let d = family () in
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "self_pair" [ v "X"; v "Y" ])
          [ T.Pos (T.atom "par" [ v "X"; v "Y" ]); T.Cmp (T.Eq, v "X", v "X") ]));
  let substs = ok (Datalog.query d (T.atom "self_pair" [ v "X"; v "Y" ])) in
  check int "cmp passthrough" 4 (List.length substs)

(* A fact added after [solve] shows in the next [query]: on a positive
   program, and on one where the new fact defeats a negated literal.  A
   duplicate fact changes nothing. *)
let test_datalog_add_after_solve () =
  let node i = s (Printf.sprintf "n%d" i) in
  let edge i j = T.atom "edge" [ node i; node j ] in
  let d = Datalog.create () in
  List.iter
    (fun c -> ok (Datalog.add_clause d c))
    [
      T.clause (T.atom "path" [ v "X"; v "Y" ])
        [ T.Pos (T.atom "edge" [ v "X"; v "Y" ]) ];
      T.clause (T.atom "path" [ v "X"; v "Y" ])
        [ T.Pos (T.atom "edge" [ v "X"; v "Z" ]);
          T.Pos (T.atom "path" [ v "Z"; v "Y" ]) ];
    ];
  List.iter (fun i -> ok (Datalog.add_fact d (edge i (i + 1)))) [ 0; 1; 2 ];
  ok (Datalog.solve d);
  let derived = Datalog.derived_count d in
  ok (Datalog.add_fact d (edge 0 1));
  check int "a duplicate keeps the materialization" derived
    (Datalog.derived_count d);
  ok (Datalog.add_fact d (edge 3 4));
  check int "n0 reaches 4 nodes" 4
    (List.length (ok (Datalog.query d (T.atom "path" [ node 0; v "Y" ]))));
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "isolated" [ v "X" ])
          [ T.Pos (T.atom "node" [ v "X" ]);
            T.Neg (T.atom "path" [ node 0; v "X" ]) ]));
  List.iter (fun i -> ok (Datalog.add_fact d (T.atom "node" [ node i ]))) [ 0; 5; 6 ];
  check int "n0, n5 and n6 isolated" 3
    (List.length (ok (Datalog.query d (T.atom "isolated" [ v "X" ]))));
  ok (Datalog.add_fact d (edge 4 5));
  check int "the new edge retracts isolated(n5)" 2
    (List.length (ok (Datalog.query d (T.atom "isolated" [ v "X" ]))))

let test_datalog_invalidate () =
  let d = family () in
  ok (Datalog.solve d);
  let before = Datalog.derived_count d in
  check bool "materialized" true (before > 0);
  Datalog.invalidate d;
  check int "cleared" 0 (Datalog.derived_count d);
  ok (Datalog.solve d);
  check int "recomputed" before (Datalog.derived_count d)

(* Prover ---------------------------------------------------------------- *)

let test_prover_tabled_recursive () =
  let d = family () in
  let p = Prover.make d in
  let substs = Prover.solve p [ T.atom "anc" [ s "tom"; v "Y" ] ] in
  check int "tom's descendants" 4 (List.length substs);
  check bool "lemmas generated" true (Prover.lemma_count p > 0)

(* "sld" in the names below: tabled evaluation is SLD resolution with
   lemma tables (OLDT). *)
let test_prover_sld_nonrecursive () =
  let d = family () in
  let p = Prover.make d in
  check bool "ground proof" true (Prover.prove p [ T.atom "par" [ s "tom"; s "bob" ] ]);
  check bool "ground disproof" false
    (Prover.prove p [ T.atom "par" [ s "bob"; s "tom" ] ])

let test_prover_sld_recursive_rightrec () =
  let d = family () in
  let p = Prover.make d in
  check bool "anc(tom, joe)" true (Prover.prove p [ T.atom "anc" [ s "tom"; s "joe" ] ]);
  check bool "anc(joe, tom) fails" false
    (Prover.prove p [ T.atom "anc" [ s "joe"; s "tom" ] ])

let test_prover_left_recursive_tabling () =
  (* left recursion loops in Prolog but terminates with lemmas *)
  let d = Datalog.create () in
  List.iter
    (fun (a, b) -> ok (Datalog.add_fact d (T.atom "edge" [ s a; s b ])))
    [ ("a", "b"); ("b", "c"); ("c", "d") ];
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "path" [ v "X"; v "Y" ])
          [ T.Pos (T.atom "path" [ v "X"; v "Z" ]);
            T.Pos (T.atom "edge" [ v "Z"; v "Y" ]) ]));
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "path" [ v "X"; v "Y" ])
          [ T.Pos (T.atom "edge" [ v "X"; v "Y" ]) ]));
  let p = Prover.make d in
  let substs = Prover.solve p [ T.atom "path" [ s "a"; v "Y" ] ] in
  check int "paths from a" 3 (List.length substs)

let test_prover_conjunction () =
  let d = family () in
  let p = Prover.make d in
  let substs =
    Prover.solve p
      [ T.atom "anc" [ s "tom"; v "M" ]; T.atom "par" [ v "M"; s "joe" ] ]
  in
  check int "middle generation" 1 (List.length substs);
  match substs with
  | [ subst ] ->
    check bool "M = ann" true
      (T.equal (T.Subst.apply subst (v "M")) (s "ann"))
  | _ -> Alcotest.fail "expected exactly one answer"

let test_prover_negation_sld () =
  let d = family () in
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "has_child" [ v "X" ])
          [ T.Pos (T.atom "par" [ v "X"; v "Y" ]) ]));
  let p = Prover.make d in
  let goal_ok =
    Prover.solve p [ T.atom "par" [ v "G"; s "joe" ] ]
  in
  check int "joe's parent" 1 (List.length goal_ok);
  check bool "negation as failure" false
    (Prover.prove p [ T.atom "has_child" [ s "joe" ] ])

(* The tabled prover against the bottom-up reference on random
   stratified programs: recursion ([path]), a comparison ([ord]) and
   negation ([unreach]) over random edges.  Each program answers the
   drawn goal, bound or free, and the all-free [path(?A, ?B)]. *)
let node i = Printf.sprintf "q%d" i

let build_program edges nodes =
  let d = Datalog.create () in
  List.iter
    (fun (i, j) -> ok (Datalog.add_fact d (T.atom "edge" [ s (node i); s (node j) ])))
    edges;
  List.iter (fun i -> ok (Datalog.add_fact d (T.atom "node" [ s (node i) ]))) nodes;
  List.iter
    (fun c -> ok (Datalog.add_clause d c))
    [
      T.clause (T.atom "path" [ v "X"; v "Y" ])
        [ T.Pos (T.atom "edge" [ v "X"; v "Y" ]) ];
      T.clause (T.atom "path" [ v "X"; v "Y" ])
        [ T.Pos (T.atom "edge" [ v "X"; v "Z" ]);
          T.Pos (T.atom "path" [ v "Z"; v "Y" ]) ];
      T.clause (T.atom "ord" [ v "X"; v "Y" ])
        [ T.Pos (T.atom "path" [ v "X"; v "Y" ]); T.Cmp (T.Lt, v "X", v "Y") ];
      T.clause (T.atom "unreach" [ v "X"; v "Y" ])
        [ T.Pos (T.atom "node" [ v "X" ]); T.Pos (T.atom "node" [ v "Y" ]);
          T.Neg (T.atom "path" [ v "X"; v "Y" ]) ];
    ];
  d

let goal_gen =
  QCheck.Gen.(
    let* pred = oneofl [ "edge"; "path"; "ord"; "unreach"; "node" ] in
    let arity = if pred = "node" then 1 else 2 in
    let* args =
      list_repeat arity
        (oneof [ map (fun i -> `Const i) (int_range 0 7); oneofl [ `Var "A"; `Var "B" ] ])
    in
    return (pred, args))

let arbitrary_program =
  QCheck.make
    ~print:(fun (edges, nodes, (pred, args)) ->
      Printf.sprintf "edges=%s nodes=%s goal=%s(%s)"
        (String.concat "," (List.map (fun (i, j) -> Printf.sprintf "%d-%d" i j) edges))
        (String.concat "," (List.map string_of_int nodes))
        pred
        (String.concat ","
           (List.map (function `Const i -> node i | `Var w -> "?" ^ w) args)))
    QCheck.Gen.(
      triple
        (list_size (int_range 0 20) (pair (int_range 0 7) (int_range 0 7)))
        (list_size (int_range 0 6) (int_range 0 7))
        goal_gen)

let test_prover_differential =
  QCheck.Test.make ~name:"tabled prover ≡ bottom-up on random stratified programs"
    ~count:200 arbitrary_program
    (fun (edges, nodes, (pred, args)) ->
      let goal =
        T.atom pred (List.map (function `Const i -> s (node i) | `Var w -> v w) args)
      in
      let canon substs =
        List.sort_uniq String.compare (List.map (Format.asprintf "%a" T.Subst.pp) substs)
      in
      let agree goal =
        canon (Prover.solve (Prover.make (build_program edges nodes)) [ goal ])
        = canon (ok (Datalog.query (build_program edges nodes) goal))
      in
      agree goal && agree (T.atom "path" [ v "A"; v "B" ]))

(* Formulas --------------------------------------------------------------- *)

let paper_env () =
  (* instances: Paper = {inv, min}; holds: haskey(inv) only *)
  {
    Formula.instances_of =
      (fun c ->
        if Kernel.Symbol.name c = "Paper" then [ s "inv"; s "min" ] else []);
    holds =
      (fun a ->
        Kernel.Symbol.name a.T.pred = "haskey"
        && Array.length a.T.args = 1
        && T.equal a.T.args.(0) (s "inv"));
  }

let test_formula_eval () =
  let env = paper_env () in
  let f_all =
    Formula.Forall ("x", Kernel.Symbol.intern "Paper",
                    Formula.Atom (T.atom "haskey" [ v "x" ]))
  in
  check bool "forall fails" false (ok (Formula.eval env T.Subst.empty f_all));
  let f_ex =
    Formula.Exists ("x", Kernel.Symbol.intern "Paper",
                    Formula.Atom (T.atom "haskey" [ v "x" ]))
  in
  check bool "exists holds" true (ok (Formula.eval env T.Subst.empty f_ex))

let test_formula_connectives () =
  let env = paper_env () in
  let t = Formula.True and f = Formula.False in
  check bool "and" false (ok (Formula.eval env T.Subst.empty (Formula.And (t, f))));
  check bool "or" true (ok (Formula.eval env T.Subst.empty (Formula.Or (t, f))));
  check bool "implies ff" true
    (ok (Formula.eval env T.Subst.empty (Formula.Implies (f, f))));
  check bool "not" true (ok (Formula.eval env T.Subst.empty (Formula.Not f)));
  check bool "cmp" true
    (ok (Formula.eval env T.Subst.empty (Formula.Cmp (T.Lt, T.int 1, T.int 2))))

let test_formula_non_ground_error () =
  let env = paper_env () in
  match Formula.eval env T.Subst.empty (Formula.Atom (T.atom "haskey" [ v "x" ])) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-ground atom evaluated"

let test_formula_violation_witness () =
  let env = paper_env () in
  let f =
    Formula.Forall ("x", Kernel.Symbol.intern "Paper",
                    Formula.Atom (T.atom "haskey" [ v "x" ]))
  in
  match ok (Formula.first_violation env T.Subst.empty f) with
  | Some viol ->
    check
      Alcotest.(list (pair string string))
      "witness binding"
      [ ("x", "min") ]
      (List.map (fun (v, t) -> (v, Format.asprintf "%a" T.pp t)) viol.Formula.witness)
  | None -> Alcotest.fail "expected violation"

let test_formula_violation_none () =
  let env = paper_env () in
  let f =
    Formula.Exists ("x", Kernel.Symbol.intern "Paper",
                    Formula.Atom (T.atom "haskey" [ v "x" ]))
  in
  check bool "no violation" true (ok (Formula.first_violation env T.Subst.empty f) = None)

let test_formula_free_vars () =
  let f =
    Formula.And
      ( Formula.Atom (T.atom "p" [ v "a"; v "b" ]),
        Formula.Forall ("b", Kernel.Symbol.intern "C",
                        Formula.Atom (T.atom "q" [ v "b"; v "c" ])) )
  in
  check Alcotest.(list string) "free vars" [ "a"; "b"; "c" ]
    (List.sort String.compare (Formula.free_vars f))

let suite =
  [
    ("unify basics", `Quick, test_unify_basics);
    ("unify atoms", `Quick, test_unify_atoms);
    ("clause safety", `Quick, test_clause_safety);
    ("eval cmp", `Quick, test_eval_cmp);
    ("datalog seminaive", `Quick, test_datalog_seminaive);
    ("datalog bound query", `Quick, test_datalog_bound_query);
    ("datalog negation", `Quick, test_datalog_negation);
    ("datalog stratification error", `Quick, test_datalog_stratification_error);
    ("datalog strata order", `Quick, test_datalog_strata_order);
    ("datalog rejects unsafe", `Quick, test_datalog_rejects_unsafe);
    ("datalog rejects non-ground fact", `Quick, test_datalog_rejects_nonground_fact);
    ("datalog external relation", `Quick, test_datalog_external_relation);
    ("datalog cmp literal", `Quick, test_datalog_cmp_literal);
    ("datalog invalidate", `Quick, test_datalog_invalidate);
    ("datalog fact added after solve", `Quick, test_datalog_add_after_solve);
    ("prover tabled recursive", `Quick, test_prover_tabled_recursive);
    ("prover sld non-recursive", `Quick, test_prover_sld_nonrecursive);
    ("prover sld right-recursive", `Quick, test_prover_sld_recursive_rightrec);
    ("prover left recursion with tabling", `Quick, test_prover_left_recursive_tabling);
    ("prover conjunction", `Quick, test_prover_conjunction);
    ("prover negation (sld)", `Quick, test_prover_negation_sld);
    QCheck_alcotest.to_alcotest test_prover_differential;
    ("formula eval", `Quick, test_formula_eval);
    ("formula connectives", `Quick, test_formula_connectives);
    ("formula non-ground error", `Quick, test_formula_non_ground_error);
    ("formula violation witness", `Quick, test_formula_violation_witness);
    ("formula violation none", `Quick, test_formula_violation_none);
    ("formula free vars", `Quick, test_formula_free_vars);
  ]
