module J = Tms.Jtms
module A = Tms.Atms

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

(* JTMS ------------------------------------------------------------------- *)

let test_jtms_premise () =
  let t = J.create () in
  let n = J.node t "fact" in
  check bool "initially out" true (J.is_out t n);
  ignore (J.premise t n);
  check bool "premise in" true (J.is_in t n)

let test_jtms_chain () =
  let t = J.create () in
  let a = J.node t "a" and b = J.node t "b" and c = J.node t "c" in
  ignore (J.justify t ~inlist:[ a ] ~reason:"a=>b" b);
  ignore (J.justify t ~inlist:[ b ] ~reason:"b=>c" c);
  check bool "c out before premise" true (J.is_out t c);
  ignore (J.premise t a);
  check bool "chain propagates" true (J.is_in t c)

let test_jtms_retract () =
  let t = J.create () in
  let a = J.node t "a" and b = J.node t "b" and c = J.node t "c" in
  let pa = J.premise t a in
  ignore (J.justify t ~inlist:[ a ] ~reason:"a=>b" b);
  ignore (J.justify t ~inlist:[ b ] ~reason:"b=>c" c);
  check bool "all in" true (J.is_in t c);
  J.retract t pa;
  check bool "a out" true (J.is_out t a);
  check bool "b out" true (J.is_out t b);
  check bool "c out" true (J.is_out t c)

let test_jtms_selective_retract () =
  (* two independent chains; retracting one leaves the other IN *)
  let t = J.create () in
  let a1 = J.node t "a1" and b1 = J.node t "b1" in
  let a2 = J.node t "a2" and b2 = J.node t "b2" in
  let p1 = J.premise t a1 in
  ignore (J.premise t a2);
  ignore (J.justify t ~inlist:[ a1 ] ~reason:"1" b1);
  ignore (J.justify t ~inlist:[ a2 ] ~reason:"2" b2);
  J.retract t p1;
  check bool "b1 out" true (J.is_out t b1);
  check bool "b2 still in" true (J.is_in t b2)

let test_jtms_multiple_support () =
  let t = J.create () in
  let a = J.node t "a" and b = J.node t "b" and c = J.node t "c" in
  ignore (J.premise t a);
  ignore (J.premise t b);
  let ja = J.justify t ~inlist:[ a ] ~reason:"via a" c in
  ignore (J.justify t ~inlist:[ b ] ~reason:"via b" c);
  check bool "supported" true (J.is_in t c);
  J.retract t ja;
  check bool "alternative support found" true (J.is_in t c)

let test_jtms_nonmonotonic () =
  (* assumption: IN while defeater is OUT *)
  let t = J.create () in
  let defeater = J.node t "defeater" in
  let assumption = J.node t "assumption" in
  ignore (J.justify t ~outlist:[ defeater ] ~reason:"default" assumption);
  check bool "default holds" true (J.is_in t assumption);
  ignore (J.premise t defeater);
  check bool "default defeated" true (J.is_out t assumption)

let test_jtms_why () =
  let t = J.create () in
  let a = J.node t "a" and b = J.node t "b" in
  ignore (J.premise t a);
  ignore (J.justify t ~inlist:[ a ] ~reason:"because-a" b);
  let trail = J.why t b in
  check bool "mentions premise" true (List.mem "premise a" trail);
  check bool "mentions rule" true (List.mem "because-a" trail);
  check Alcotest.(list string) "out node has no support" [] (J.why t (J.node t "zzz"))

let test_jtms_contradiction_and_backtrack () =
  let t = J.create () in
  let defeater = J.node t "other_subclasses" in
  let key_choice = J.node t "assoc_key" in
  let contra = J.node t ~contradiction:true "key_conflict" in
  ignore (J.justify t ~outlist:[ defeater ] ~reason:"assume only invitations" key_choice);
  ignore (J.justify t ~inlist:[ key_choice ] ~reason:"conflict" contra);
  check int "one contradiction" 1 (List.length (J.contradictions t));
  let culprit = ok (J.backtrack t contra) in
  check bool "culprit is the assumption" true (J.name culprit = "assoc_key");
  check bool "contradiction resolved" true (J.contradictions t = []);
  check bool "assumption now out" true (J.is_out t key_choice)

let test_jtms_assumptions_under () =
  let t = J.create () in
  let d = J.node t "d" in
  let asm = J.node t "asm" and mid = J.node t "mid" and top = J.node t "top" in
  ignore (J.justify t ~outlist:[ d ] ~reason:"assume" asm);
  ignore (J.justify t ~inlist:[ asm ] ~reason:"m" mid);
  ignore (J.justify t ~inlist:[ mid ] ~reason:"t" top);
  let culprits = J.assumptions_under t top in
  check Alcotest.(list string) "found assumption" [ "asm" ]
    (List.map J.name culprits)

let test_jtms_backtrack_errors () =
  let t = J.create () in
  let n = J.node t "plain" in
  (match J.backtrack t n with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "backtrack on OUT node");
  ignore (J.premise t n);
  match J.backtrack t n with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "backtrack with no assumptions"

(* Random networks for the properties below.  Node [i] sits in stratum
   [i / 3]; an in-list may name any node of its consequence's stratum
   or below (positive loops included), an out-list only nodes of lower
   strata, so each network has one grounded labeling.  A step either
   installs a justification (a premise, an in-list, or an in- and an
   out-list) or retracts one or two of those installed so far. *)
let net_size = 9

type step = Justify of int * int list * int list | Retract of int list

let step_of (kind, a, b, c) =
  let cons = a mod net_size in
  let pick bits ok =
    List.filter (fun i -> bits land (1 lsl i) <> 0 && ok i) (List.init net_size Fun.id)
  in
  let stratum i = i / 3 in
  match kind mod 8 with
  | 0 | 1 -> Retract (if b mod 3 = 0 then [ a; c ] else [ a ])
  | 2 -> Justify (cons, [], [])
  | 3 -> Justify (cons, pick b (fun i -> stratum i <= stratum cons),
                  pick c (fun i -> stratum i < stratum cons))
  | _ -> Justify (cons, pick b (fun i -> stratum i <= stratum cons), [])

(* drawn as raw numbers, so that QCheck shrinks and prints them *)
let steps_arb =
  QCheck.(list_of_size Gen.(int_range 1 30) (quad small_nat small_nat small_nat small_nat))

(* Runs the steps on a fresh network, calling [after] on it after each. *)
let run_steps ?(after = fun _ -> ()) raw =
  let steps = List.map step_of raw in
  let t = J.create () in
  let node i = J.node t ("n" ^ string_of_int i) in
  List.iter (fun i -> ignore (node i)) (List.init net_size Fun.id);
  let installed = ref [||] in
  List.iter
    (fun step ->
      (match step with
      | Justify (cons, inlist, outlist) ->
        let j =
          J.justify t ~inlist:(List.map node inlist) ~outlist:(List.map node outlist)
            ~reason:"r" (node cons)
        in
        installed := Array.append !installed [| j |]
      | Retract picks ->
        let n = Array.length !installed in
        if n > 0 then J.retract_batch t (List.map (fun k -> !installed.(k mod n)) picks));
      after t)
    steps;
  t

(* Each IN node's support is live, valid, and well-founded: following
   supports through in-lists never meets a node twice on one path. *)
let supports_hold t =
  let rec founded path n =
    (not (List.memq n path))
    &&
    match J.supporting t n with
    | None -> false
    | Some j ->
      List.memq j (J.justifications t n)
      && List.for_all (J.is_in t) (J.inlist j)
      && List.for_all (J.is_out t) (J.outlist j)
      && List.for_all (founded (n :: path)) (J.inlist j)
  in
  List.for_all
    (fun n -> if J.is_in t n then founded [] n else J.supporting t n = None)
    (J.nodes t)

let prop_jtms_in_iff_supported =
  QCheck.Test.make ~name:"IN nodes always have a valid support" ~count:300 steps_arb
    (fun steps ->
      let ok = ref true in
      ignore (run_steps ~after:(fun t -> ok := !ok && supports_hold t) steps);
      !ok)

let labels t = List.map (fun n -> (J.name n, J.is_in t n)) (J.nodes t)

(* The incremental labels after each step equal what a from-scratch
   relabeling of the same network computes. *)
let prop_jtms_incremental_equals_relabel =
  QCheck.Test.make ~name:"incremental labels equal relabel" ~count:300 steps_arb
    (fun steps ->
      let agree = ref true in
      let prefix = ref [] in
      List.iter
        (fun step ->
          prefix := !prefix @ [ step ];
          let incremental = labels (run_steps !prefix) in
          let reference = run_steps !prefix in
          J.relabel reference;
          agree := !agree && incremental = labels reference)
        steps;
      !agree)

(* ATMS ------------------------------------------------------------------- *)

let test_atms_assumption_label () =
  let t = A.create () in
  let a = A.assumption t "A" in
  check
    Alcotest.(list (list string))
    "self label"
    [ [ "A" ] ]
    (A.label t a)

let test_atms_propagation () =
  let t = A.create () in
  let a = A.assumption t "A" and b = A.assumption t "B" in
  let n = A.node t "n" in
  A.justify t ~antecedents:[ a; b ] ~reason:"a,b=>n" n;
  check
    Alcotest.(list (list string))
    "union env"
    [ [ "A"; "B" ] ]
    (A.label t n)

let test_atms_disjunctive_support () =
  let t = A.create () in
  let a = A.assumption t "A" and b = A.assumption t "B" in
  let n = A.node t "n" in
  A.justify t ~antecedents:[ a ] ~reason:"via a" n;
  A.justify t ~antecedents:[ b ] ~reason:"via b" n;
  check
    Alcotest.(list (list string))
    "two minimal envs"
    [ [ "A" ]; [ "B" ] ]
    (A.label t n)

let test_atms_minimality () =
  let t = A.create () in
  let a = A.assumption t "A" and b = A.assumption t "B" in
  let n = A.node t "n" in
  A.justify t ~antecedents:[ a; b ] ~reason:"both" n;
  A.justify t ~antecedents:[ a ] ~reason:"a alone" n;
  check
    Alcotest.(list (list string))
    "subsumed env dropped"
    [ [ "A" ] ]
    (A.label t n)

let test_atms_nogood () =
  let t = A.create () in
  let a = A.assumption t "A" and b = A.assumption t "B" in
  let n = A.node t "n" and bad = A.node t "bad" in
  A.justify t ~antecedents:[ a; b ] ~reason:"a,b=>n" n;
  A.justify t ~antecedents:[ a; b ] ~reason:"a,b=>bad" bad;
  A.contradiction t bad;
  check
    Alcotest.(list (list string))
    "nogood recorded"
    [ [ "A"; "B" ] ]
    (A.nogoods t);
  check Alcotest.(list (list string)) "label pruned" [] (A.label t n);
  check bool "inconsistent env" false (A.consistent t [ "A"; "B" ]);
  check bool "consistent singleton" true (A.consistent t [ "A" ])

let test_atms_holds_under () =
  let t = A.create () in
  let a = A.assumption t "A" and b = A.assumption t "B" in
  let n = A.node t "n" in
  A.justify t ~antecedents:[ a ] ~reason:"via a" n;
  check bool "holds under A" true (A.holds_under t n [ "A" ]);
  check bool "holds under superset" true (A.holds_under t n [ "A"; "B" ]);
  check bool "not under B" false (A.holds_under t n [ "B" ]);
  ignore b

let test_atms_chained_propagation () =
  let t = A.create () in
  let a = A.assumption t "A" in
  let n1 = A.node t "n1" and n2 = A.node t "n2" in
  A.justify t ~antecedents:[ a ] ~reason:"1" n1;
  A.justify t ~antecedents:[ n1 ] ~reason:"2" n2;
  check
    Alcotest.(list (list string))
    "chained"
    [ [ "A" ] ]
    (A.label t n2);
  (* justification added before antecedent has a label, then label arrives *)
  let n3 = A.node t "n3" and n4 = A.node t "n4" in
  A.justify t ~antecedents:[ n3 ] ~reason:"3" n4;
  check Alcotest.(list (list string)) "n4 empty" [] (A.label t n4);
  A.justify t ~antecedents:[ a ] ~reason:"4" n3;
  check
    Alcotest.(list (list string))
    "late propagation"
    [ [ "A" ] ]
    (A.label t n4)

let test_atms_premise_node () =
  let t = A.create () in
  let n = A.node t "axiom" in
  A.justify t ~antecedents:[] ~reason:"premise" n;
  check
    Alcotest.(list (list string))
    "empty env"
    [ [] ]
    (A.label t n);
  check bool "holds under anything" true (A.holds_under t n [])

let test_atms_nogood_blocks_future () =
  let t = A.create () in
  let a = A.assumption t "A" and b = A.assumption t "B" in
  let bad = A.node t "bad" in
  A.justify t ~antecedents:[ a; b ] ~reason:"bad" bad;
  A.contradiction t bad;
  (* a new node justified by the nogood env must stay unlabeled *)
  let n = A.node t "n" in
  A.justify t ~antecedents:[ a; b ] ~reason:"late" n;
  check Alcotest.(list (list string)) "blocked" [] (A.label t n)

let prop_atms_labels_minimal =
  QCheck.Test.make ~name:"ATMS labels are minimal and sound" ~count:60
    QCheck.(list (pair (int_range 0 4) (int_range 0 4)))
    (fun pairs ->
      let t = A.create () in
      let assumptions = Array.init 5 (fun i -> A.assumption t ("A" ^ string_of_int i)) in
      let n = A.node t "n" in
      List.iter
        (fun (i, j) ->
          A.justify t ~antecedents:[ assumptions.(i); assumptions.(j) ] ~reason:"r" n)
        pairs;
      let label = A.label t n in
      (* no env subsumes another *)
      List.for_all
        (fun e1 ->
          List.for_all
            (fun e2 ->
              e1 == e2
              || not (List.for_all (fun x -> List.mem x e2) e1)
              || e1 = e2)
            label)
        label
      && List.length (List.sort_uniq compare label) = List.length label)

let suite =
  [
    ("jtms premise", `Quick, test_jtms_premise);
    ("jtms chain", `Quick, test_jtms_chain);
    ("jtms retract", `Quick, test_jtms_retract);
    ("jtms selective retract", `Quick, test_jtms_selective_retract);
    ("jtms multiple support", `Quick, test_jtms_multiple_support);
    ("jtms nonmonotonic default", `Quick, test_jtms_nonmonotonic);
    ("jtms why", `Quick, test_jtms_why);
    ("jtms contradiction + ddb", `Quick, test_jtms_contradiction_and_backtrack);
    ("jtms assumptions under", `Quick, test_jtms_assumptions_under);
    ("jtms backtrack errors", `Quick, test_jtms_backtrack_errors);
    QCheck_alcotest.to_alcotest prop_jtms_in_iff_supported;
    QCheck_alcotest.to_alcotest prop_jtms_incremental_equals_relabel;
    ("atms assumption label", `Quick, test_atms_assumption_label);
    ("atms propagation", `Quick, test_atms_propagation);
    ("atms disjunctive support", `Quick, test_atms_disjunctive_support);
    ("atms minimality", `Quick, test_atms_minimality);
    ("atms nogood", `Quick, test_atms_nogood);
    ("atms holds_under", `Quick, test_atms_holds_under);
    ("atms chained propagation", `Quick, test_atms_chained_propagation);
    ("atms premise node", `Quick, test_atms_premise_node);
    ("atms nogood blocks future", `Quick, test_atms_nogood_blocks_future);
    QCheck_alcotest.to_alcotest prop_atms_labels_minimal;
  ]
