module A = Temporal.Allen
module EC = Temporal.Event_calculus
open Kernel

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let sym = Symbol.intern

(* Allen base relations -------------------------------------------------- *)

let test_relate_all_cases () =
  let cases =
    [
      ((0, 1), (2, 3), A.Before);
      ((0, 2), (2, 3), A.Meets);
      ((0, 3), (2, 5), A.Overlaps);
      ((0, 2), (0, 5), A.Starts);
      ((2, 3), (0, 5), A.During);
      ((3, 5), (0, 5), A.Finishes);
      ((1, 4), (1, 4), A.Equals);
      ((4, 5), (0, 1), A.After);
      ((2, 3), (0, 2), A.Met_by);
      ((2, 5), (0, 3), A.Overlapped_by);
      ((0, 5), (0, 2), A.Started_by);
      ((0, 5), (2, 3), A.Contains);
      ((0, 5), (3, 5), A.Finished_by);
    ]
  in
  List.iter
    (fun (((lo1, hi1), (lo2, hi2), expected) as _case) ->
      let got = A.relate ~lo1 ~hi1 ~lo2 ~hi2 in
      check bool
        (Printf.sprintf "(%d,%d) vs (%d,%d) = %s" lo1 hi1 lo2 hi2
           (A.relation_to_string expected))
        true (got = expected))
    cases

let test_relate_rejects_degenerate () =
  Alcotest.check_raises "degenerate"
    (Invalid_argument "Allen.relate: degenerate interval") (fun () ->
      ignore (A.relate ~lo1:1 ~hi1:1 ~lo2:0 ~hi2:2))

let test_inverse_involution () =
  List.iter
    (fun r ->
      check bool (A.relation_to_string r) true (A.inverse (A.inverse r) = r))
    A.all_relations

let test_set_operations () =
  let s = A.of_list [ A.Before; A.Meets ] in
  check int "cardinal" 2 (A.cardinal s);
  check bool "mem" true (A.mem A.Before s);
  check bool "not mem" false (A.mem A.During s);
  check int "full has 13" 13 (A.cardinal A.full);
  check bool "empty" true (A.is_empty A.empty);
  check bool "union/inter" true
    (A.equal_set s (A.inter (A.union s (A.singleton A.During)) s))

let test_inverse_set () =
  let s = A.of_list [ A.Before; A.Starts ] in
  let inv = A.inverse_set s in
  check bool "inverted members" true
    (A.mem A.After inv && A.mem A.Started_by inv && A.cardinal inv = 2)

(* Composition table spot checks against the literature *)
let test_composition_known_entries () =
  let single r = A.singleton r in
  check bool "b ; b = b" true
    (A.equal_set (A.compose (single A.Before) (single A.Before)) (single A.Before));
  check bool "m ; m = b" true
    (A.equal_set (A.compose (single A.Meets) (single A.Meets)) (single A.Before));
  check bool "d ; b = b" true
    (A.equal_set (A.compose (single A.During) (single A.Before)) (single A.Before));
  (* b ; bi is the full set *)
  check bool "b ; bi = full" true
    (A.equal_set (A.compose (single A.Before) (single A.After)) A.full);
  (* e is identity *)
  List.iter
    (fun r ->
      check bool ("e ; " ^ A.relation_to_string r) true
        (A.equal_set (A.compose (single A.Equals) (single r)) (single r)))
    A.all_relations

let prop_composition_sound =
  QCheck.Test.make ~name:"composition covers every concrete instance" ~count:300
    QCheck.(
      quad (pair (int_range 0 9) (int_range 0 9))
        (pair (int_range 0 9) (int_range 0 9))
        (pair (int_range 0 9) (int_range 0 9))
        unit)
    (fun (((alo, ad), (blo, bd), (clo, cd), ()) : _ * _ * _ * unit) ->
      let ahi = alo + 1 + ad and bhi = blo + 1 + bd and chi = clo + 1 + cd in
      let rab = A.relate ~lo1:alo ~hi1:ahi ~lo2:blo ~hi2:bhi in
      let rbc = A.relate ~lo1:blo ~hi1:bhi ~lo2:clo ~hi2:chi in
      let rac = A.relate ~lo1:alo ~hi1:ahi ~lo2:clo ~hi2:chi in
      A.mem rac (A.compose (A.singleton rab) (A.singleton rbc)))

let prop_inverse_composition =
  QCheck.Test.make ~name:"(r;s)^-1 = s^-1 ; r^-1" ~count:200
    QCheck.(pair (int_range 0 12) (int_range 0 12))
    (fun (i, j) ->
      let r = A.singleton (List.nth A.all_relations i)
      and s = A.singleton (List.nth A.all_relations j) in
      A.equal_set
        (A.inverse_set (A.compose r s))
        (A.compose (A.inverse_set s) (A.inverse_set r)))

(* Networks -------------------------------------------------------------- *)

let test_network_propagate_chain () =
  (* A before B, B before C  =>  A before C *)
  let n = A.Network.create 3 in
  A.Network.constrain n 0 1 (A.singleton A.Before);
  A.Network.constrain n 1 2 (A.singleton A.Before);
  check bool "consistent" true (A.Network.propagate n);
  check bool "transitivity derived" true
    (A.equal_set (A.Network.get n 0 2) (A.singleton A.Before))

let test_allen_known_chain () =
  (* a meets b meets c: path consistency must tighten a-c to Before *)
  let net = A.Network.create 3 in
  A.Network.constrain net 0 1 (A.singleton A.Meets);
  A.Network.constrain net 1 2 (A.singleton A.Meets);
  check bool "consistent" true (A.Network.propagate net);
  check bool "a before c" true
    (A.equal_set (A.Network.get net 0 2) (A.singleton A.Before))

let matrix net =
  let n = A.Network.size net in
  Array.init n (fun i -> Array.init n (fun j -> A.Network.get net i j))

(* The path-consistency closure by brute force: tighten every ordered
   pair through every third variable until nothing changes.  The
   closure is unique, so [propagate]'s PC-2 worklist must reach the
   same verdict and, on a consistent network, the same matrix. *)
let naive_closure net =
  let n = A.Network.size net in
  let c = matrix net in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        for k = 0 to n - 1 do
          if i <> j && k <> i && k <> j then begin
            let t = A.inter c.(i).(j) (A.compose c.(i).(k) c.(k).(j)) in
            if not (A.equal_set t c.(i).(j)) then begin
              c.(i).(j) <- t;
              changed := true
            end
          end
        done
      done
    done
  done;
  c

let rand_set st =
  (* non-empty random relation set *)
  let set = ref A.empty in
  List.iter
    (fun r -> if QCheck.Gen.bool st then set := A.union !set (A.singleton r))
    A.all_relations;
  if A.is_empty !set then A.singleton A.Before else !set

let prop_propagate_closure =
  let n = 10 in
  QCheck.Test.make ~name:"network propagate = naive closure" ~count:40
    (QCheck.make
       QCheck.Gen.(
         list_size (int_range 0 (2 * n))
           (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) rand_set)))
    (fun constraints ->
      let net = A.Network.create n in
      List.iter
        (fun (i, j, set) -> if i <> j then A.Network.constrain net i j set)
        constraints;
      let closure = naive_closure net in
      let consistent =
        Array.for_all (Array.for_all (fun s -> not (A.is_empty s))) closure
      in
      let ok = A.Network.propagate net in
      ok = consistent && ((not ok) || matrix net = closure))

let test_network_inconsistent () =
  (* A before B, B before C, C before A is impossible *)
  let n = A.Network.create 3 in
  A.Network.constrain n 0 1 (A.singleton A.Before);
  A.Network.constrain n 1 2 (A.singleton A.Before);
  A.Network.constrain n 2 0 (A.singleton A.Before);
  check bool "detected inconsistent" false (A.Network.propagate n)

let test_network_scenario () =
  let n = A.Network.create 3 in
  A.Network.constrain n 0 1 (A.of_list [ A.Before; A.Meets ]);
  A.Network.constrain n 1 2 (A.of_list [ A.Before; A.Overlaps ]);
  match A.Network.consistent_scenario n with
  | None -> Alcotest.fail "expected a scenario"
  | Some sc ->
    check bool "scenario entry is atomic" true
      (sc.(0).(1) = A.Before || sc.(0).(1) = A.Meets);
    check bool "diagonal equals" true (sc.(1).(1) = A.Equals)

let test_network_scenario_none () =
  let n = A.Network.create 3 in
  A.Network.constrain n 0 1 (A.singleton A.Before);
  A.Network.constrain n 1 2 (A.singleton A.Before);
  A.Network.constrain n 2 0 (A.singleton A.Before);
  check bool "no scenario" true (A.Network.consistent_scenario n = None)

(* Event calculus -------------------------------------------------------- *)

let meeting_history () =
  let ec = EC.create () in
  EC.declare_initiates ec (sym "schedule") (sym "meeting_planned");
  EC.declare_terminates ec (sym "cancel") (sym "meeting_planned");
  EC.declare_initiates ec (sym "open_session") (sym "in_session");
  EC.declare_terminates ec (sym "close_session") (sym "in_session");
  EC.record ec ~time:1 (sym "schedule");
  EC.record ec ~time:5 (sym "open_session");
  EC.record ec ~time:8 (sym "close_session");
  EC.record ec ~time:10 (sym "cancel");
  ec

let test_ec_holds_at () =
  let ec = meeting_history () in
  check bool "before initiation" false (EC.holds_at ec (sym "meeting_planned") 0);
  check bool "at initiation" true (EC.holds_at ec (sym "meeting_planned") 1);
  check bool "persists" true (EC.holds_at ec (sym "meeting_planned") 9);
  check bool "terminated" false (EC.holds_at ec (sym "meeting_planned") 10);
  check bool "session window" true (EC.holds_at ec (sym "in_session") 6);
  check bool "session closed" false (EC.holds_at ec (sym "in_session") 8)

let test_ec_history () =
  let ec = meeting_history () in
  check
    Alcotest.(list (pair int bool))
    "change points"
    [ (1, true); (10, false) ]
    (EC.history ec (sym "meeting_planned"))

let test_ec_holding_at () =
  let ec = meeting_history () in
  check Alcotest.(list string) "both fluents at 6"
    [ "in_session"; "meeting_planned" ]
    (List.map Symbol.name (EC.holding_at ec 6))

let test_ec_simultaneous () =
  (* terminate + re-initiate at the same instant leaves the fluent on *)
  let ec = EC.create () in
  EC.declare_initiates ec (sym "revise") (sym "valid_design");
  EC.declare_terminates ec (sym "revise") (sym "valid_design");
  EC.record ec ~time:3 (sym "revise");
  check bool "re-initiated" true (EC.holds_at ec (sym "valid_design") 3)

let test_ec_unknown_fluent () =
  let ec = meeting_history () in
  check bool "never-declared fluent" false (EC.holds_at ec (sym "ghost") 5)

let test_ec_events_sorted () =
  let ec = EC.create () in
  EC.declare_initiates ec (sym "a") (sym "f");
  EC.record ec ~time:9 (sym "a");
  EC.record ec ~time:2 (sym "a");
  check Alcotest.(list int) "chronological" [ 2; 9 ]
    (List.map fst (EC.events ec))

let prop_ec_persistence =
  QCheck.Test.make ~name:"fluent holds iff last relevant event initiates"
    ~count:150
    QCheck.(list (pair (int_range 0 30) bool))
    (fun events ->
      let ec = EC.create () in
      EC.declare_initiates ec (sym "on") (sym "f");
      EC.declare_terminates ec (sym "off") (sym "f");
      List.iter
        (fun (t, init) -> EC.record ec ~time:t (sym (if init then "on" else "off")))
        events;
      let query = 31 in
      let expected =
        (* initiation wins within the same instant, so compare (time, init)
           pairs with init sorted last at equal times *)
        let sorted =
          List.sort
            (fun (t1, i1) (t2, i2) ->
              if t1 <> t2 then Stdlib.compare t1 t2 else Stdlib.compare i1 i2)
            events
        in
        List.fold_left (fun _ (_, init) -> init) false
          (List.filter (fun (t, _) -> t <= query) sorted)
      in
      EC.holds_at ec (sym "f") query = expected)

let suite =
  [
    ("relate covers all 13", `Quick, test_relate_all_cases);
    ("relate rejects degenerate", `Quick, test_relate_rejects_degenerate);
    ("inverse involution", `Quick, test_inverse_involution);
    ("set operations", `Quick, test_set_operations);
    ("inverse set", `Quick, test_inverse_set);
    ("composition known entries", `Quick, test_composition_known_entries);
    ("network chain", `Quick, test_network_propagate_chain);
    ("allen meets-chain tightening", `Quick, test_allen_known_chain);
    ("network inconsistent", `Quick, test_network_inconsistent);
    ("network scenario", `Quick, test_network_scenario);
    ("network scenario none", `Quick, test_network_scenario_none);
    ("ec holds_at", `Quick, test_ec_holds_at);
    ("ec history", `Quick, test_ec_history);
    ("ec holding_at", `Quick, test_ec_holding_at);
    ("ec simultaneous events", `Quick, test_ec_simultaneous);
    ("ec unknown fluent", `Quick, test_ec_unknown_fluent);
    ("ec events sorted", `Quick, test_ec_events_sorted);
    QCheck_alcotest.to_alcotest prop_composition_sound;
    QCheck_alcotest.to_alcotest prop_inverse_composition;
    QCheck_alcotest.to_alcotest prop_propagate_closure;
    QCheck_alcotest.to_alcotest prop_ec_persistence;
  ]
