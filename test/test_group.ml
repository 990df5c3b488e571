module Arg = Group.Argumentation
module Choice = Group.Choice

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

let key_issue () =
  let t = Arg.create () in
  ok (Arg.raise_issue t ~about:"dec3" "which key for InvitationRel?");
  ok
    (Arg.propose t ~issue:"which key for InvitationRel?"
       ~position:"associative (date, author)" ~by:"jarke");
  ok
    (Arg.propose t ~issue:"which key for InvitationRel?"
       ~position:"keep surrogate paperkey" ~by:"rose");
  t

let issue = "which key for InvitationRel?"

let test_raise_and_duplicate () =
  let t = key_issue () in
  check Alcotest.(list string) "issue listed" [ issue ] (Arg.issues t);
  match Arg.raise_issue t ~about:"x" issue with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate issue accepted"

let test_propose_duplicate () =
  let t = key_issue () in
  match Arg.propose t ~issue ~position:"associative (date, author)" ~by:"x" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate position accepted"

let test_unknown_issue_or_position () =
  let t = key_issue () in
  (match Arg.propose t ~issue:"ghost" ~position:"p" ~by:"x" with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown issue accepted");
  match Arg.argue t ~issue ~position:"ghost" ~by:"x" ~polarity:Arg.Pro "..." with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unknown position accepted"

let test_scores_and_status () =
  let t = key_issue () in
  ok
    (Arg.argue t ~issue ~position:"associative (date, author)" ~by:"jarke"
       ~polarity:Arg.Pro ~weight:3 "user-friendly keys");
  ok
    (Arg.argue t ~issue ~position:"associative (date, author)" ~by:"rose"
       ~polarity:Arg.Contra ~weight:1 "depends on uniqueness assumption");
  ok
    (Arg.argue t ~issue ~position:"keep surrogate paperkey" ~by:"rose"
       ~polarity:Arg.Pro ~weight:1 "always valid");
  check int "net score" 2 (Arg.score t ~issue ~position:"associative (date, author)");
  check bool "accepted" true
    (Arg.status t ~issue ~position:"associative (date, author)" = Arg.Accepted);
  check bool "rival rejected" true
    (Arg.status t ~issue ~position:"keep surrogate paperkey" = Arg.Rejected);
  check bool "resolution" true
    (Arg.resolution t ~issue = Some "associative (date, author)")

let test_tie_stays_open () =
  let t = key_issue () in
  ok
    (Arg.argue t ~issue ~position:"associative (date, author)" ~by:"a"
       ~polarity:Arg.Pro ~weight:2 "x");
  ok
    (Arg.argue t ~issue ~position:"keep surrogate paperkey" ~by:"b"
       ~polarity:Arg.Pro ~weight:2 "y");
  check bool "tie open 1" true
    (Arg.status t ~issue ~position:"associative (date, author)" = Arg.Open);
  check bool "tie open 2" true
    (Arg.status t ~issue ~position:"keep surrogate paperkey" = Arg.Open);
  check bool "no resolution" true (Arg.resolution t ~issue = None)

let test_negative_scores_not_accepted () =
  let t = key_issue () in
  ok
    (Arg.argue t ~issue ~position:"associative (date, author)" ~by:"a"
       ~polarity:Arg.Contra ~weight:3 "bad");
  check bool "negative not accepted" true
    (Arg.status t ~issue ~position:"associative (date, author)" <> Arg.Accepted)

let test_weight_clamped () =
  let t = key_issue () in
  ok
    (Arg.argue t ~issue ~position:"keep surrogate paperkey" ~by:"a"
       ~polarity:Arg.Pro ~weight:99 "overweight");
  check int "clamped to 5" 5 (Arg.score t ~issue ~position:"keep surrogate paperkey")

let test_participants () =
  let t = key_issue () in
  ok
    (Arg.argue t ~issue ~position:"keep surrogate paperkey" ~by:"vassiliou"
       ~polarity:Arg.Pro "stability");
  check Alcotest.(list string) "participants"
    [ "jarke"; "rose"; "vassiliou" ]
    (Arg.participants t ~issue)

let test_pp_issue () =
  let t = key_issue () in
  ok
    (Arg.argue t ~issue ~position:"keep surrogate paperkey" ~by:"rose"
       ~polarity:Arg.Pro ~weight:2 "robust under evolution");
  let out = Format.asprintf "%a" (Arg.pp_issue t) issue in
  check bool "positions shown" true (contains "keep surrogate paperkey" out);
  check bool "argument shown" true (contains "+2 rose: robust under evolution" out)

(* multicriteria choice ------------------------------------------------------ *)

let criteria =
  [
    { Choice.crit_name = "usability"; weight = 2. };
    { Choice.crit_name = "robustness"; weight = 1. };
  ]

let alternatives =
  [
    {
      Choice.alt_name = "associative key";
      ratings = [ ("usability", 8.); ("robustness", 3.) ];
    };
    {
      Choice.alt_name = "surrogate key";
      ratings = [ ("usability", 4.); ("robustness", 9.) ];
    };
  ]

let test_choice_rank () =
  let ranking = ok (Choice.rank ~criteria ~alternatives) in
  match ranking with
  | [ (first, s1); (second, s2) ] ->
    check Alcotest.string "winner" "associative key" first;
    check Alcotest.string "runner-up" "surrogate key" second;
    (* (2*8 + 1*3)/3 = 6.33 vs (2*4 + 1*9)/3 = 5.67 *)
    check bool "scores ordered" true (s1 > s2)
  | _ -> Alcotest.fail "expected two entries"

let test_choice_winner_and_sensitivity () =
  check Alcotest.string "winner" "associative key"
    (ok (Choice.winner ~criteria ~alternatives));
  let sens = ok (Choice.sensitivity ~criteria ~alternatives ~delta:2.0) in
  (* tripling robustness weight flips the winner *)
  check bool "sensitive to robustness" true (List.assoc "robustness" sens)

let test_choice_validation () =
  (match Choice.rank ~criteria:[] ~alternatives with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty criteria accepted");
  (match
     Choice.rank
       ~criteria:[ { Choice.crit_name = "c"; weight = -1. } ]
       ~alternatives
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative weight accepted");
  match
    Choice.rank ~criteria
      ~alternatives:[ { Choice.alt_name = "incomplete"; ratings = [] } ]
  with
  | Error e ->
    check bool "missing ratings named" true
      (String.length e > 0)
  | Ok _ -> Alcotest.fail "missing ratings accepted"

let test_choice_deterministic_ties () =
  let alts =
    [
      { Choice.alt_name = "b"; ratings = [ ("usability", 5.); ("robustness", 5.) ] };
      { Choice.alt_name = "a"; ratings = [ ("usability", 5.); ("robustness", 5.) ] };
    ]
  in
  let ranking = ok (Choice.rank ~criteria ~alternatives:alts) in
  check Alcotest.(list string) "ties alphabetical" [ "a"; "b" ]
    (List.map fst ranking)

let suite =
  [
    ("raise and duplicate issue", `Quick, test_raise_and_duplicate);
    ("duplicate position", `Quick, test_propose_duplicate);
    ("unknown issue/position", `Quick, test_unknown_issue_or_position);
    ("scores and status", `Quick, test_scores_and_status);
    ("tie stays open", `Quick, test_tie_stays_open);
    ("negative scores not accepted", `Quick, test_negative_scores_not_accepted);
    ("weight clamped", `Quick, test_weight_clamped);
    ("participants", `Quick, test_participants);
    ("pp issue", `Quick, test_pp_issue);
    ("choice rank", `Quick, test_choice_rank);
    ("choice winner and sensitivity", `Quick, test_choice_winner_and_sensitivity);
    ("choice validation", `Quick, test_choice_validation);
    ("choice deterministic ties", `Quick, test_choice_deterministic_ties);
  ]
