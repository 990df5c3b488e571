open Kernel
module Ctx = Gkbms.Context
module Scn = Gkbms.Scenario

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

let conflict_ctx () =
  let st = ok (Scn.run_through_conflict ()) in
  (st, Ctx.build st.Scn.repo)

let test_decisions_are_assumptions () =
  let _, ctx = conflict_ctx () in
  check Alcotest.(list string) "four decisions"
    [ "dec1"; "dec2"; "dec3"; "dec4" ]
    (List.sort String.compare (Ctx.decisions ctx))

let test_labels () =
  let _, ctx = conflict_ctx () in
  check
    Alcotest.(list (list string))
    "the rekeyed version needs the whole chain"
    [ [ "dec1"; "dec2"; "dec3" ] ]
    (Ctx.label ctx (Symbol.intern "InvitationRel3"));
  check
    Alcotest.(list (list string))
    "the first relation needs only the mapping"
    [ [ "dec1" ] ]
    (Ctx.label ctx (Symbol.intern "InvitationRel"));
  check
    Alcotest.(list (list string))
    "imported objects are premises"
    [ [] ]
    (Ctx.label ctx (Symbol.intern "Papers"))

let test_nogood_between_alternatives () =
  let _, ctx = conflict_ctx () in
  check
    Alcotest.(list (list string))
    "key decision and minutes mapping exclude each other"
    [ [ "dec3"; "dec4" ] ]
    (Ctx.nogoods ctx);
  check bool "jointly inconsistent" false (Ctx.consistent ctx [ "dec3"; "dec4" ]);
  check bool "individually fine" true (Ctx.consistent ctx [ "dec3" ])

let test_exists_under () =
  let _, ctx = conflict_ctx () in
  check bool "rel3 under its decisions" true
    (Ctx.exists_under ctx (Symbol.intern "InvitationRel3")
       [ "dec1"; "dec2"; "dec3" ]);
  check bool "rel3 not under the minutes branch" false
    (Ctx.exists_under ctx (Symbol.intern "InvitationRel3")
       [ "dec1"; "dec2"; "dec4" ]);
  check bool "minute relation on its branch" true
    (Ctx.exists_under ctx (Symbol.intern "MinuteRel") [ "dec1"; "dec2"; "dec4" ])

let test_alternatives_are_fig_3_4 () =
  let _, ctx = conflict_ctx () in
  let alts = Ctx.alternatives ctx in
  check int "two maximal configurations" 2 (List.length alts);
  check bool "keyed branch present" true
    (List.mem [ "dec1"; "dec2"; "dec3" ] alts);
  check bool "minutes branch present" true
    (List.mem [ "dec1"; "dec2"; "dec4" ] alts);
  (* the branches disagree exactly on the conflicting artifacts *)
  let conf_a = Ctx.configuration_under ctx [ "dec1"; "dec2"; "dec3" ] in
  let conf_b = Ctx.configuration_under ctx [ "dec1"; "dec2"; "dec4" ] in
  let names l = List.map Symbol.name l in
  check bool "branch A has the rekeyed version" true
    (List.mem "InvitationRel3" (names conf_a));
  check bool "branch A has no MinuteRel" false (List.mem "MinuteRel" (names conf_a));
  check bool "branch B has MinuteRel" true (List.mem "MinuteRel" (names conf_b));
  check bool "branch B has no rekeyed version" false
    (List.mem "InvitationRel3" (names conf_b));
  check bool "shared prefix in both" true
    (List.mem "InvitationRel2" (names conf_a)
    && List.mem "InvitationRel2" (names conf_b))

let test_no_conflict_history () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  let ctx = Ctx.build st.Scn.repo in
  check Alcotest.(list (list string)) "no nogoods" [] (Ctx.nogoods ctx);
  check int "one maximal configuration" 1 (List.length (Ctx.alternatives ctx))

let test_context_after_backtrack () =
  let st, _report = ok (Scn.run_all ()) in
  let ctx = Ctx.build st.Scn.repo in
  (* dec3 is gone; what remains is a single consistent history *)
  check bool "retracted decision absent" false
    (List.mem "dec3" (Ctx.decisions ctx));
  check Alcotest.(list (list string)) "no nogoods left" [] (Ctx.nogoods ctx);
  check int "single configuration" 1 (List.length (Ctx.alternatives ctx))

let suite =
  [
    ("decisions are assumptions", `Quick, test_decisions_are_assumptions);
    ("labels", `Quick, test_labels);
    ("nogood between alternatives", `Quick, test_nogood_between_alternatives);
    ("exists under", `Quick, test_exists_under);
    ("alternatives reproduce fig 3-4", `Quick, test_alternatives_are_fig_3_4);
    ("no-conflict history", `Quick, test_no_conflict_history);
    ("context after backtrack", `Quick, test_context_after_backtrack);
  ]
