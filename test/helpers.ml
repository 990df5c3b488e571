(* Assertions shared by the test suites. *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* [needle] occurs in [hay] *)
let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec loop i = i + nl <= hl && (String.sub hay i nl = needle || loop (i + 1)) in
  loop 0
