(* The allocation-growth gates of bench/scaling: words per call of each
   browsing verb on a fixed target, at H = 512 and 4H = 2,048 tip-edited
   decisions.  A verb that reads its focus's neighbourhood stays within
   1.5× of its H count, and so do [stats] and [unmapped] after a
   commit, and the retraction of a 4-chain; [config], whose answer
   lists a whole level, and [check], which audits the whole history,
   within 6×.  An [edit] allocates at most 4,000 words at either size;
   its ratio is measured and reported, not gated.  A [durable_edit],
   an edit journaled to a WAL, is gated both ways: within 1.5× of its
   H count, and at most 4,650 words. *)

let test_gates () =
  let rows = Scaling.run () in
  List.iter (fun r -> Format.printf "%a@." Scaling.pp_row r) rows;
  let gated = List.filter (fun (r : Scaling.row) -> r.bound <> None) rows in
  Alcotest.(check (list string))
    "gated verbs"
    [ "focus"; "deps"; "why"; "history"; "menu"; "source"; "stats"; "config"; "unmapped";
      "check"; "retract"; "durable_edit" ]
    (List.map (fun (r : Scaling.row) -> r.op) gated);
  Alcotest.(check (list string))
    "gated in words" [ "edit"; "durable_edit" ]
    (List.filter_map
       (fun (r : Scaling.row) -> if r.words_bound <> None then Some r.op else None)
       rows);
  match List.filter (fun r -> not (Scaling.passes r)) rows with
  | [] -> ()
  | failed ->
    Alcotest.failf "allocation grows with the history: %s"
      (String.concat "; " (List.map (Format.asprintf "%a" Scaling.pp_row) failed))

let suite = [ ("words per call at H and 4H decisions", `Quick, test_gates) ]
