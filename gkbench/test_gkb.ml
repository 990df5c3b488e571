let check_float msg expected got = Alcotest.(check (float 1e-9)) msg expected got

let percentile_rule () =
  let tail n = Stats.tail_percentile n in
  Alcotest.(check (option (float 0.))) "10000 samples" (Some 99.9) (tail 10000);
  Alcotest.(check (option (float 0.))) "1000 samples" (Some 99.) (tail 1000);
  Alcotest.(check (option (float 0.))) "999 samples" (Some 95.) (tail 999);
  Alcotest.(check (option (float 0.))) "100 samples" (Some 90.) (tail 100);
  Alcotest.(check (option (float 0.))) "20 samples" (Some 50.) (tail 20);
  Alcotest.(check (option (float 0.))) "19 samples" None (tail 19);
  let a = Array.init 10 (fun i -> float_of_int (10 - i)) in
  check_float "median is nearest rank" 5. (Stats.median a);
  check_float "p90" 9. (Stats.quantile a 0.9);
  check_float "p100" 10. (Stats.quantile a 1.)

let sliced_rate () =
  (* 200 completions 10 ms apart, with a one-second stall before #100 *)
  let times = Array.init 200 (fun i -> (0.01 *. float_of_int (i + 1)) +. if i >= 100 then 1. else 0.) in
  check_float "a stall moves one slice, not the rate" 100.
    (Float.round (Stats.sliced_rate ~start:0. times));
  Alcotest.(check bool) "the whole-run rate does move" true (200. /. times.(199) < 70.)

let segmented_quantile () =
  (* 1000 samples 10 ms apart, latency 1 ms, with a stall of 200
     samples at 50 ms in the middle *)
  let timed =
    List.init 1000 (fun i -> (0.01 *. float_of_int i, if i >= 400 && i < 600 then 0.05 else 0.001))
  in
  check_float "the stall moves one stretch, not the p90" 0.001 (Stats.segmented_quantile timed 0.9);
  check_float "the plain p90 does move" 0.05 (Stats.quantile (Array.of_list (List.map snd timed)) 0.9);
  check_float "order is by completion time" 0.001
    (Stats.segmented_quantile (List.rev timed) 0.9);
  check_float "under 300 samples it is the plain quantile" 0.05
    (Stats.segmented_quantile (List.filteri (fun i _ -> i >= 300 && i < 500) timed) 0.9);
  (* latency growing over the run: the highest stretch is left out *)
  let rising = List.init 500 (fun i -> (float_of_int i, float_of_int (i / 100))) in
  check_float "the mean of the four lower stretches" 1.5 (Stats.segmented_quantile rising 0.5)

let lines ops = Array.to_list (Array.map (fun (op : Gen.op) -> op.Gen.line) ops)

let seeded_streams () =
  let d seed = fst (Gen.setup_edits ~seed ~docs:64 ~edits:256) in
  let streams seed =
    [
      lines (Gen.edit_stream ~seed ~count:500 ~docs:64);
      lines (Gen.browse_stream ~seed ~count:500 (d seed) ~decisions:256);
      lines (snd (Gen.mixed_stream ~seed ~count:500 ~rate:100. (d seed)));
      lines (snd (Gen.replicate_stream ~seed ~count:500 ~rate:20. ~docs:64));
      List.map string_of_int (Array.to_list (Gen.evolve_chains ~seed ~count:500));
    ]
  in
  List.iter2
    (fun a b -> Alcotest.(check (list string)) "same seed, same stream" a b)
    (streams 7) (streams 7);
  List.iter2
    (fun a b -> Alcotest.(check bool) "another seed, another stream" true (a <> b))
    (streams 7) (streams 8);
  Alcotest.(check bool) "setup edits follow the seed" true
    (lines (snd (Gen.setup_edits ~seed:7 ~docs:64 ~edits:256))
    <> lines (snd (Gen.setup_edits ~seed:8 ~docs:64 ~edits:256)))

let poisson_rate () =
  let r = Gen.rng ~seed:1 ~stream:0 in
  let n = 100_000 and rate = 250. in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Gen.exp_gap r ~rate
  done;
  let measured = float_of_int n /. !total in
  Alcotest.(check bool)
    (Printf.sprintf "mean rate %.1f within 2%% of %.0f" measured rate)
    true
    (Float.abs (measured -. rate) /. rate < 0.02);
  let due = Gen.poisson_schedule r ~rate ~count:1000 in
  Alcotest.(check int) "count" 1000 (Array.length due);
  Alcotest.(check bool) "ascending, within count/rate" true
    (Array.for_all (fun t -> t >= 0. && t < 4.) due
    && Array.for_all Fun.id (Array.init 999 (fun i -> due.(i) <= due.(i + 1))))

(* Version names the generator predicts for an edit history. *)
let tips () =
  let d = Gen.fresh_docs 12 in
  let op = Gen.edit_tip d 11 ~text:"a" in
  Alcotest.(check string) "first edit of the base" "run DecManualEdit Editor object=Doc11x text=a" op.Gen.line;
  let op2 = Gen.edit_tip d 11 ~text:"b" in
  Alcotest.(check string) "second edit of the tip" "run DecManualEdit Editor object=Doc11x2 text=b" op2.Gen.line;
  Alcotest.(check bool) "answer check" true
    (Gen.check op2.Gen.expect "run executed: decision dec9 -> Doc11x3");
  Alcotest.(check bool) "wrong version fails" false
    (Gen.check op2.Gen.expect "run executed: decision dec9 -> Doc11x2");
  Alcotest.(check (option string)) "decision id" (Some "dec9")
    (Gen.decision_of_answer "run executed: decision dec9 -> Doc11x3")

let benchmark_json () =
  let ic = open_in_bin "../BENCHMARK.json" in
  let spec = Json.parse (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let names key field =
    List.map
      (fun m -> Option.get (Option.bind (Json.member field m) Json.to_string_opt))
      (Json.to_list (Option.get (Json.member key spec)))
  in
  Alcotest.(check (list string)) "workloads" Spec.workloads (names "workloads" "name");
  List.iter
    (fun (key, trace, table) ->
      Alcotest.(check (list (pair string string)))
        (key ^ " names and units") table
        (List.combine (names key "name") (names key "unit"));
      let out =
        Json.parse
          (Spec.result_line ~trace ~correct:true ~attempted:1 ~failed:0
             (List.mapi (fun i (n, _) -> (n, 1.5 +. float_of_int i)) table))
      in
      let metrics = Option.get (Json.member "metrics" out) in
      List.iter2
        (fun name unit_ ->
          match Json.member name metrics with
          | Some m ->
            Alcotest.(check (option string)) (name ^ " unit") (Some unit_)
              (Option.bind (Json.member "unit" m) Json.to_string_opt)
          | None -> Alcotest.failf "%s missing from the result line" name)
        (names key "name") (names key "unit"))
    [ ("end_to_end", false, Spec.end_to_end); ("per_layer", true, Spec.per_layer) ]

let () =
  Alcotest.run "gkbench"
    [
      ( "gkbench",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "sliced rate" `Quick sliced_rate;
          Alcotest.test_case "segmented quantile" `Quick segmented_quantile;
          Alcotest.test_case "seeded op streams" `Quick seeded_streams;
          Alcotest.test_case "poisson mean rate" `Quick poisson_rate;
          Alcotest.test_case "predicted version tips" `Quick tips;
          Alcotest.test_case "result line matches BENCHMARK.json" `Quick benchmark_json;
        ] );
    ]
