open Kernel
open Store

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let sym = Symbol.intern

let mk ?(time = Time.always) id source label dest =
  Prop.make ~time ~id:(sym id) ~source:(sym source) ~label:(sym label)
    ~dest:(sym dest) ()

open Helpers

let ids props =
  List.sort String.compare
    (List.map (fun (p : Prop.t) -> Symbol.name p.id) props)

let test_insert_find () =
  let base = Base.create () in
  ok (Base.insert base (mk "s1" "Invitation" "isa" "Paper"));
  check bool "mem" true (Base.mem base (sym "s1"));
  match Base.find base (sym "s1") with
  | Some p -> check bool "found" true (Symbol.equal p.Prop.source (sym "Invitation"))
  | None -> Alcotest.fail "not found"

let test_duplicate_rejected () =
  let base = Base.create () in
  ok (Base.insert base (mk "d1" "a" "l" "b"));
  match Base.insert base (mk "d1" "c" "l" "d") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate id accepted"

let test_remove () =
  let base = Base.create () in
  ok (Base.insert base (mk "r1" "a" "l" "b"));
  let removed = ok (Base.remove base (sym "r1")) in
  check bool "removed prop returned" true (Symbol.equal removed.Prop.id (sym "r1"));
  check bool "gone" false (Base.mem base (sym "r1"));
  match Base.remove base (sym "r1") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "double remove accepted"

let populate base =
  ok (Base.insert base (mk "p1" "Invitation" "isa" "Paper"));
  ok (Base.insert base (mk "p2" "Minutes" "isa" "Paper"));
  ok (Base.insert base (mk "p3" "Invitation" "attribute" "sender"));
  ok (Base.insert base (mk "p4" "Paper" "isa" "Document"))

let test_indexes () =
  let base = Base.create () in
  populate base;
  check Alcotest.(list string) "by_source"
    [ "p1"; "p3" ]
    (ids (Base.by_source base (sym "Invitation")));
  check Alcotest.(list string) "by_source_label" [ "p1" ]
    (ids (Base.by_source_label base (sym "Invitation") (sym "isa")));
  check Alcotest.(list string) "by_dest" [ "p1"; "p2" ]
    (ids (Base.by_dest base (sym "Paper")));
  check Alcotest.(list string) "by_label" [ "p1"; "p2"; "p4" ]
    (ids (Base.by_label base (sym "isa")));
  check Alcotest.(list string) "links"
    [ "p1" ]
    (ids
       (Base.links base ~source:(sym "Invitation") ~label:(sym "isa")
          ~dest:(sym "Paper")))

let test_indexes_after_remove () =
  let base = Base.create () in
  populate base;
  ignore (ok (Base.remove base (sym "p1")));
  check Alcotest.(list string) "source index updated" [ "p3" ]
    (ids (Base.by_source base (sym "Invitation")));
  check Alcotest.(list string) "dest index updated" [ "p2" ]
    (ids (Base.by_dest base (sym "Paper")))

(* the fold reads are [List.fold_right] over the matching [by_*] read,
   order included *)
let test_fold_reads () =
  let base = Base.create () in
  populate base;
  ok (Base.insert base (mk "p5" "Invitation" "isa" "Document"));
  let in_order = Alcotest.(list string) in
  let names ps = List.map (fun (p : Prop.t) -> Symbol.name p.id) ps in
  List.iter
    (fun x ->
      check in_order "fold_source" (names (Base.by_source base (sym x)))
        (names (Base.fold_source base (sym x) List.cons []));
      check in_order "fold_dest" (names (Base.by_dest base (sym x)))
        (names (Base.fold_dest base (sym x) List.cons [])))
    [ "Invitation"; "Paper"; "Document"; "nobody" ];
  let isa = sym "isa" in
  check in_order "filtering fold keeps the source_label order"
    (names (Base.by_source_label base (sym "Invitation") isa))
    (names
       (Base.fold_source base (sym "Invitation")
          (fun (p : Prop.t) acc -> if Symbol.equal p.label isa then p :: acc else acc)
          []))

let test_query_pattern () =
  let base = Base.create () in
  populate base;
  ok
    (Base.insert base
       (mk ~time:(Time.between 5 9) "p5" "Invitation" "isa" "Document"));
  check Alcotest.(list string) "query source+label"
    [ "p1"; "p5" ]
    (ids (Base.query ~source:(sym "Invitation") ~label:(sym "isa") base));
  check Alcotest.(list string) "query with valid_at"
    [ "p1" ]
    (ids
       (Base.query ~source:(sym "Invitation") ~label:(sym "isa")
          ~valid_at:2 base));
  check int "query all" 5 (List.length (Base.query base))

let test_cardinal_and_fold () =
  let base = Base.create () in
  populate base;
  check int "cardinal" 4 (Base.cardinal base);
  check int "fold counts" 4 (Base.fold base (fun acc _ -> acc + 1) 0)

let test_tx_commit () =
  let base = Base.create () in
  populate base;
  Base.begin_tx base;
  ok (Base.insert base (mk "t1" "x" "l" "y"));
  ok (Base.commit base);
  check bool "committed survives" true (Base.mem base (sym "t1"))

let test_tx_rollback () =
  let base = Base.create () in
  populate base;
  Base.begin_tx base;
  ok (Base.insert base (mk "t2" "x" "l" "y"));
  ignore (ok (Base.remove base (sym "p1")));
  ok (Base.rollback base);
  check bool "insert undone" false (Base.mem base (sym "t2"));
  check bool "remove undone" true (Base.mem base (sym "p1"));
  check int "cardinality restored" 4 (Base.cardinal base)

let test_tx_nested () =
  let base = Base.create () in
  Base.begin_tx base;
  ok (Base.insert base (mk "n1" "a" "l" "b"));
  Base.begin_tx base;
  ok (Base.insert base (mk "n2" "a" "l" "b"));
  ok (Base.rollback base);
  check bool "inner rolled back" false (Base.mem base (sym "n2"));
  check bool "outer kept" true (Base.mem base (sym "n1"));
  ok (Base.commit base);
  check int "depth zero" 0 (Base.tx_depth base)

let test_tx_nested_outer_rollback () =
  let base = Base.create () in
  Base.begin_tx base;
  ok (Base.insert base (mk "o1" "a" "l" "b"));
  Base.begin_tx base;
  ok (Base.insert base (mk "o2" "a" "l" "b"));
  ok (Base.commit base);
  ok (Base.rollback base);
  check bool "nested commit undone by outer rollback" false
    (Base.mem base (sym "o2"));
  check bool "outer insert undone" false (Base.mem base (sym "o1"))

let test_tx_errors () =
  let base = Base.create () in
  (match Base.commit base with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "commit without tx");
  match Base.rollback base with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "rollback without tx"

let test_with_tx () =
  let base = Base.create () in
  let r =
    Base.with_tx base (fun () ->
        ok (Base.insert base (mk "w1" "a" "l" "b"));
        Ok 42)
  in
  check int "with_tx result" 42 (ok r);
  check bool "kept" true (Base.mem base (sym "w1"));
  let r2 : (unit, string) result =
    Base.with_tx base (fun () ->
        ok (Base.insert base (mk "w2" "a" "l" "b"));
        Error "boom")
  in
  (match r2 with Error "boom" -> () | _ -> Alcotest.fail "error passed through");
  check bool "rolled back" false (Base.mem base (sym "w2"))

let test_on_change () =
  let base = Base.create () in
  let events = ref [] in
  ignore (Base.on_change base (fun c -> events := c :: !events));
  ok (Base.insert base (mk "c1" "a" "l" "b"));
  ignore (ok (Base.remove base (sym "c1")));
  check int "two events" 2 (List.length !events);
  match !events with
  | [ Base.Removed _; Base.Added _ ] -> ()
  | _ -> Alcotest.fail "unexpected event order"

let test_off_change () =
  let base = Base.create () in
  let a = ref 0 and b = ref 0 in
  let sub = Base.on_change base (fun _ -> incr a) in
  ignore (Base.on_change base (fun _ -> incr b));
  ok (Base.insert base (mk "u1" "a" "l" "b"));
  Base.off_change base sub;
  ok (Base.insert base (mk "u2" "a" "l" "b"));
  check int "unsubscribed listener stopped" 1 !a;
  check int "other listener still fires" 2 !b;
  (* unknown ids are ignored *)
  Base.off_change base sub

let test_rollback_reemits_changes () =
  let base = Base.create () in
  populate base;
  let events = ref [] in
  ignore (Base.on_change base (fun c -> events := c :: !events));
  Base.begin_tx base;
  ok (Base.insert base (mk "t9" "x" "l" "y"));
  ignore (ok (Base.remove base (sym "p1")));
  events := [];
  ok (Base.rollback base);
  (* undo happens in reverse order: re-add p1, then drop t9 *)
  match List.rev !events with
  | [ Base.Added p; Base.Removed q ] ->
    check bool "re-added p1" true (Symbol.equal p.Prop.id (sym "p1"));
    check bool "removed t9" true (Symbol.equal q.Prop.id (sym "t9"))
  | _ -> Alcotest.fail "rollback did not re-emit both changes"

let test_with_tx_exception_reemits () =
  let base = Base.create () in
  populate base;
  let events = ref [] in
  ignore (Base.on_change base (fun c -> events := c :: !events));
  (try
     ignore
       (Base.with_tx base (fun () ->
            ok (Base.insert base (mk "e1" "x" "l" "y"));
            failwith "boom"))
   with Failure _ -> ());
  check bool "rolled back" false (Base.mem base (sym "e1"));
  match !events with
  | [ Base.Removed p; Base.Added q ] ->
    check bool "same prop removed" true (Symbol.equal p.Prop.id (sym "e1"));
    check bool "same prop added" true (Symbol.equal q.Prop.id (sym "e1"))
  | _ -> Alcotest.fail "exception rollback did not replay the undo"

let test_nested_rollback_reemits () =
  let base = Base.create () in
  let events = ref [] in
  ignore (Base.on_change base (fun c -> events := c :: !events));
  Base.begin_tx base;
  ok (Base.insert base (mk "s1" "a" "l" "b"));
  Base.begin_tx base;
  ok (Base.insert base (mk "s2" "a" "l" "b"));
  events := [];
  ok (Base.rollback base);
  (* only the savepoint's changes are replayed *)
  (match !events with
  | [ Base.Removed p ] ->
    check bool "inner insert undone" true (Symbol.equal p.Prop.id (sym "s2"))
  | _ -> Alcotest.fail "savepoint rollback should emit exactly one event");
  check bool "outer insert intact" true (Base.mem base (sym "s1"));
  ok (Base.commit base)

let test_query_valid_at () =
  let base = Base.create () in
  ok (Base.insert base (mk ~time:(Time.between 0 4) "v1" "a" "l" "b"));
  ok (Base.insert base (mk ~time:(Time.between 5 9) "v2" "a" "l" "b"));
  ok (Base.insert base (mk "v3" "a" "l" "b"));
  check Alcotest.(list string) "valid at 2" [ "v1"; "v3" ]
    (ids (Base.query ~valid_at:2 base));
  check Alcotest.(list string) "valid at 7" [ "v2"; "v3" ]
    (ids (Base.query ~valid_at:7 base));
  check Alcotest.(list string) "valid at 100" [ "v3" ]
    (ids (Base.query ~valid_at:100 base));
  check Alcotest.(list string) "valid_at composes with dest index"
    [ "v1"; "v3" ]
    (ids (Base.query ~dest:(sym "b") ~valid_at:0 base))

(* A proposition's line: its four names with backslash, tab and
   newline escaped, then its valid time and its belief, tab-separated.
   The canonical snapshot, the replication convergence check, compares
   these lines, so their bytes are pinned. *)
let test_persistence_roundtrip () =
  let base = Base.create () in
  ok
    (Base.insert base
       (mk ~time:(Time.named "version17" 1 8) "p9" "In vitation\ttab"
          "weird\nlabel" "back\\slash"));
  check Alcotest.string "escaped line"
    "p9\tIn vitation\\ttab\tweird\\nlabel\tback\\\\slash\tversion17[1,8]\t0\n"
    (Base.to_serialized base)

(* qcheck: random insert/remove sequences keep indexes consistent with a
   model list *)
let prop_store_model =
  QCheck.Test.make ~name:"store agrees with model list" ~count:100
    QCheck.(list (pair (int_range 0 20) bool))
    (fun ops ->
      let base = Base.create () in
      let model = Hashtbl.create 16 in
      List.iteri
        (fun i (k, ins) ->
          let id = "q" ^ string_of_int k in
          if ins then begin
            let p = mk id ("src" ^ string_of_int (k mod 3)) "lab" "dst" in
            match Base.insert base p with
            | Ok () ->
              if Hashtbl.mem model id then
                QCheck.Test.fail_reportf "dup accepted at step %d" i
              else Hashtbl.add model id p
            | Error _ ->
              if not (Hashtbl.mem model id) then
                QCheck.Test.fail_reportf "fresh insert rejected at step %d" i
          end
          else
            match Base.remove base (sym id) with
            | Ok _ ->
              if not (Hashtbl.mem model id) then
                QCheck.Test.fail_reportf "phantom remove at step %d" i
              else Hashtbl.remove model id
            | Error _ ->
              if Hashtbl.mem model id then
                QCheck.Test.fail_reportf "remove failed at step %d" i)
        ops;
      Base.cardinal base = Hashtbl.length model
      && Hashtbl.fold (fun id _ acc -> acc && Base.mem base (sym id)) model true)

let prop_rollback_restores =
  QCheck.Test.make ~name:"rollback restores exact state" ~count:60
    QCheck.(pair (list (int_range 0 15)) (list (int_range 0 15)))
    (fun (before, inside) ->
      let base = Base.create () in
      List.iter
        (fun k ->
          ignore (Base.insert base (mk ("b" ^ string_of_int k) "s" "l" "d")))
        before;
      let canon s = List.sort String.compare (String.split_on_char '\n' s) in
      let snapshot = canon (Base.to_serialized base) in
      Base.begin_tx base;
      List.iter
        (fun k ->
          ignore (Base.insert base (mk ("i" ^ string_of_int k) "s" "l" "d"));
          ignore (Base.remove base (sym ("b" ^ string_of_int k))))
        inside;
      (match Base.rollback base with Ok () -> () | Error _ -> ());
      snapshot = canon (Base.to_serialized base))

(* Mem_store against a model: the stored propositions as a plain list,
   newest first.  Random inserts, removals and re-insertions over small
   key windows make chains short, long, reordered and drained.  The
   window's sources, destinations and labels are interned 1,024 codes
   apart, so each kind shares one home slot in its chain table and a
   drained key's removal shifts the others back. *)
let prop_mem_store_model =
  let module M = Mem_store in
  let window = 4 in
  let spaced prefix =
    Array.init (window + 1) (fun k ->
        let s = sym (Printf.sprintf "%s%d" prefix k) in
        for j = 1 to 1023 do
          ignore (sym (Printf.sprintf "%s%d~%d" prefix k j))
        done;
        s)
  in
  let keys = [ ("mms", spaced "mms"); ("mml", spaced "mml"); ("mmd", spaced "mmd") ] in
  let key prefix k =
    match List.assoc_opt prefix keys with
    | Some spaced -> spaced.(k)
    | None -> sym (prefix ^ string_of_int k)
  in
  QCheck.Test.make ~name:"mem store agrees with a newest-first list model"
    ~count:300
    QCheck.(list (quad (int_range 0 2) (int_range 0 11) (int_range 0 (window - 1))
                  (pair (int_range 0 (window - 1)) (int_range 0 (window - 1)))))
    (fun ops ->
      let st = M.create () in
      let model = ref [] in
      let fail fmt = QCheck.Test.fail_reportf fmt in
      let same = List.equal Prop.equal in
      let compare_views step =
        let keep (f : Prop.t -> bool) = List.filter f !model in
        for k = 0 to window do
          let x = key "mms" k and l = key "mml" k and y = key "mmd" k in
          if not (same (M.by_source st x) (keep (fun p -> Symbol.equal p.source x)))
          then fail "by_source %d at step %d" k step;
          if not (same (M.by_dest st y) (keep (fun p -> Symbol.equal p.dest y)))
          then fail "by_dest %d at step %d" k step;
          if not (same (M.by_label st l) (keep (fun p -> Symbol.equal p.label l)))
          then fail "by_label %d at step %d" k step;
          if not (same (M.fold_source st x List.cons []) (M.by_source st x))
          then fail "fold_source %d at step %d" k step;
          if not (same (M.fold_dest st y List.cons []) (M.by_dest st y))
          then fail "fold_dest %d at step %d" k step;
          let seen = ref [] in
          M.iter_by_label st l (fun p -> seen := p :: !seen);
          if not (same (List.rev !seen) (M.by_label st l)) then
            fail "iter_by_label %d at step %d" k step;
          for j = 0 to window do
            let l = key "mml" j in
            if
              not
                (same (M.by_source_label st x l)
                   (keep (fun p -> Symbol.equal p.source x && Symbol.equal p.label l)))
            then fail "by_source_label %d %d at step %d" k j step
          done
        done;
        for i = 0 to 12 do
          let id = key "mmp" i in
          let m = List.find_opt (fun (p : Prop.t) -> Symbol.equal p.id id) !model in
          if not (Option.equal ( == ) (M.find st id) m) then fail "find %d at step %d" i step;
          if M.mem st id <> Option.is_some m then fail "mem %d at step %d" i step
        done;
        if M.cardinal st <> List.length !model then fail "cardinal at step %d" step;
        let sorted ids = List.sort Symbol.compare ids in
        if
          sorted (M.fold st (fun acc (p : Prop.t) -> p.id :: acc) [])
          <> sorted (List.map (fun (p : Prop.t) -> p.id) !model)
        then fail "fold at step %d" step
      in
      let remove id =
        model := List.filter (fun (p : Prop.t) -> not (Symbol.equal p.id id)) !model
      in
      List.iteri
        (fun step (op, i, s, (l, d)) ->
          let id = key "mmp" i in
          let present = List.find_opt (fun (p : Prop.t) -> Symbol.equal p.id id) !model in
          (match (op, present) with
          | 0, _ ->
            let p =
              Prop.make ~id ~source:(key "mms" s) ~label:(key "mml" l) ~dest:(key "mmd" d) ()
            in
            if M.insert st p <> Option.is_none present then fail "insert at step %d" step;
            if present = None then model := p :: !model
          | 1, _ ->
            if not (Option.equal ( == ) (M.remove st id) present) then
              fail "remove at step %d" step;
            remove id
          | _, None -> ()
          | _, Some p ->
            (* re-insertion moves [p] to the head of its three chains *)
            ignore (M.remove st id);
            remove id;
            if not (M.insert st p) then fail "re-insert at step %d" step;
            model := p :: !model);
          compare_views step)
        ops;
      List.iter (fun (p : Prop.t) -> ignore (M.remove st p.id)) !model;
      M.cardinal st = 0 && M.index_keys st = 0)

(* A removal costs O(1) however long its chains are.  One label and one
   destination each hold [n] propositions, the shape of a class's
   [instanceof] links; removing and re-inserting one of them must
   allocate the same at [n] and at [4n].  An index that rebuilds its
   list bucket allocates ~6 words per proposition in the two buckets. *)
let test_mem_remove_constant () =
  let module M = Mem_store in
  let per_round n =
    let st = M.create () in
    let props =
      Array.init n (fun i ->
          mk (Printf.sprintf "rc%d" i) (Printf.sprintf "rcobj%d" i) "instanceof" "RcClass")
    in
    Array.iter (fun p -> ignore (M.insert st p)) props;
    let rounds = 64 in
    let before = Gc.minor_words () in
    for k = 0 to rounds - 1 do
      let p = props.((n / 2) + k) in
      ignore (M.remove st p.id);
      ignore (M.insert st p)
    done;
    let words = (Gc.minor_words () -. before) /. float_of_int rounds in
    check int "chains intact" n (List.length (M.by_dest st (sym "RcClass")));
    words
  in
  let small = per_round 20_000 and large = per_round 80_000 in
  if large > 1.5 *. small then
    Alcotest.failf "remove + re-insert: %.0f words at n = 20,000, %.0f at 80,000"
      small large

(* Every index-selection arm of [Base.query]: the no-residual fast path
   must return exactly the indexed list (source+label, source-only,
   label-only, unconstrained), and each residual combination must agree
   with a reference filter over [to_list]. *)
let test_query_residual_fast_path () =
  let base = Base.create () in
  List.iter
    (fun (id, s, l, d, t0, t1) ->
      ok (Base.insert base (mk ~time:(Time.between t0 t1) id s l d)))
    [
      ("q1", "a", "attr", "x", 0, 10);
      ("q2", "a", "attr", "y", 5, 15);
      ("q3", "a", "isa", "x", 0, 10);
      ("q4", "b", "attr", "x", 0, 10);
      ("q5", "b", "isa", "y", 20, 30);
    ];
  let reference ?source ?label ?dest ?valid_at () =
    List.filter
      (fun (p : Prop.t) ->
        (match source with None -> true | Some x -> Symbol.equal p.source x)
        && (match label with None -> true | Some l -> Symbol.equal p.label l)
        && (match dest with None -> true | Some y -> Symbol.equal p.dest y)
        &&
        match valid_at with
        | None -> true
        | Some pt -> Time.valid_at p.time pt)
      (Base.to_list base)
  in
  let agree name ?source ?label ?dest ?valid_at () =
    check Alcotest.(list string) name
      (ids (reference ?source ?label ?dest ?valid_at ()))
      (ids (Base.query ?source ?label ?dest ?valid_at base))
  in
  let a = sym "a" and attr = sym "attr" and x = sym "x" in
  (* no-residual arms: the indexed list is returned as-is *)
  agree "source+label" ~source:a ~label:attr ();
  agree "source only" ~source:a ();
  agree "label only" ~label:attr ();
  agree "unconstrained" ();
  (* residual arms: dest narrows a source index; label narrows dest *)
  agree "source+label+dest" ~source:a ~label:attr ~dest:x ();
  agree "source+dest" ~source:a ~dest:x ();
  agree "dest only" ~dest:x ();
  agree "dest+label" ~dest:x ~label:attr ();
  (* valid_at forces the filter on every arm, including no-residual *)
  agree "source+label at t" ~source:a ~label:attr ~valid_at:7 ();
  agree "label at t" ~label:attr ~valid_at:12 ();
  agree "unconstrained at t" ~valid_at:25 ();
  agree "dest at t" ~dest:x ~valid_at:3 ();
  (* empty results through both paths *)
  agree "missing source" ~source:(sym "zz") ();
  agree "missing combo" ~source:a ~label:(sym "isa") ~dest:(sym "y") ()

let test_mem_store_bucket_drain () =
  let module Mem = Store.Mem_store in
  let st = Mem.create () in
  let n = 100 in
  let props =
    List.init n (fun i ->
        Prop.make ~id:(Prop.fresh_id ())
          ~source:(Symbol.intern ("src" ^ string_of_int (i mod 7)))
          ~label:(Symbol.intern ("lab" ^ string_of_int (i mod 5)))
          ~dest:(Symbol.intern ("dst" ^ string_of_int (i mod 3)))
          ())
  in
  List.iter (fun p -> check bool "inserted" true (Mem.insert st p)) props;
  List.iter (fun (p : Prop.t) -> ignore (Mem.remove st p.id)) props;
  check int "primary empty" 0 (Mem.cardinal st);
  check int "no chain key left" 0 (Mem.index_keys st)

(* The server runs reads concurrently: 4 domains hammer a populated base
   with point lookups, index walks and full folds, and every answer must
   match the sequentially computed expectation. *)
let test_parallel_reads () =
  let base = Base.create () in
  let n = 5_000 in
  for i = 0 to n - 1 do
    ok
      (Base.insert base
         (mk (Printf.sprintf "pr%d" i)
            (Printf.sprintf "prs%d" (i mod 40))
            (Printf.sprintf "prl%d" (i mod 8))
            (Printf.sprintf "prd%d" (i mod 13))))
  done;
  let expect_src = ids (Base.by_source base (sym "prs7")) in
  let expect_lbl = List.length (Base.by_label base (sym "prl3")) in
  let worker seed () =
    let errs = ref 0 in
    for i = 0 to 999 do
      let k = (i * seed) mod n in
      (match Base.find base (sym (Printf.sprintf "pr%d" k)) with
      | Some p ->
        if not (Symbol.equal p.Prop.source (sym (Printf.sprintf "prs%d" (k mod 40))))
        then incr errs
      | None -> incr errs);
      if i mod 100 = 0 then begin
        if ids (Base.by_source base (sym "prs7")) <> expect_src then incr errs;
        if List.length (Base.by_label base (sym "prl3")) <> expect_lbl then
          incr errs;
        if Base.fold base (fun n _ -> n + 1) 0 <> n then incr errs
      end
    done;
    !errs
  in
  let domains = List.init 4 (fun k -> Domain.spawn (worker (k + 1))) in
  let errs = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  check int "no read anomalies across 4 domains" 0 errs

let suite =
  [
    ("insert and find", `Quick, test_insert_find);
    ("duplicate rejected", `Quick, test_duplicate_rejected);
    ("remove", `Quick, test_remove);
    ("indexes", `Quick, test_indexes);
    ("indexes after remove", `Quick, test_indexes_after_remove);
    ("fold reads", `Quick, test_fold_reads);
    ("query pattern", `Quick, test_query_pattern);
    ("cardinal and fold", `Quick, test_cardinal_and_fold);
    ("tx commit", `Quick, test_tx_commit);
    ("tx rollback", `Quick, test_tx_rollback);
    ("tx nested", `Quick, test_tx_nested);
    ("tx nested outer rollback", `Quick, test_tx_nested_outer_rollback);
    ("tx errors", `Quick, test_tx_errors);
    ("with_tx", `Quick, test_with_tx);
    ("on_change", `Quick, test_on_change);
    ("off_change", `Quick, test_off_change);
    ("rollback re-emits changes", `Quick, test_rollback_reemits_changes);
    ("with_tx exception re-emits", `Quick, test_with_tx_exception_reemits);
    ("nested rollback re-emits", `Quick, test_nested_rollback_reemits);
    ("query valid_at", `Quick, test_query_valid_at);
    ("query residual fast path", `Quick, test_query_residual_fast_path);
    ("persistence roundtrip", `Quick, test_persistence_roundtrip);
    ("4-domain concurrent reads", `Quick, test_parallel_reads);
    QCheck_alcotest.to_alcotest prop_store_model;
    QCheck_alcotest.to_alcotest prop_rollback_restores;
    QCheck_alcotest.to_alcotest prop_mem_store_model;
    ("mem store removal is O(1)", `Quick, test_mem_remove_constant);
    ("mem-store drained buckets removed", `Quick, test_mem_store_bucket_drain);
  ]
