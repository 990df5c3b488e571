(* The cost-based query planner: statistics exactness, cost-model
   ordering, magic-sets cone restriction, and — the load-bearing
   property — answer invariance: [Planner.query] must produce exactly
   the substitution set of the unplanned engine on randomized programs
   and bindings, sequentially and at 1/2/4 domains. *)

open Kernel
open Logic
module T = Term
module P = Planner

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let v = T.var
let s = T.sym
let sym = Symbol.intern

let pool1 = Par.Pool.create ~domains:1
let pool2 = Par.Pool.create ~domains:2
let pool4 = Par.Pool.create ~domains:4

let canon substs =
  List.sort_uniq String.compare
    (List.map (Format.asprintf "%a" T.Subst.pp) substs)

(* statistics ----------------------------------------------------------- *)

let test_stats_exact () =
  let st = P.Stats.create () in
  let p = sym "tp_edge" in
  let tup a b = [| s a; s b |] in
  P.Stats.observe_add st p (tup "a" "x");
  P.Stats.observe_add st p (tup "a" "y");
  P.Stats.observe_add st p (tup "b" "y");
  check int "rows" 3 (Option.get (P.Stats.rows st p));
  check int "distinct arg0" 2 (Option.get (P.Stats.distinct st p 0));
  check int "distinct arg1" 2 (Option.get (P.Stats.distinct st p 1));
  (* removing one 'a' tuple keeps 'a' distinct (multiplicity 2 -> 1) *)
  P.Stats.observe_remove st p (tup "a" "x");
  check int "rows after remove" 2 (Option.get (P.Stats.rows st p));
  check int "distinct arg0 kept" 2 (Option.get (P.Stats.distinct st p 0));
  check int "distinct arg1 dropped to" 1 (Option.get (P.Stats.distinct st p 1));
  P.Stats.observe_remove st p (tup "a" "y");
  check int "distinct arg0 dropped" 1 (Option.get (P.Stats.distinct st p 0));
  (* unknown removals clamp at zero *)
  P.Stats.observe_remove st p (tup "zz" "zz");
  P.Stats.observe_remove st p (tup "b" "y");
  P.Stats.observe_remove st p (tup "b" "y");
  check int "rows clamp" 0 (Option.get (P.Stats.rows st p));
  check bool "unknown pred" true (P.Stats.rows st (sym "tp_none") = None)

let test_stats_gauges () =
  let st = P.Stats.create () in
  let p = sym "tp_gauge_pred" in
  P.Stats.observe_add st p [| s "a"; s "b" |];
  P.Stats.observe_add st p [| s "c"; s "d" |];
  match
    Obs.Registry.find Obs.Registry.default
      ~labels:[ ("pred", "tp_gauge_pred") ]
      "gkbms_datalog_pred_rows"
  with
  | Some { Obs.Registry.value = Obs.Registry.Gauge_v g; _ } ->
    check bool "gauge tracks rows" true (g = 2.0)
  | Some _ -> Alcotest.fail "pred_rows is not a gauge"
  | None -> Alcotest.fail "gkbms_datalog_pred_rows{pred=...} not registered"

let test_stats_attach () =
  let base = Store.Base.create () in
  let st = P.Stats.create () in
  let pred = sym "tp_link" in
  let tuples_of (p : Prop.t) = [ (pred, [| T.symbol p.source; T.symbol p.dest |]) ] in
  let _sub = P.Stats.attach_base st base ~tuples_of in
  let mk id src dst =
    Prop.make ~id:(sym id) ~source:(sym src) ~label:(sym "l") ~dest:(sym dst) ()
  in
  ok (Store.Base.insert base (mk "t1" "a" "x"));
  ok (Store.Base.insert base (mk "t2" "b" "x"));
  check int "rows after inserts" 2 (Option.get (P.Stats.rows st pred));
  check int "distinct dest" 1 (Option.get (P.Stats.distinct st pred 1));
  ignore (ok (Store.Base.remove base (sym "t1")));
  check int "rows after remove" 1 (Option.get (P.Stats.rows st pred));
  check int "distinct source" 1 (Option.get (P.Stats.distinct st pred 0))

(* Random add/remove streams against a naive multiset of tuples.  Values
   mix symbols with integers (large, negative, and one equal to a
   symbol's code); [tq_keyed] declares its first argument a key, and
   every tuple added to it gets a fresh key.  Unknown tuples are built
   from values never added, so no stored tuple matches them. *)
type stats_op =
  | Add of int * int list  (** predicate, picks into [known] *)
  | Remove_stored of int * int  (** predicate, pick into its tuples *)
  | Remove_unknown of int * int list  (** predicate, picks into [unknown] *)

let known =
  [| s "a"; s "b"; s "c"; T.Int 0; T.Int (-1); T.Int max_int; T.Int min_int;
     T.Int (Symbol.to_int (sym "a")) |]

let unknown = [| s "tq_never"; T.Int 42; T.Int (max_int - 1); T.Int (min_int + 1) |]
let tq_preds = [| (sym "tq_pair", 2); (sym "tq_keyed", 3) |]

let pp_stats_op = function
  | Add (p, vs) ->
    Printf.sprintf "add %d [%s]" p (String.concat ";" (List.map string_of_int vs))
  | Remove_stored (p, k) -> Printf.sprintf "remove-stored %d #%d" p k
  | Remove_unknown (p, vs) ->
    Printf.sprintf "remove-unknown %d [%s]" p
      (String.concat ";" (List.map string_of_int vs))

let gen_stats_op =
  let open QCheck.Gen in
  let picks n = list_repeat 3 (int_range 0 (n - 1)) in
  int_range 0 1 >>= fun p ->
  frequency
    [ (5, map (fun vs -> Add (p, vs)) (picks (Array.length known)));
      (3, map (fun k -> Remove_stored (p, k)) (int_range 0 1000));
      (1, map (fun vs -> Remove_unknown (p, vs)) (picks (Array.length unknown))) ]

let prop_stats_exact =
  QCheck.Test.make ~name:"stats: rows and distinct equal a multiset recount"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat "\n" (List.map pp_stats_op ops))
       QCheck.Gen.(list_size (int_range 0 80) gen_stats_op))
    (fun ops ->
      let st = P.Stats.create () in
      P.Stats.declare_key st (fst tq_preds.(1)) 0;
      let stored = Array.make 2 [] in
      let fresh = ref 0 in
      let tuple p pool vs =
        let arity = snd tq_preds.(p) in
        let vals = Array.of_list (List.map (fun i -> pool.(i)) vs) in
        if p = 1 && pool == known then begin
          incr fresh;
          (* fresh keys, alternating symbols with extreme integers *)
          vals.(0) <-
            (if !fresh mod 2 = 0 then T.Int (min_int + !fresh)
             else s (Printf.sprintf "tq_k%d" !fresh))
        end;
        Array.sub vals 0 arity
      in
      let rec remove_one x = function
        | [] -> []
        | y :: rest -> if y == x then rest else y :: remove_one x rest
      in
      let agrees p =
        let pred, arity = tq_preds.(p) in
        let tuples = stored.(p) in
        let distinct i =
          List.length (List.sort_uniq T.compare (List.map (fun a -> a.(i)) tuples))
        in
        Option.value ~default:0 (P.Stats.rows st pred) = List.length tuples
        && List.for_all
             (fun i -> Option.value ~default:0 (P.Stats.distinct st pred i) = distinct i)
             (List.init arity Fun.id)
      in
      List.for_all
        (fun op ->
          (match op with
          | Add (p, vs) ->
            let a = tuple p known vs in
            P.Stats.observe_add st (fst tq_preds.(p)) a;
            stored.(p) <- a :: stored.(p)
          | Remove_stored (p, k) -> (
            match stored.(p) with
            | [] -> ()
            | tuples ->
              let a = List.nth tuples (k mod List.length tuples) in
              (* a copy: the collector must not rely on physical identity *)
              P.Stats.observe_remove st (fst tq_preds.(p)) (Array.copy a);
              stored.(p) <- remove_one a tuples)
          | Remove_unknown (p, vs) ->
            P.Stats.observe_remove st (fst tq_preds.(p)) (tuple p unknown vs));
          agrees 0 && agrees 1)
        ops)

(* cost model ------------------------------------------------------------ *)

let test_cost_order () =
  let st = P.Stats.create () in
  let big = sym "tc_big" and small = sym "tc_small" in
  for i = 0 to 99 do
    P.Stats.observe_add st big [| s (Printf.sprintf "b%d" i); s "hub" |]
  done;
  P.Stats.observe_add st small [| s "k"; s "m" |];
  let d = Datalog.create () in
  let est = P.Cost.of_stats ~stats:st d in
  (* nothing bound: the 1-row relation should be joined first, and the
     comparison delayed until both variables are bound *)
  let body =
    [
      T.Cmp (T.Lt, v "X", v "Y");
      T.Pos (T.atom_s big [ v "X"; v "Y" ]);
      T.Pos (T.atom_s small [ v "Y"; v "Z" ]);
    ]
  in
  let plan = P.Cost.order_body est ~bound:P.Cost.Vars.empty body in
  (match List.map (fun (lp : P.Cost.lit_plan) -> lp.lit) plan.order with
  | [ T.Pos a1; T.Pos a2; T.Cmp _ ] ->
    check bool "small first" true (Symbol.equal a1.T.pred small);
    check bool "big second" true (Symbol.equal a2.T.pred big)
  | _ -> Alcotest.fail "unexpected order");
  (* the second literal joins on a bound variable -> indexed *)
  (match plan.order with
  | _ :: (lp : P.Cost.lit_plan) :: _ -> check bool "indexed join" true lp.indexed
  | _ -> Alcotest.fail "short plan")

(* magic-sets ------------------------------------------------------------ *)

let segmented ~segments ~len =
  let d = Datalog.create () in
  let facts = ref [] in
  for sgt = 0 to segments - 1 do
    for i = 0 to len - 1 do
      facts :=
        T.atom "edge"
          [ s (Printf.sprintf "m%d_%d" sgt i);
            s (Printf.sprintf "m%d_%d" sgt (i + 1)) ]
        :: !facts
    done
  done;
  ok (Datalog.add_facts d !facts);
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "path" [ v "X"; v "Y" ])
          [ T.Pos (T.atom "edge" [ v "X"; v "Y" ]) ]));
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "path" [ v "X"; v "Y" ])
          [ T.Pos (T.atom "edge" [ v "X"; v "Z" ]);
            T.Pos (T.atom "path" [ v "Z"; v "Y" ]) ]));
  d

let test_magic_cone () =
  let d = segmented ~segments:20 ~len:5 in
  let goal = T.atom "path" [ s "m7_0"; v "Y" ] in
  let est = P.Cost.of_stats d in
  let rw =
    match
      P.Magic.rewrite ~est ~is_idb:(Datalog.is_idb d)
        ~rules:(Datalog.clauses d) goal
    with
    | Ok rw -> rw
    | Error _ -> Alcotest.fail "expected a magic rewrite"
  in
  let view = Datalog.derive_view d in
  List.iter (fun c -> ok (Datalog.add_clause view c)) rw.P.Magic.clauses;
  ok (Datalog.solve view);
  let planned = Datalog.match_atom view rw.P.Magic.answer T.Subst.empty in
  (* full materialization on the original engine *)
  let full = ok (Datalog.query d goal) in
  check bool "answers equal" true (canon planned = canon full);
  check int "answers" 5 (List.length planned);
  (* the view touched one segment's cone, not the 20-segment closure *)
  let full_closure = Datalog.derived_count d in
  let cone = Datalog.derived_count view in
  check int "full closure" (20 * (5 * 6 / 2)) full_closure;
  (* one segment's adorned tuples + magic facts, nowhere near 300 *)
  check bool "cone is small" true (cone < full_closure / 5)

let test_magic_all_free () =
  (* zero bound arguments: nullary magic predicates must still work *)
  let d = segmented ~segments:3 ~len:3 in
  let goal = T.atom "path" [ v "X"; v "Y" ] in
  let planned = ok (P.query d goal) in
  let full = ok (Datalog.query (Datalog.copy d) goal) in
  check bool "all-free answers equal" true (canon planned = canon full);
  check int "all-free count" (3 * (3 * 4 / 2)) (List.length planned)

let test_edb_shortcut () =
  let d = segmented ~segments:2 ~len:3 in
  let goal = T.atom "edge" [ s "m0_1"; v "Y" ] in
  let planned = ok (P.query d goal) in
  check int "edb answers" 1 (List.length planned);
  (* the engine was not materialized to answer it *)
  check int "no derivation" 0 (Datalog.derived_count d)

let test_nonmonotone_fallback () =
  let d = Datalog.create () in
  List.iter
    (fun f -> ok (Datalog.add_fact d f))
    [
      T.atom "node" [ s "a" ]; T.atom "node" [ s "b" ]; T.atom "node" [ s "c" ];
      T.atom "edge" [ s "a"; s "b" ];
    ];
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "path" [ v "X"; v "Y" ])
          [ T.Pos (T.atom "edge" [ v "X"; v "Y" ]) ]));
  ok
    (Datalog.add_clause d
       (T.clause (T.atom "unreach" [ v "X"; v "Y" ])
          [ T.Pos (T.atom "node" [ v "X" ]);
            T.Pos (T.atom "node" [ v "Y" ]);
            T.Neg (T.atom "path" [ v "X"; v "Y" ]) ]));
  (* querying the nonmonotone predicate falls back to full evaluation *)
  let goal = T.atom "unreach" [ s "a"; v "Y" ] in
  let planned = ok (P.query d goal) in
  let full = ok (Datalog.query (Datalog.copy d) goal) in
  check bool "fallback answers equal" true (canon planned = canon full);
  check int "fallback count" 2 (List.length planned);
  (* querying path still gets the magic rewrite: its cone is monotone *)
  let goal = T.atom "path" [ s "a"; v "Y" ] in
  let est = P.Cost.of_stats d in
  (match
     P.Magic.rewrite ~est ~is_idb:(Datalog.is_idb d)
       ~rules:(Datalog.clauses d) goal
   with
  | Ok _ -> ()
  | Error _ -> Alcotest.fail "monotone cone should rewrite");
  let planned = ok (P.query d goal) in
  check bool "cone answers equal" true
    (canon planned = canon (ok (Datalog.query (Datalog.copy d) goal)))

(* the differential: planned ≡ unplanned, at 1/2/4 domains --------------- *)

let node i = Printf.sprintf "q%d" i

let build_program edges nodes =
  let d = Datalog.create () in
  List.iter
    (fun (i, j) -> ok (Datalog.add_fact d (T.atom "edge" [ s (node i); s (node j) ])))
    edges;
  List.iter
    (fun i -> ok (Datalog.add_fact d (T.atom "node" [ s (node i) ])))
    nodes;
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
        (oneof
           [ map (fun i -> `Const i) (int_range 0 7);
             oneofl [ `Var "A"; `Var "B" ] ])
    in
    return (pred, args))

let arbitrary_case =
  QCheck.make
    ~print:(fun (edges, nodes, (pred, args)) ->
      Printf.sprintf "edges=%s nodes=%s goal=%s(%s)"
        (String.concat ","
           (List.map (fun (i, j) -> Printf.sprintf "%d-%d" i j) edges))
        (String.concat "," (List.map string_of_int nodes))
        pred
        (String.concat ","
           (List.map
              (function `Const i -> node i | `Var w -> "?" ^ w)
              args)))
    QCheck.Gen.(
      triple
        (list_size (int_range 0 20) (pair (int_range 0 7) (int_range 0 7)))
        (list_size (int_range 0 6) (int_range 0 7))
        goal_gen)

let test_planner_differential =
  QCheck.Test.make
    ~name:"planner: planned ≡ unplanned on random programs (1/2/4 domains)"
    ~count:60 arbitrary_case
    (fun (edges, nodes, (pred, args)) ->
      let goal =
        T.atom pred
          (List.map (function `Const i -> s (node i) | `Var w -> v w) args)
      in
      let reference = build_program edges nodes in
      let expect = canon (ok (Datalog.query reference goal)) in
      let planned d pool = canon (ok (P.query ?pool d goal)) in
      List.for_all
        (fun pool -> planned (build_program edges nodes) pool = expect)
        [ None; Some pool1; Some pool2; Some pool4 ])

(* Kb integration -------------------------------------------------------- *)

let small_kb () =
  let kb = Cml.Kb.create () in
  List.iter
    (fun n -> ignore (ok (Cml.Kb.declare kb n)))
    [ "Doc"; "Report"; "Paper"; "r1"; "p1" ];
  ignore (ok (Cml.Kb.add_isa kb ~sub:"Report" ~super:"Doc"));
  ignore (ok (Cml.Kb.add_isa kb ~sub:"Paper" ~super:"Doc"));
  ignore (ok (Cml.Kb.add_instanceof kb ~inst:"r1" ~cls:"Report"));
  ignore (ok (Cml.Kb.add_instanceof kb ~inst:"p1" ~cls:"Paper"));
  kb

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let test_kb_explain () =
  let kb = small_kb () in
  let report = ok (Cml.Kb.explain kb (T.atom "in" [ s "r1"; v "C" ])) in
  List.iter
    (fun needle ->
      check bool (Printf.sprintf "explain mentions %S" needle) true
        (contains report needle))
    [ "strategy: magic-sets"; "estimated vs actual"; "answers:"; "in@bf" ]

(* The planner statistics Kb keeps must equal a recount of the four
   external relations over the stored propositions.  They are built on
   their first read, so each case reads them before the history it
   checks: right after set-up, ahead of the decisions and the selective
   backtrack that retracts a decision's consequences; and mid-history,
   ahead of more edits and the retraction of one of them. *)
module Repo = Gkbms.Repository
module Scn = Gkbms.Scenario

let check_stats_match_base kb =
  let tuples = Hashtbl.create 4 in
  let add pred args =
    Hashtbl.replace tuples pred
      (args :: Option.value ~default:[] (Hashtbl.find_opt tuples pred))
  in
  Store.Base.iter (Cml.Kb.base kb) (fun (p : Prop.t) ->
      add "prop" [| p.id; p.source; p.label; p.dest |];
      if Symbol.equal p.label Cml.Axioms.instanceof then
        add "instanceof" [| p.source; p.dest |]
      else if Symbol.equal p.label Cml.Axioms.isa then add "isa" [| p.source; p.dest |]
      else if not (Prop.is_individual p || Cml.Axioms.is_reserved_label p.label) then
        add "attr" [| p.source; p.label; p.dest |]);
  let stats = Cml.Kb.planner_stats kb in
  List.iter
    (fun (pred, arity) ->
      let ts = Option.value ~default:[] (Hashtbl.find_opt tuples pred) in
      check bool (pred ^ " has tuples") true (ts <> []);
      check int (pred ^ " rows") (List.length ts)
        (Option.get (P.Stats.rows stats (sym pred)));
      for i = 0 to arity - 1 do
        check int
          (Printf.sprintf "%s distinct %d" pred i)
          (List.length (List.sort_uniq Symbol.compare (List.map (fun a -> a.(i)) ts)))
          (Option.get (P.Stats.distinct stats (sym pred) i))
      done)
    [ ("prop", 4); ("instanceof", 2); ("isa", 2); ("attr", 3) ]

let test_kb_stats_match_base () =
  let st = ok (Scn.setup ()) in
  let kb = Repo.kb st.Scn.repo in
  ignore (Cml.Kb.planner_stats kb);
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  ignore (ok (Scn.substitute_key st));
  ignore (ok (Scn.introduce_minutes st));
  let report = ok (Scn.resolve_conflict st) in
  check bool "the backtrack removed objects" true
    (report.Gkbms.Backtrack.removed_objects <> []);
  check_stats_match_base kb

let test_kb_stats_built_mid_history () =
  let st, _report = ok (Scn.run_all ()) in
  let repo = st.Scn.repo in
  let kb = Repo.kb repo in
  for i = 0 to 3 do
    ignore
      (ok
         (Repo.new_object repo ~name:(Printf.sprintf "StatsDoc%d" i)
            ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")))
  done;
  let sh = Gkbms.Shell.session repo in
  let edit i =
    ignore
      (Gkbms.Shell.eval sh
         (Printf.sprintf "run DecManualEdit Editor object=StatsDoc%d text=e%d"
            (i mod 4) i))
  in
  for i = 0 to 7 do
    edit i
  done;
  ignore (Cml.Kb.planner_stats kb);
  let before = List.length (Repo.decision_log repo) in
  for i = 8 to 15 do
    edit i
  done;
  check int "edits committed" (before + 8) (List.length (Repo.decision_log repo));
  let last = List.hd (List.rev (Repo.decision_log repo)) in
  let report =
    ok (Gkbms.Backtrack.retract repo last ~rationale:"undo the last edit" ())
  in
  check bool "the edit's version removed" true
    (report.Gkbms.Backtrack.removed_objects <> []);
  check bool "the edit left the log" false
    (List.exists (Symbol.equal last) (Repo.decision_log repo));
  check_stats_match_base kb

(* [Kb.derive] runs the tabled prover, and [explain] evaluates the plan
   [Planner.query] builds over the same view with the KB's statistics:
   both must answer the same substitution set.  Inputs: the small KB
   above, and the §2.1 scenario after the key decision plus one manual
   edit per design object, queried with the browse mix's two forms on
   every design object and with two open goals. *)
let test_kb_derive_equal () =
  let same kb goal =
    let derived = canon (ok (Cml.Kb.derive kb goal)) in
    let planned =
      canon
        (ok (P.query ~stats:(Cml.Kb.planner_stats kb) (Cml.Kb.datalog kb) goal))
    in
    check (Alcotest.list Alcotest.string)
      (Format.asprintf "%a" T.pp_atom goal)
      derived planned;
    derived
  in
  let kb = small_kb () in
  List.iter
    (fun goal -> ignore (same kb goal))
    [
      T.atom "in" [ v "X"; s "Doc" ];
      T.atom "isa_tc" [ v "X"; v "Y" ];
      T.atom "instanceof" [ s "p1"; v "C" ];
    ];
  check bool "r1 is in Report and Doc" true
    (List.length (same kb (T.atom "in" [ s "r1"; v "C" ])) >= 2);
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  ignore (ok (Scn.substitute_key st));
  let repo = st.Scn.repo in
  let objects = Repo.all_design_objects repo in
  let sh = Gkbms.Shell.session repo in
  List.iter
    (fun o ->
      ignore
        (Gkbms.Shell.eval sh
           (Printf.sprintf "run DecManualEdit Editor object=%s text=e"
              (Symbol.name o))))
    objects;
  let kb = Repo.kb repo in
  let edited = ref 0 in
  List.iter
    (fun o ->
      let x = T.symbol o in
      check bool "classified" true
        (same kb (T.atom "in" [ x; v "C" ]) <> []);
      if same kb (T.atom "attr" [ v "D"; s "edited"; x ]) <> [] then incr edited)
    (Repo.all_design_objects repo);
  check bool "edits answer attr(?D,edited,X)" true (!edited >= List.length objects);
  check bool "DBPL objects" true
    (same kb (T.atom "in" [ v "X"; s "DBPL_Object" ]) <> []);
  check bool "isa closure" true (same kb (T.atom "isa_tc" [ v "X"; v "Y" ]) <> [])

(* The plan and its estimates for the scenario's classification query,
   pinned: the estimates read the statistics, so this fixes their
   observable values. *)
let explain_in_invitation_rel =
  {|query: in(InvitationRel, ?C)
strategy: magic-sets (2 adorned predicates, 2 magic rules, 7 clauses)
statistics:
  instanceof: 114 rows
  isa: 14 rows
  isa_tc: no statistics
plan:
  in@bf(?X, ?C) :- magic@in@bf(?X), instanceof(?X, ?C).  (est out 1.0)
    instanceof(?X, ?C)  (est 1.0 rows, indexed)
  in@bf(?X, ?C) :- magic@in@bf(?X), instanceof(?X, ?C0), isa_tc@bf(?C0, ?C).  (est out 101.8)
    instanceof(?X, ?C0)  (est 1.0 rows, indexed)
    isa_tc(?C0, ?C)  (est 100 rows, indexed)
  isa_tc@bf(?X, ?Y) :- magic@isa_tc@bf(?X), isa(?X, ?Y).  (est out 1)
    isa(?X, ?Y)  (est 1 rows, indexed)
  isa_tc@bf(?X, ?Y) :- magic@isa_tc@bf(?X), isa(?X, ?Z), isa_tc@bf(?Z, ?Y).  (est out 100)
    isa(?X, ?Z)  (est 1 rows, indexed)
    isa_tc(?Z, ?Y)  (est 100 rows, indexed)
estimated vs actual:
  in@bf[bf]: est 102.8, actual 2
  isa_tc@bf[bf]: est 101, actual 1
answers: 2
|}

let test_kb_explain_pinned () =
  let st, _report = ok (Scn.run_all ()) in
  check Alcotest.string "explain in(InvitationRel, ?C)" explain_in_invitation_rel
    (ok (Cml.Kb.explain (Repo.kb st.Scn.repo) (T.atom "in" [ s "InvitationRel"; v "C" ])))

let test_metrics () =
  let counter name =
    match Obs.Registry.find Obs.Registry.default name with
    | Some { Obs.Registry.value = Obs.Registry.Counter_v n; _ } -> n
    | _ -> 0
  in
  let before = counter "gkbms_planner_plans_total" in
  let d = segmented ~segments:2 ~len:2 in
  ignore (ok (P.query d (T.atom "path" [ s "m0_0"; v "Y" ])));
  check bool "plans_total counted" true
    (counter "gkbms_planner_plans_total" > before)

let suite =
  [
    ("stats: exact distinct under add/remove", `Quick, test_stats_exact);
    ("stats: pred_rows gauges exported", `Quick, test_stats_gauges);
    ("stats: attach_base tracks the change feed", `Quick, test_stats_attach);
    QCheck_alcotest.to_alcotest prop_stats_exact;
    ("cost: selective literal first, filters when bound", `Quick, test_cost_order);
    ("magic: bound query evaluates only the cone", `Quick, test_magic_cone);
    ("magic: all-free query (nullary magic seeds)", `Quick, test_magic_all_free);
    ("planner: EDB shortcut skips materialization", `Quick, test_edb_shortcut);
    ("planner: nonmonotone cone falls back, answers equal", `Quick,
     test_nonmonotone_fallback);
    QCheck_alcotest.to_alcotest test_planner_differential;
    ("kb: derive ≡ the planned query", `Quick, test_kb_derive_equal);
    ("kb: explain renders plan and cardinalities", `Quick, test_kb_explain);
    ("kb: stats equal a recount after backtracking", `Quick, test_kb_stats_match_base);
    ("kb: stats built mid-history equal a recount", `Quick, test_kb_stats_built_mid_history);
    ("kb: explain output pinned", `Quick, test_kb_explain_pinned);
    ("planner: obs counters move", `Quick, test_metrics);
  ]
