open Kernel
module G = Kbgraph.Digraph

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let sym = Symbol.intern
let names set = List.map Symbol.name (Symbol.Set.elements set)

open Helpers

let diamond () =
  (* a -from-> b, a -from-> c, b -to-> d, c -to-> d *)
  let g = G.create () in
  G.add_edge g (sym "a") (sym "from") (sym "b");
  G.add_edge g (sym "a") (sym "from") (sym "c");
  G.add_edge g (sym "b") (sym "to") (sym "d");
  G.add_edge g (sym "c") (sym "to") (sym "d");
  g

let test_basics () =
  let g = diamond () in
  check int "nodes" 4 (G.nb_nodes g);
  check int "edges" 4 (G.nb_edges g);
  check bool "mem_edge" true (G.mem_edge g (sym "a") (sym "from") (sym "b"));
  check bool "no reverse edge" false (G.mem_edge g (sym "b") (sym "from") (sym "a"));
  check int "out degree" 2 (G.out_degree g (sym "a"));
  check int "in degree" 2 (G.in_degree g (sym "d"))

let test_duplicate_edges_collapse () =
  let g = G.create () in
  G.add_edge g (sym "x") (sym "l") (sym "y");
  G.add_edge g (sym "x") (sym "l") (sym "y");
  check int "one edge" 1 (G.nb_edges g)

let test_succ_pred_by () =
  let g = diamond () in
  check Alcotest.(list string) "succ_by from"
    [ "b"; "c" ]
    (List.sort String.compare (List.map Symbol.name (G.succ_by g (sym "a") (sym "from"))));
  check Alcotest.(list string) "pred_by to"
    [ "b"; "c" ]
    (List.sort String.compare (List.map Symbol.name (G.pred_by g (sym "d") (sym "to"))));
  check Alcotest.(list string) "succ_by wrong label" []
    (List.map Symbol.name (G.succ_by g (sym "a") (sym "to")))

let test_remove_edge_and_node () =
  let g = diamond () in
  G.remove_edge g (sym "b") (sym "to") (sym "d");
  check bool "edge removed" false (G.mem_edge g (sym "b") (sym "to") (sym "d"));
  G.remove_node g (sym "c");
  check bool "node removed" false (G.mem_node g (sym "c"));
  check int "incident edges dropped" 1 (G.nb_edges g);
  check int "pred of d cleaned" 0 (G.in_degree g (sym "d"))

let test_topo_sort () =
  let g = diamond () in
  match G.topo_sort g with
  | Error _ -> Alcotest.fail "diamond is acyclic"
  | Ok order ->
    let pos n =
      let rec idx i = function
        | [] -> Alcotest.failf "%s missing from order" n
        | x :: rest -> if Symbol.name x = n then i else idx (i + 1) rest
      in
      idx 0 order
    in
    check bool "a before b" true (pos "a" < pos "b");
    check bool "b before d" true (pos "b" < pos "d");
    check bool "c before d" true (pos "c" < pos "d")

let test_cycle_detection () =
  let g = diamond () in
  check bool "acyclic" false (G.has_cycle g);
  G.add_edge g (sym "d") (sym "back") (sym "a");
  check bool "cyclic" true (G.has_cycle g);
  match G.topo_sort g with
  | Error cyclic -> check bool "cycle reported" true (cyclic <> [])
  | Ok _ -> Alcotest.fail "topo_sort on cyclic graph"

let test_reachability () =
  let g = diamond () in
  check Alcotest.(list string) "forward closure"
    [ "b"; "c"; "d" ]
    (List.sort String.compare (names (G.reachable g (sym "a"))));
  check Alcotest.(list string) "backward closure"
    [ "a"; "b"; "c" ]
    (List.sort String.compare (names (G.reachable_rev g (sym "d"))));
  check bool "path" true (G.path_exists g (sym "a") (sym "d"));
  check bool "no path" false (G.path_exists g (sym "d") (sym "a"))

let test_reachability_label_filter () =
  let g = diamond () in
  check Alcotest.(list string) "only from-edges"
    [ "b"; "c" ]
    (List.sort String.compare
       (names (G.reachable ~labels:[ sym "from" ] g (sym "a"))))

let test_subgraph () =
  let g = diamond () in
  let sub = G.subgraph g (fun n -> Symbol.name n <> "c") in
  check int "subgraph nodes" 3 (G.nb_nodes sub);
  check int "subgraph edges" 2 (G.nb_edges sub);
  check bool "original intact" true (G.mem_node g (sym "c"))

let test_copy_independent () =
  let g = diamond () in
  let g' = G.copy g in
  G.add_edge g' (sym "d") (sym "x") (sym "e");
  check bool "copy extended" true (G.mem_node g' (sym "e"));
  check bool "original untouched" false (G.mem_node g (sym "e"))

let test_dot_output () =
  let g = diamond () in
  let dot = G.to_dot ~name:"deps" g in
  check bool "digraph header" true
    (String.length dot > 0
    && String.sub dot 0 12 = "digraph deps");
  check bool "edge present" true
    (contains "\"a\" -> \"b\" [label=\"from\"]" dot)

let test_ascii_dag () =
  let g = diamond () in
  let out = Format.asprintf "%a" (G.pp_ascii_dag ~max_depth:3 g) (sym "a") in
  check bool "root shown" true (contains "a\n" out);
  check bool "edge labels shown" true (contains "--from--> b" out);
  check bool "shared node marked" true (contains "(^)" out)

let test_ascii_dag_depth_limit () =
  let g = G.create () in
  G.add_edge g (sym "r") (sym "l") (sym "m");
  G.add_edge g (sym "m") (sym "l") (sym "leaf");
  let out = Format.asprintf "%a" (G.pp_ascii_dag ~max_depth:1 g) (sym "r") in
  check bool "depth-1 node shown" true (contains "m" out);
  check bool "depth-2 node hidden" false (contains "leaf" out)

let prop_topo_respects_edges =
  QCheck.Test.make ~name:"topological order respects every edge" ~count:80
    QCheck.(list (pair (int_range 0 14) (int_range 0 14)))
    (fun pairs ->
      (* force acyclicity by always pointing low -> high *)
      let g = G.create () in
      List.iter
        (fun (a, b) ->
          if a <> b then
            let lo = min a b and hi = max a b in
            G.add_edge g
              (sym ("n" ^ string_of_int lo))
              (sym "e")
              (sym ("n" ^ string_of_int hi)))
        pairs;
      match G.topo_sort g with
      | Error _ -> false
      | Ok order ->
        let rank = Hashtbl.create 16 in
        List.iteri (fun i n -> Hashtbl.replace rank (Symbol.name n) i) order;
        List.for_all
          (fun (e : G.edge) ->
            Hashtbl.find rank (Symbol.name e.src)
            < Hashtbl.find rank (Symbol.name e.dst))
          (G.edges g))

let suite =
  [
    ("basics", `Quick, test_basics);
    ("duplicate edges collapse", `Quick, test_duplicate_edges_collapse);
    ("succ/pred by label", `Quick, test_succ_pred_by);
    ("remove edge and node", `Quick, test_remove_edge_and_node);
    ("topo sort", `Quick, test_topo_sort);
    ("cycle detection", `Quick, test_cycle_detection);
    ("reachability", `Quick, test_reachability);
    ("reachability with label filter", `Quick, test_reachability_label_filter);
    ("subgraph", `Quick, test_subgraph);
    ("copy independence", `Quick, test_copy_independent);
    ("dot output", `Quick, test_dot_output);
    ("ascii dag", `Quick, test_ascii_dag);
    ("ascii dag depth limit", `Quick, test_ascii_dag_depth_limit);
    QCheck_alcotest.to_alcotest prop_topo_respects_edges;
  ]
