open Kernel

type node = Symbol.t
type edge = { src : node; label : Symbol.t; dst : node }

type t = {
  succ : (Symbol.t * node) list ref Symbol.Tbl.t;
  pred : (Symbol.t * node) list ref Symbol.Tbl.t;
}

let create () = { succ = Symbol.Tbl.create 128; pred = Symbol.Tbl.create 128 }

let copy t =
  let dup tbl =
    let fresh = Symbol.Tbl.create (Symbol.Tbl.length tbl) in
    Symbol.Tbl.iter (fun k cell -> Symbol.Tbl.add fresh k (ref !cell)) tbl;
    fresh
  in
  { succ = dup t.succ; pred = dup t.pred }

let adj tbl n =
  match Symbol.Tbl.find_opt tbl n with Some cell -> !cell | None -> []

let ensure tbl n =
  if not (Symbol.Tbl.mem tbl n) then Symbol.Tbl.add tbl n (ref [])

let add_node t n =
  ensure t.succ n;
  ensure t.pred n

let mem_node t n = Symbol.Tbl.mem t.succ n

let mem_edge t src label dst =
  List.exists
    (fun (l, d) -> Symbol.equal l label && Symbol.equal d dst)
    (adj t.succ src)

let add_edge t src label dst =
  add_node t src;
  add_node t dst;
  if not (mem_edge t src label dst) then begin
    let s = Symbol.Tbl.find t.succ src and p = Symbol.Tbl.find t.pred dst in
    s := (label, dst) :: !s;
    p := (label, src) :: !p
  end

let remove_edge t src label dst =
  let strip cell other =
    cell :=
      List.filter
        (fun (l, n) -> not (Symbol.equal l label && Symbol.equal n other))
        !cell
  in
  (match Symbol.Tbl.find_opt t.succ src with
  | Some cell -> strip cell dst
  | None -> ());
  match Symbol.Tbl.find_opt t.pred dst with
  | Some cell -> strip cell src
  | None -> ()

let remove_node t n =
  List.iter (fun (l, d) -> remove_edge t n l d) (adj t.succ n);
  List.iter (fun (l, s) -> remove_edge t s l n) (adj t.pred n);
  Symbol.Tbl.remove t.succ n;
  Symbol.Tbl.remove t.pred n

let nodes t = Symbol.Tbl.fold (fun n _ acc -> n :: acc) t.succ []

let edges t =
  Symbol.Tbl.fold
    (fun src cell acc ->
      List.fold_left (fun acc (label, dst) -> { src; label; dst } :: acc) acc !cell)
    t.succ []

let succ t n = adj t.succ n
let pred t n = adj t.pred n

let succ_by t n label =
  List.filter_map
    (fun (l, d) -> if Symbol.equal l label then Some d else None)
    (succ t n)

let pred_by t n label =
  List.filter_map
    (fun (l, s) -> if Symbol.equal l label then Some s else None)
    (pred t n)

let out_degree t n = List.length (succ t n)
let in_degree t n = List.length (pred t n)
let nb_nodes t = Symbol.Tbl.length t.succ
let nb_edges t = Symbol.Tbl.fold (fun _ cell acc -> acc + List.length !cell) t.succ 0

let topo_sort t =
  (* Kahn's algorithm; on failure report the nodes still carrying edges. *)
  let indeg = Symbol.Tbl.create (nb_nodes t) in
  List.iter (fun n -> Symbol.Tbl.replace indeg n (in_degree t n)) (nodes t);
  let queue = Queue.create () in
  Symbol.Tbl.iter (fun n d -> if d = 0 then Queue.add n queue) indeg;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    order := n :: !order;
    incr emitted;
    List.iter
      (fun (_, d) ->
        let k = Symbol.Tbl.find indeg d - 1 in
        Symbol.Tbl.replace indeg d k;
        if k = 0 then Queue.add d queue)
      (succ t n)
  done;
  if !emitted = nb_nodes t then Ok (List.rev !order)
  else begin
    let cyclic = ref [] in
    Symbol.Tbl.iter
      (fun n d -> if d > 0 then cyclic := n :: !cyclic)
      indeg;
    Error !cyclic
  end

let has_cycle t = match topo_sort t with Ok _ -> false | Error _ -> true

let closure next ?labels t start =
  let keep l =
    match labels with
    | None -> true
    | Some ls -> List.exists (Symbol.equal l) ls
  in
  let seen = ref Symbol.Set.empty in
  let rec visit n =
    List.iter
      (fun (l, m) ->
        if keep l && not (Symbol.Set.mem m !seen) then begin
          seen := Symbol.Set.add m !seen;
          visit m
        end)
      (next t n)
  in
  visit start;
  !seen

let reachable ?labels t n = closure succ ?labels t n
let reachable_rev ?labels t n = closure pred ?labels t n
let path_exists t a b = Symbol.Set.mem b (reachable t a)

let subgraph t keep =
  let g = create () in
  List.iter (fun n -> if keep n then add_node g n) (nodes t);
  List.iter
    (fun { src; label; dst } ->
      if keep src && keep dst then add_edge g src label dst)
    (edges t);
  g

let dot_escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let to_dot ?(name = "gkb") ?(node_attrs = fun _ -> []) ?(edge_attrs = fun _ -> []) t =
  let buf = Buffer.create 1024 in
  let attrs = function
    | [] -> ""
    | l ->
      let body =
        String.concat ", "
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (dot_escape v)) l)
      in
      Printf.sprintf " [%s]" body
  in
  Buffer.add_string buf (Printf.sprintf "digraph %s {\n" name);
  List.iter
    (fun n ->
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\"%s;\n" (dot_escape (Symbol.name n))
           (attrs (node_attrs n))))
    (List.sort Symbol.compare (nodes t));
  List.iter
    (fun e ->
      let extra = edge_attrs e in
      let all = ("label", Symbol.name e.label) :: extra in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\"%s;\n"
           (dot_escape (Symbol.name e.src))
           (dot_escape (Symbol.name e.dst))
           (attrs all)))
    (List.sort compare (edges t));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let pp_tree ?(max_depth = 6) ?(max_width = 8) ?(show_label = true) ~succ ppf
    root =
  let visited = ref Symbol.Set.empty in
  let rec go indent depth via n =
    let prefix = String.make (2 * indent) ' ' in
    let label_part =
      match via with
      | Some l when show_label -> Printf.sprintf "--%s--> " (Symbol.name l)
      | Some _ | None -> ""
    in
    if Symbol.Set.mem n !visited then
      Format.fprintf ppf "%s%s%s (^)@." prefix label_part (Symbol.name n)
    else begin
      visited := Symbol.Set.add n !visited;
      Format.fprintf ppf "%s%s%s@." prefix label_part (Symbol.name n);
      if depth < max_depth then begin
        let kids = List.sort compare (succ n) in
        let shown, hidden =
          if List.length kids > max_width then
            ( List.filteri (fun i _ -> i < max_width) kids,
              List.length kids - max_width )
          else (kids, 0)
        in
        List.iter (fun (l, m) -> go (indent + 1) (depth + 1) (Some l) m) shown;
        if hidden > 0 then
          Format.fprintf ppf "%s  ... (%d more)@." prefix hidden
      end
    end
  in
  go 0 0 None root

let pp_ascii_dag ?max_depth ?max_width ?show_label t ppf root =
  pp_tree ?max_depth ?max_width ?show_label ~succ:(succ t) ppf root
