open Kernel
module G = Kbgraph.Digraph
module Repo = Repository
module Kb = Cml.Kb

let from_label = Symbol.intern "from"
let to_label = Symbol.intern "to"
let by_label = Symbol.intern "by"
let replaces_label = Symbol.intern "replaces"

let build repo =
  let g = G.create () in
  let kb = Repo.kb repo in
  List.iter
    (fun dec ->
      G.add_node g dec;
      List.iter
        (fun (_, input) -> G.add_edge g input from_label dec)
        (Decision.inputs_of repo dec);
      List.iter
        (fun (_, output) -> G.add_edge g dec to_label output)
        (Decision.outputs_of repo dec);
      match Decision.tool_of repo dec with
      | Some tool -> G.add_edge g dec by_label (Symbol.intern tool)
      | None -> ())
    (Repo.decision_log repo);
  (* version edges *)
  List.iter
    (fun obj ->
      List.iter
        (fun old -> G.add_edge g obj replaces_label old)
        (Kb.attribute_values kb obj Metamodel.replaces_cat))
    (Repo.all_design_objects repo);
  g

(* The consequence closure follows KB links directly rather than
   materializing the whole dependency graph, so its cost scales with the
   closure, not with the length of the history. *)
let consequences repo dec =
  let kb = Repo.kb repo in
  let base = Cml.Kb.base kb in
  let decisions = ref [ dec ] in
  let objects = ref [] in
  let seen = ref (Symbol.Set.singleton dec) in
  let rec follow_decision d =
    List.iter
      (fun (_, output) ->
        if not (Symbol.Set.mem output !seen) then begin
          seen := Symbol.Set.add output !seen;
          objects := output :: !objects;
          follow_object output
        end)
      (Decision.outputs_of repo d)
  and follow_object obj =
    (* decisions consuming the object: incoming attribute links whose
       source is a logged decision with an input role pointing here *)
    List.iter
      (fun (p : Prop.t) ->
        let consumer = p.source in
        if Repo.is_logged repo consumer && not (Symbol.Set.mem consumer !seen)
        then
          let is_input =
            List.exists
              (fun (_, i) -> Symbol.equal i obj)
              (Decision.inputs_of repo consumer)
          in
          if is_input then begin
            seen := Symbol.Set.add consumer !seen;
            decisions := consumer :: !decisions;
            follow_decision consumer
          end)
      (Store.Base.by_dest base obj)
  in
  follow_decision dec;
  (List.rev !decisions, List.rev !objects)

(* The successors [build] gives [n], read off the KB around [n]: the
   decisions consuming it, its outputs and tool if it is a logged
   decision, its predecessors if it is a design object. *)
let succ repo n =
  let consumed = List.map (fun d -> (from_label, d)) (Decision.consumers repo n) in
  let produced =
    if not (Repo.is_logged repo n) then []
    else
      List.map (fun (_, o) -> (to_label, o)) (Decision.outputs_of repo n)
      @
      match Decision.tool_of repo n with
      | Some tool -> [ (by_label, Symbol.intern tool) ]
      | None -> []
  in
  let replaced =
    match Kb.attribute_values (Repo.kb repo) n Metamodel.replaces_cat with
    | [] -> []
    | olds ->
      if Repo.is_design_object repo n then
        List.map (fun o -> (replaces_label, o)) olds
      else []
  in
  List.sort_uniq compare (consumed @ produced @ replaced)

(* Is [n] the destination of an edge of [build]?  The [from] edges end
   at logged decisions, which are nodes anyway. *)
let has_pred repo n =
  let replaces = Symbol.intern Metamodel.replaces_cat in
  Store.Base.fold_dest (Kb.base (Repo.kb repo)) n
    (fun (p : Prop.t) found ->
      found
      || Decision.link_kind repo p = `Output
      || Repo.is_logged repo p.source
         && Decision.tool_of repo p.source = Some (Symbol.name n)
      || Symbol.equal p.label replaces
         && (not (Prop.is_individual p))
         && Repo.is_design_object repo p.source)
    false

let pp repo ppf focus =
  if Repo.is_logged repo focus || succ repo focus <> [] || has_pred repo focus
  then G.pp_tree ~max_depth:8 ~succ:(succ repo) ppf focus
  else Format.fprintf ppf "%s (not in the dependency graph)@." (Symbol.name focus)

let to_dot repo =
  let g = build repo in
  let decisions =
    List.fold_left
      (fun acc d -> Symbol.Set.add d acc)
      Symbol.Set.empty (Repo.decision_log repo)
  in
  let node_attrs n =
    if Symbol.Set.mem n decisions then [ ("shape", "box") ]
    else if Repo.find_tool repo (Symbol.name n) <> None then
      [ ("style", "dashed") ]
    else []
  in
  G.to_dot ~name:"dependencies" ~node_attrs g
