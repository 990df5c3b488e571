open Kernel
module Repo = Repository
module Kb = Cml.Kb

type direction =
  | Status of string
  | Process_upstream of Prop.id
  | Process_downstream of Prop.id list
  | Temporal of Prop.id list

type focus_view = {
  focus : Prop.id;
  classes : string list;
  menu : Decision.menu_entry list;
  directions : direction list;
  source : string option;
}

let level_of repo obj =
  let kb = Repo.kb repo in
  List.find_map
    (fun (level_name, level_cls) ->
      if Kb.is_instance kb ~inst:obj ~cls:(Symbol.intern level_cls) then
        Some level_name
      else None)
    Metamodel.levels

(* in log order, as a walk of the log would find them *)
let consuming_decisions repo obj =
  let position d = Option.value (Repo.position repo d) ~default:(-1) in
  List.sort_uniq
    (fun a b -> compare (position a) (position b))
    (Decision.consumers repo obj)

let focus repo obj =
  let kb = Repo.kb repo in
  let classes = List.map Symbol.name (Kb.all_classes_of kb obj) in
  let menu = Decision.applicable repo obj in
  let directions =
    (match level_of repo obj with Some l -> [ Status l ] | None -> [])
    @ (match Decision.justifying_decision repo obj with
      | Some dec -> [ Process_upstream dec ]
      | None -> [])
    @ (match consuming_decisions repo obj with
      | [] -> []
      | decs -> [ Process_downstream decs ])
    @
    let chain = Version.version_chain repo obj in
    if List.length chain > 1 then [ Temporal chain ] else []
  in
  { focus = obj; classes; menu; directions; source = Repo.source_text repo obj }

let pp_focus ppf view =
  Format.fprintf ppf "@[<v>focus: %s@," (Symbol.name view.focus);
  Format.fprintf ppf "classes: %s@," (String.concat ", " view.classes);
  if view.menu <> [] then begin
    Format.fprintf ppf "applicable decisions:@,";
    List.iter
      (fun (e : Decision.menu_entry) ->
        Format.fprintf ppf "  %s (as %s) via %s@," e.decision_class e.role
          (match e.tools with
          | [] -> "(no tool registered)"
          | ts -> String.concat ", " ts))
      view.menu
  end;
  List.iter
    (fun d ->
      match d with
      | Status level -> Format.fprintf ppf "level: %s@," level
      | Process_upstream dec ->
        Format.fprintf ppf "justified by: %s@," (Symbol.name dec)
      | Process_downstream decs ->
        Format.fprintf ppf "consumed by: %s@,"
          (String.concat ", " (List.map Symbol.name decs))
      | Temporal chain ->
        Format.fprintf ppf "versions: %s@,"
          (String.concat " -> " (List.map Symbol.name chain)))
    view.directions;
  (match view.source with
  | Some src -> Format.fprintf ppf "source:@,%s@," src
  | None -> ());
  Format.fprintf ppf "@]"

(* An entity class is mapped when a logged mapping decision (of class
   TDL_MappingDec or a specialization) takes it as input, so each
   candidate asks its own consumers instead of the whole log. *)
let unmapped_objects repo =
  let kb = Repo.kb repo in
  let mapping = Symbol.intern Metamodel.dec_mapping in
  let mapping_decision dec =
    match Kb.classes_of kb dec with
    | dc :: _ ->
      Symbol.equal dc mapping || List.exists (Symbol.equal mapping) (Kb.isa_closure kb dc)
    | [] -> false
  in
  let entity_class = Symbol.intern Metamodel.tdl_entity_class in
  List.filter
    (fun obj ->
      (* the kernel classes themselves are not design documents *)
      (not (Symbol.equal obj entity_class))
      && not (List.exists mapping_decision (Decision.consumers repo obj)))
    (Repo.objects_of_class repo Metamodel.tdl_entity_class)

let browse_status repo ~level =
  List.sort Symbol.compare (Repo.objects_of_class repo level)

let browse_process repo =
  (* causal order from the dependency graph; ties broken by the log *)
  let g = Depgraph.build repo in
  let log = Repo.decision_log repo in
  let order =
    match Kbgraph.Digraph.topo_sort g with
    | Ok order -> order
    | Error _ -> log
  in
  let decisions = List.filter (Repo.is_logged repo) order in
  List.map
    (fun dec ->
      ( dec,
        match Decision.decision_class_of repo dec with
        | Some dc -> dc
        | None -> "?" ))
    decisions

let browse_temporal repo ~since =
  let kb = Repo.kb repo in
  List.filter
    (fun obj ->
      match Kb.find kb obj with
      | Some p -> p.Prop.belief >= since
      | None -> false)
    (Repo.all_design_objects repo)
  |> List.sort Symbol.compare

let history_of repo obj =
  let kb = Repo.kb repo in
  List.map
    (fun version ->
      let belief =
        match Kb.find kb version with Some p -> p.Prop.belief | None -> 0
      in
      (version, Decision.justifying_decision repo version, belief))
    (Version.version_chain repo obj)
