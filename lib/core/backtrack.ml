open Kernel
module Repo = Repository
module Kb = Cml.Kb
module Base = Store.Base
module J = Tms.Jtms

type report = {
  retracted_decisions : string list;
  removed_objects : string list;
  restored_objects : string list;
}

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>retracted decisions: %s@,removed objects: %s@,restored versions: %s@]"
    (String.concat ", " r.retracted_decisions)
    (String.concat ", " r.removed_objects)
    (String.concat ", " r.restored_objects)

(* remove a proposition together with the propositions hanging off it
   (classification links of attribute propositions, etc.) *)
let rec remove_prop_rec base (p : Prop.t) =
  let sub =
    List.filter
      (fun (q : Prop.t) -> not (Symbol.equal q.id p.id))
      (Base.by_source base p.id @ Base.by_dest base p.id)
  in
  List.iter (remove_prop_rec base) sub;
  ignore (Base.remove base p.id)

let remove_object_cascade repo id =
  let base = Kb.base (Repo.kb repo) in
  let rec strip () =
    let incident =
      List.filter
        (fun (p : Prop.t) -> not (Prop.is_individual p))
        (Base.by_source base id @ Base.by_dest base id)
    in
    match incident with
    | [] -> ()
    | ps ->
      List.iter (remove_prop_rec base) ps;
      strip ()
  in
  strip ();
  ignore (Base.remove base id)

(* text objects attached to an owner are named "<owner>!<suffix>" *)
let owned_texts repo id =
  let prefix = Symbol.name id ^ "!" in
  List.filter
    (fun dest ->
      let n = Symbol.name dest in
      String.length n > String.length prefix
      && String.sub n 0 (String.length prefix) = prefix)
    (List.map
       (fun (p : Prop.t) -> p.dest)
       (Kb.attributes (Repo.kb repo) id))

let retract repo dec ?(rationale = "") () =
  if not (Repo.is_logged repo dec) then
    Error
      (Printf.sprintf "%s is not an executed decision" (Symbol.name dec))
  else begin
    let base = Kb.base (Repo.kb repo) in
    let decisions, objects = Depgraph.consequences repo dec in
    (* reverse chronological removal: later decisions first *)
    let position d = Option.value (Repo.position repo d) ~default:(-1) in
    let decisions_desc =
      List.sort (fun a b -> compare (position b) (position a)) decisions
    in
    (* surviving predecessors of the removed objects *)
    let removed_set =
      List.fold_left
        (fun acc o -> Symbol.Set.add o acc)
        Symbol.Set.empty objects
    in
    let restored =
      List.concat_map
        (fun o ->
          List.filter
            (fun prev -> not (Symbol.Set.mem prev removed_set))
            (Kb.attribute_values (Repo.kb repo) o Metamodel.replaces_cat))
        objects
      |> List.sort_uniq Symbol.compare
    in
    (* a surviving input of the retracted decision anchors the
       documentation of the retraction *)
    let anchor =
      List.find_map
        (fun (_, input) ->
          if Symbol.Set.mem input removed_set then None else Some input)
        (Decision.inputs_of repo dec)
    in
    Repo.emit_event repo (Repo.Decision_begun Metamodel.dec_retract);
    Base.begin_tx base;
    let texts =
      List.concat_map (owned_texts repo) (decisions @ objects)
    in
    let all_justs =
      List.concat_map (fun d -> Repo.justifications_of repo d) decisions_desc
    in
    J.retract_batch (Repo.jtms repo) all_justs;
    List.iter
      (fun d ->
        Repo.forget_justifications repo d;
        Repo.unlog_decision repo d)
      decisions_desc;
    List.iter (remove_object_cascade repo) (decisions_desc @ objects @ texts);
    (* document the retraction itself as a RetractDec instance *)
    let doc_result =
      let ( let* ) = Result.bind in
      let dec_name = Repo.fresh_decision_id repo in
      let kb = Repo.kb repo in
      let* _ = Kb.declare kb dec_name in
      let* _ = Kb.add_instanceof kb ~inst:dec_name ~cls:Metamodel.dec_retract in
      let* () =
        match anchor with
        | Some input ->
          let* _ =
            Kb.add_attribute kb ~category:"alternative" ~source:dec_name
              ~label:"alternative" ~dest:(Symbol.name input)
          in
          Ok ()
        | None -> Ok ()
      in
      let text =
        Printf.sprintf "retracted %s; %s"
          (String.concat ", " (List.map Symbol.name decisions))
          (if rationale = "" then "no rationale recorded" else rationale)
      in
      let text_name = dec_name ^ "!rationale" in
      let* _ = Kb.declare kb text_name in
      let* _ = Kb.add_instanceof kb ~inst:text_name ~cls:Metamodel.text_object in
      Repo.set_artifact repo (Symbol.intern text_name) (Repo.Text text);
      let* _ =
        Kb.add_attribute kb ~source:dec_name ~label:"rationale" ~dest:text_name
      in
      Repo.log_decision repo (Symbol.intern dec_name);
      Ok (Symbol.intern dec_name)
    in
    match doc_result with
    | Error e ->
      (match Base.rollback base with Ok () -> () | Error _ -> ());
      Repo.emit_event repo (Repo.Decision_aborted e);
      Error e
    | Ok dec_id -> (
      match Base.commit base with
      | Error e ->
        Repo.emit_event repo (Repo.Decision_aborted e);
        Error e
      | Ok () ->
        Decision.install_justifications repo dec_id;
        Repo.emit_event repo (Repo.Decision_committed dec_id);
        Ok
          {
            retracted_decisions = List.map Symbol.name decisions;
            removed_objects = List.map Symbol.name objects;
            restored_objects = List.map Symbol.name restored;
          })
  end

let unsupported_objects repo =
  let j = Repo.jtms repo in
  List.filter
    (fun obj ->
      match J.find_sym j obj with
      | Some node -> J.justifications j node <> [] && J.is_out j node
      | None -> false)
    (Repo.all_design_objects repo)

let suggest_culprit repo =
  let j = Repo.jtms repo in
  let lost_support dec =
    match J.find_sym j dec with
    | Some node ->
      J.is_out j node
      && List.for_all
           (fun (_, input) ->
             match J.find_sym j input with
             | Some n -> J.is_in j n
             | None -> true)
           (Decision.inputs_of repo dec)
    | None -> false
  in
  List.find_opt lost_support (List.rev (Repo.decision_log repo))
