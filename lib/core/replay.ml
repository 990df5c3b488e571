open Kernel
module Repo = Repository
module Kb = Cml.Kb

type applicability =
  | Applicable
  | Inputs_missing of string list
  | Inputs_reclassified of string list
  | Tool_missing of string

let pp_applicability ppf = function
  | Applicable -> Format.pp_print_string ppf "applicable"
  | Inputs_missing is ->
    Format.fprintf ppf "inputs missing: %s" (String.concat ", " is)
  | Inputs_reclassified is ->
    Format.fprintf ppf "inputs no longer match the FROM signature: %s"
      (String.concat ", " is)
  | Tool_missing t -> Format.fprintf ppf "tool %s not registered" t

let check repo dec =
  let kb = Repo.kb repo in
  let inputs = Decision.inputs_of repo dec in
  let missing =
    List.filter_map
      (fun (_, i) ->
        if Kb.find kb i = None then Some (Symbol.name i) else None)
      inputs
  in
  if missing <> [] then Inputs_missing missing
  else
    match Decision.tool_of repo dec with
    | None -> Tool_missing "(unrecorded)"
    | Some tool_name -> (
      match Repo.find_tool repo tool_name with
      | None -> Tool_missing tool_name
      | Some _ -> (
        match Decision.decision_class_of repo dec with
        | None -> Inputs_reclassified [ "(decision class lost)" ]
        | Some dc ->
          (* re-run the FROM signature test *)
          let bad =
            List.filter_map
              (fun (role, obj) ->
                let entries = Decision.applicable repo obj in
                if
                  List.exists
                    (fun (e : Decision.menu_entry) ->
                      e.decision_class = dc
                      || e.role = role && e.decision_class = dc)
                    entries
                  || List.exists
                       (fun (e : Decision.menu_entry) -> e.decision_class = dc)
                       entries
                then None
                else Some (Symbol.name obj))
              (Decision.inputs_of repo dec)
          in
          if bad = [] then Applicable else Inputs_reclassified bad))

let replay_one repo dec =
  match check repo dec with
  | Applicable -> (
    match
      ( Decision.decision_class_of repo dec,
        Decision.tool_of repo dec )
    with
    | Some decision_class, Some tool ->
      Decision.execute repo ~decision_class ~tool
        ~inputs:(Decision.inputs_of repo dec)
        ~params:(Decision.params_of repo dec)
        ?rationale:
          (match Decision.rationale_of repo dec with
          | Some r -> Some ("replay: " ^ r)
          | None -> Some ("replay of " ^ Symbol.name dec))
        ()
    | _ -> Error "decision record incomplete")
  | not_applicable ->
    Error (Format.asprintf "not re-applicable: %a" pp_applicability not_applicable)

let replay_from repo dec =
  if not (Repo.is_logged repo dec) then
    Error (Printf.sprintf "%s is not an executed decision" (Symbol.name dec))
  else begin
    let decisions, _objects = Depgraph.consequences repo dec in
    (* causal order: the order they appear in the log *)
    let position d = Option.value (Repo.position repo d) ~default:(-1) in
    let ordered =
      List.sort (fun a b -> compare (position a) (position b)) decisions
    in
    let rec run acc = function
      | [] -> Ok (List.rev acc)
      | d :: rest -> (
        let result = replay_one repo d in
        let acc = (d, result) :: acc in
        match result with
        | Ok _ -> run acc rest
        | Error _ -> Ok (List.rev acc))
    in
    run [] ordered
  end
