open Kernel
module Repo = Repository
module J = Tms.Jtms

type why_step = {
  step_object : Prop.id;
  step_decision : Prop.id option;
  step_tool : string option;
  step_rationale : string option;
}

let why repo obj =
  let seen = ref Symbol.Set.empty in
  let rec go obj acc =
    if Symbol.Set.mem obj !seen then acc
    else begin
      seen := Symbol.Set.add obj !seen;
      match Decision.justifying_decision repo obj with
      | None ->
        { step_object = obj; step_decision = None; step_tool = None;
          step_rationale = None }
        :: acc
      | Some dec ->
        let step =
          {
            step_object = obj;
            step_decision = Some dec;
            step_tool = Decision.tool_of repo dec;
            step_rationale = Decision.rationale_of repo dec;
          }
        in
        List.fold_left
          (fun acc (_, input) -> go input acc)
          (step :: acc)
          (Decision.inputs_of repo dec)
    end
  in
  List.rev (go obj [])

let pp_why ppf steps =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun s ->
      match s.step_decision with
      | None ->
        Format.fprintf ppf "%s: premise (imported into the GKB)@,"
          (Symbol.name s.step_object)
      | Some dec ->
        Format.fprintf ppf "%s: created by %s%s%s@,"
          (Symbol.name s.step_object) (Symbol.name dec)
          (match s.step_tool with
          | Some t -> " using " ^ t
          | None -> "")
          (match s.step_rationale with
          | Some r -> " — " ^ r
          | None -> ""))
    steps;
  Format.fprintf ppf "@]"

let explain_decision repo dec =
  if not (Repo.is_logged repo dec) then
    Error (Printf.sprintf "%s is not an executed decision" (Symbol.name dec))
  else begin
    let buf = Buffer.create 256 in
    let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    pf "decision %s\n" (Symbol.name dec);
    (match Decision.decision_class_of repo dec with
    | Some dc -> pf "  class:     %s\n" dc
    | None -> ());
    (match Decision.tool_of repo dec with
    | Some t -> pf "  tool:      %s\n" t
    | None -> ());
    let show kind pairs =
      if pairs <> [] then
        pf "  %s:\n%s" kind
          (String.concat ""
             (List.map
                (fun (role, obj) ->
                  Printf.sprintf "    %s = %s\n" role (Symbol.name obj))
                pairs))
    in
    show "inputs" (Decision.inputs_of repo dec);
    show "outputs" (Decision.outputs_of repo dec);
    (match Decision.rationale_of repo dec with
    | Some r -> pf "  rationale: %s\n" r
    | None -> ());
    let open_obs = Decision.open_obligations repo dec in
    if open_obs <> [] then
      pf "  open obligations: %s\n" (String.concat ", " open_obs);
    (match J.find_sym (Repo.jtms repo) dec with
    | Some node ->
      pf "  belief:    %s\n"
        (if J.is_in (Repo.jtms repo) node then "IN" else "OUT");
      let support = J.why (Repo.jtms repo) node in
      if support <> [] then
        pf "  support:\n%s"
          (String.concat ""
             (List.map (fun r -> Printf.sprintf "    %s\n" r) support))
    | None -> ());
    Ok (Buffer.contents buf)
  end
