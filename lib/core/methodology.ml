open Kernel
module Repo = Repository
module Kb = Cml.Kb

type rule =
  | Precedence of { later : string; earlier : string }
  | Discharged_inputs of string
  | Max_open_obligations of int
  | Rationale_required of string

type t = { methodology_name : string; rules : rule list }

let daida_kernel =
  {
    methodology_name = "DAIDA-kernel";
    rules =
      [
        Precedence
          { later = Metamodel.dec_key_subst; earlier = Metamodel.dec_normalize };
        Precedence
          { later = Metamodel.dec_normalize; earlier = Metamodel.dec_mapping };
        Rationale_required Metamodel.dec_manual_edit;
        Rationale_required Metamodel.dec_key_subst;
      ]
      @ [ Discharged_inputs Metamodel.dec_key_subst ];
  }

type violation = { subject : Prop.id; rule_text : string }

let pp_violation ppf v =
  Format.fprintf ppf "%s: %s" (Symbol.name v.subject) v.rule_text

let is_class repo dec dc =
  match Decision.decision_class_of repo dec with
  | Some actual ->
    actual = dc
    || List.exists
         (fun s -> Symbol.name s = dc)
         (Kb.isa_closure (Repo.kb repo) (Symbol.intern actual))
  | None -> false

let producers_upstream repo obj =
  let seen = ref Symbol.Set.empty in
  let decisions = ref [] in
  let rec from_object obj =
    match Decision.justifying_decision repo obj with
    | Some dec when not (Symbol.Set.mem dec !seen) ->
      seen := Symbol.Set.add dec !seen;
      decisions := dec :: !decisions;
      List.iter (fun (_, i) -> from_object i) (Decision.inputs_of repo dec)
    | Some _ | None -> ()
  in
  from_object obj;
  List.rev !decisions

let upstream_of_inputs repo inputs =
  List.sort_uniq Symbol.compare
    (List.concat_map (fun (_, i) -> producers_upstream repo i) inputs)

let check_rule_for repo rule ~decision_class ~inputs ~subject
    ~rationale ~open_obligation_total =
  match rule with
  | Precedence { later; earlier } ->
    if
      (* does the class under scrutiny fall under [later]? *)
      decision_class = later
      || List.exists
           (fun s -> Symbol.name s = later)
           (Kb.isa_closure (Repo.kb repo) (Symbol.intern decision_class))
    then
      let upstream = upstream_of_inputs repo inputs in
      if List.exists (fun d -> is_class repo d earlier) upstream then []
      else
        [ { subject;
            rule_text =
              Printf.sprintf "%s requires an upstream %s decision"
                decision_class earlier } ]
    else []
  | Discharged_inputs dc ->
    if decision_class = dc then
      List.filter_map
        (fun (_, input) ->
          match Decision.justifying_decision repo input with
          | Some producer -> (
            match Decision.open_obligations repo producer with
            | [] -> None
            | obs ->
              Some
                { subject;
                  rule_text =
                    Printf.sprintf
                      "input %s produced by %s, whose obligations are open: %s"
                      (Symbol.name input) (Symbol.name producer)
                      (String.concat ", " obs) })
          | None -> None)
        inputs
    else []
  | Max_open_obligations n ->
    let total = Lazy.force open_obligation_total in
    if total > n then
      [ { subject;
          rule_text =
            Printf.sprintf "history carries %d open obligations (max %d)" total n } ]
    else []
  | Rationale_required dc ->
    if decision_class = dc && rationale = None then
      [ { subject;
          rule_text = Printf.sprintf "%s decisions must record a rationale" dc } ]
    else []

(* A fold over the whole decision log, so an audit computes it at most
   once, and only for a [Max_open_obligations] rule. *)
let total_open_obligations repo =
  lazy
    (List.fold_left
       (fun acc dec -> acc + List.length (Decision.open_obligations repo dec))
       0 (Repo.decision_log repo))

let check_one repo t ~open_obligation_total dec =
  match Decision.decision_class_of repo dec with
  | None -> []
  | Some decision_class ->
    let inputs = Decision.inputs_of repo dec in
    let rationale = Decision.rationale_of repo dec in
    List.concat_map
      (fun rule ->
        check_rule_for repo rule ~decision_class ~inputs ~subject:dec
          ~rationale ~open_obligation_total)
      t.rules

let check_decision repo t dec =
  check_one repo t ~open_obligation_total:(total_open_obligations repo) dec

let check_history repo t =
  let open_obligation_total = total_open_obligations repo in
  List.concat_map (check_one repo t ~open_obligation_total) (Repo.decision_log repo)

let gate repo t ~decision_class ~inputs =
  let open_obligation_total = total_open_obligations repo in
  let violations =
    List.concat_map
      (fun rule ->
        check_rule_for repo rule ~decision_class ~inputs
          ~subject:(Symbol.intern decision_class)
          ~rationale:(Some "(to be recorded)") ~open_obligation_total)
      t.rules
  in
  match violations with
  | [] -> Ok ()
  | vs ->
    Error
      (Format.asprintf "methodology %s forbids this decision:@ %a"
         t.methodology_name
         (Format.pp_print_list pp_violation)
         vs)
