open Kernel
module Repo = Repository
module A = Tms.Atms
module J = Tms.Jtms

type t = {
  atms : A.t;
  repo : Repo.t;
  decision_names : string list;
}

let build repo =
  let atms = A.create () in
  let log = Repo.decision_log repo in
  let decision_names = List.map Symbol.name log in
  (* decisions are the assumptions *)
  List.iter (fun d -> ignore (A.assumption atms (Symbol.name d))) log;
  (* design objects: justified by their creating decision + its inputs *)
  let objects = Repo.all_design_objects repo in
  List.iter
    (fun obj ->
      let node = A.node atms (Symbol.name obj) in
      match Decision.justifying_decision repo obj with
      | Some dec when Repo.is_logged repo dec ->
        let dec_node = A.assumption atms (Symbol.name dec) in
        let input_nodes =
          List.map (fun (_, i) -> A.node atms (Symbol.name i))
            (Decision.inputs_of repo dec)
        in
        A.justify atms
          ~antecedents:(dec_node :: input_nodes)
          ~reason:(Printf.sprintf "%s by %s" (Symbol.name obj) (Symbol.name dec))
          node
      | Some _ | None ->
        (* imported or orphaned: exists unconditionally *)
        A.justify atms ~antecedents:[]
          ~reason:("premise " ^ Symbol.name obj)
          node)
    objects;
  (* conflicts: a decision that rests on an assumption (JTMS out-list)
     is inconsistent with any decision asserting that defeater *)
  let asserts_node dec fact_node =
    List.exists
      (fun j ->
        J.name (J.consequence j) = J.name fact_node
        && List.exists (fun n -> J.name n = Symbol.name dec) (J.inlist j))
      (Repo.justifications_of repo dec)
  in
  List.iter
    (fun dec ->
      List.iter
        (fun j ->
          List.iter
            (fun defeater ->
              List.iter
                (fun dec' ->
                  if
                    (not (Symbol.equal dec dec'))
                    && asserts_node dec' defeater
                  then begin
                    let conflict =
                      A.node atms
                        (Printf.sprintf "conflict!%s!%s" (Symbol.name dec)
                           (Symbol.name dec'))
                    in
                    A.justify atms
                      ~antecedents:
                        [ A.assumption atms (Symbol.name dec);
                          A.assumption atms (Symbol.name dec') ]
                      ~reason:"mutually exclusive assumptions" conflict;
                    A.contradiction atms conflict
                  end)
                log)
            (J.outlist j))
        (Repo.justifications_of repo dec))
    log;
  { atms; repo; decision_names }

let decisions t = t.decision_names

let label t obj =
  match A.find t.atms (Symbol.name obj) with
  | Some node -> A.label t.atms node
  | None -> []

let exists_under t obj decs =
  match A.find t.atms (Symbol.name obj) with
  | Some node -> A.holds_under t.atms node decs
  | None -> false

let consistent t decs = A.consistent t.atms decs
let nogoods t = A.nogoods t.atms

let configuration_under t decs =
  let is_text obj =
    Cml.Kb.is_instance (Repo.kb t.repo) ~inst:obj
      ~cls:(Symbol.intern Metamodel.text_object)
  in
  List.filter
    (fun obj -> (not (is_text obj)) && exists_under t obj decs)
    (Repo.all_design_objects t.repo)
  |> List.sort (fun a b -> String.compare (Symbol.name a) (Symbol.name b))

let alternatives t =
  (* maximal consistent subsets, by greedy expansion from every ordering
     seed; decision counts are small (design histories, not databases) *)
  let all = t.decision_names in
  let expand seed =
    List.fold_left
      (fun acc d ->
        if List.mem d acc then acc
        else if consistent t (d :: acc) then d :: acc
        else acc)
      seed all
    |> List.sort String.compare
  in
  let candidates =
    List.map (fun d -> expand [ d ]) all @ [ expand [] ]
  in
  let maximal =
    List.filter
      (fun c ->
        not
          (List.exists
             (fun c' ->
               c <> c' && List.for_all (fun d -> List.mem d c') c
               && List.length c < List.length c')
             candidates))
      candidates
  in
  List.sort_uniq compare maximal
