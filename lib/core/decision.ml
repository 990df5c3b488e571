open Kernel
module Kb = Cml.Kb
module Repo = Repository
module J = Tms.Jtms

type menu_entry = {
  decision_class : string;
  role : string;
  tools : string list;
}

let ( let* ) = Result.bind

(* The kind of a role attribute on a decision class: [`Input] for a
   FROM attribute, [`Output] for a TO attribute, [`Other] for any
   other. *)
let attribute_kind kb (p : Prop.t) =
  match Kb.category_of kb p.id with
  | None -> `Other
  | Some cat -> (
    match Kb.find kb cat with
    | Some cp when Symbol.equal cp.Prop.label (Symbol.intern Metamodel.from_cat)
      -> `Input
    | Some cp when Symbol.equal cp.Prop.label (Symbol.intern Metamodel.to_cat)
      -> `Output
    | Some _ | None -> `Other)

(* The role attributes of a decision class, then of its
   generalizations; a label's first attribute decides its kind. *)
let role_attributes kb dc =
  List.concat_map (Kb.attributes kb) (dc :: Kb.isa_closure kb dc)

let rec role_kind kb label = function
  | [] -> `Other
  | (p : Prop.t) :: rest ->
    if Symbol.equal p.label label then attribute_kind kb p
    else role_kind kb label rest

(* FROM/TO signature of a decision class *)
let signature repo dc kind =
  let kb = Repo.kb repo in
  let dc = Symbol.intern dc in
  List.concat_map
    (fun c ->
      List.filter_map
        (fun (p : Prop.t) ->
          if attribute_kind kb p = kind then Some (Symbol.name p.label, p.dest)
          else None)
        (Kb.attributes kb c))
    (dc :: Kb.isa_closure kb dc)

let from_signature repo dc = signature repo dc `Input
let to_signature repo dc = signature repo dc `Output

(* role conformance, omega-level aware: an object fills a role typed by a
   class when it instantiates it, or — when the role is typed by a
   metaclass such as [DesignObject] — when one of its classes does *)
let conforms repo ~inst ~cls =
  let kb = Repo.kb repo in
  Kb.is_instance kb ~inst ~cls
  || List.exists
       (fun c -> Kb.is_instance kb ~inst:c ~cls)
       (Kb.classes_of kb inst)

let decision_classes repo =
  Kb.instances_of (Repo.kb repo) (Symbol.intern Metamodel.design_decision)

let specificity repo dc =
  List.length (Kb.isa_closure (Repo.kb repo) dc)

let applicable repo focus =
  let entries =
    List.filter_map
      (fun dc ->
        let dc_name = Symbol.name dc in
        let matching_roles =
          List.filter
            (fun (_, cls) -> conforms repo ~inst:focus ~cls)
            (from_signature repo dc_name)
        in
        match matching_roles with
        | [] -> None
        | (role, _) :: _ ->
          let tools =
            List.map
              (fun (tool : Repo.tool) -> tool.tool_name)
              (Repo.tools_for repo dc_name)
          in
          Some (specificity repo dc, { decision_class = dc_name; role; tools }))
      (decision_classes repo)
  in
  (* most specific decision classes first *)
  List.map snd
    (List.sort
       (fun (sa, ea) (sb, eb) ->
         if sa <> sb then compare sb sa
         else String.compare ea.decision_class eb.decision_class)
       entries)

type executed = {
  decision : Prop.id;
  outputs : (string * Prop.id) list;
  obligations : (string * [ `Open | `Guaranteed of string ]) list;
}

let check_inputs repo dc inputs =
  let signature = from_signature repo dc in
  let rec loop = function
    | [] -> Ok ()
    | (role, obj) :: rest -> (
      match List.assoc_opt role signature with
      | None ->
        Error (Printf.sprintf "decision class %s has no FROM role %s" dc role)
      | Some cls ->
        if conforms repo ~inst:obj ~cls then loop rest
        else
          Error
            (Printf.sprintf "input %s does not instantiate %s (role %s of %s)"
               (Symbol.name obj) (Symbol.name cls) role dc))
  in
  if inputs = [] then Error "a decision needs at least one input object"
  else loop inputs

let check_outputs repo dc outputs =
  let signature = to_signature repo dc in
  let rec loop = function
    | [] -> Ok ()
    | (out : Repo.output) :: rest -> (
      match List.assoc_opt out.role signature with
      | None ->
        Error (Printf.sprintf "decision class %s has no TO role %s" dc out.role)
      | Some cls ->
        if conforms repo ~inst:out.obj ~cls then loop rest
        else
          Error
            (Printf.sprintf
               "output %s does not instantiate %s (role %s of %s)"
               (Symbol.name out.obj) (Symbol.name cls) out.role dc))
  in
  loop outputs

let decision_class_of repo dec =
  let kb = Repo.kb repo in
  match Kb.classes_of kb dec with
  | c :: _ -> Some (Symbol.name c)
  | [] -> None

(* A decision's record, read in one pass over its links: its class's
   role attributes, read once, sort each link into its inputs, its
   outputs or neither, and its first [by], [assumptions] and [asserts]
   links (first as [Kb.attribute_values] lists them) name its tool and
   the texts of its assumptions and asserted facts. *)
type record = {
  cls : Prop.id option;
  inputs : (string * Prop.id) list;
  outputs : (string * Prop.id) list;
  tool : Prop.id option;
  assumptions : Prop.id option;
  asserts : Prop.id option;
}

let read_record repo dec =
  let kb = Repo.kb repo in
  let cls = match Kb.classes_of kb dec with c :: _ -> Some c | [] -> None in
  let roles = match cls with Some dc -> role_attributes kb dc | None -> [] in
  let inputs = ref [] and outputs = ref [] in
  let tool = ref None and assumptions = ref None and asserts = ref None in
  (* the attribute links, last to first as [Kb.attributes] lists them:
     each list keeps that order, and a label's first link is the last
     one seen *)
  Store.Base.fold_source (Kb.base kb) dec
    (fun (p : Prop.t) () ->
      if not (Prop.is_individual p || Cml.Axioms.is_reserved_label p.label) then begin
        (match role_kind kb p.label roles with
        | `Input -> inputs := (Symbol.name p.label, p.dest) :: !inputs
        | `Output -> outputs := (Symbol.name p.label, p.dest) :: !outputs
        | `Other -> ());
        match Symbol.name p.label with
        | "by" -> tool := Some p.dest
        | "assumptions" -> assumptions := Some p.dest
        | "asserts" -> asserts := Some p.dest
        | _ -> ()
      end)
    ();
  {
    cls;
    inputs = !inputs;
    outputs = !outputs;
    tool = !tool;
    assumptions = !assumptions;
    asserts = !asserts;
  }

let inputs_of repo dec = (read_record repo dec).inputs
let outputs_of repo dec = (read_record repo dec).outputs

(* The kind [read_record] sorts the link [p] into from its source, or
   [`Other] when the source is not a logged decision.  The cheap tests
   run first, so the links of other kinds into a hub — a tool's [by]
   links, a class's instances — are passed over without allocating. *)
let link_kind repo (p : Prop.t) =
  if not (Repo.is_logged repo p.source) then `Other
  else
    let role = Symbol.name p.label in
    if
      role = "by" || role = "rationale" || role = "obligation"
      || Prop.is_individual p
      || Cml.Axioms.is_reserved_label p.label
    then `Other
    else
      let kb = Repo.kb repo in
      match Kb.classes_of kb p.source with
      | dc :: _ -> role_kind kb p.label (role_attributes kb dc)
      | [] -> `Other

let consumers repo obj =
  Store.Base.fold_dest (Kb.base (Repo.kb repo)) obj
    (fun (p : Prop.t) acc ->
      if link_kind repo p = `Input then p.source :: acc else acc)
    []

let first_value repo dec label =
  match Kb.attribute_values (Repo.kb repo) dec label with
  | v :: _ -> Some v
  | [] -> None

(* the text artifact an attribute of a decision names *)
let text_of repo = function
  | Some text_id -> (
    match Repo.artifact repo text_id with
    | Some (Repo.Text s) -> Some s
    | Some _ | None -> None)
  | None -> None

(* "k=v;k=v" *)
let pairs text =
  List.filter_map
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i -> Some (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
      | None -> None)
    (match text with Some s -> String.split_on_char ';' s | None -> [])

let entries text =
  match text with
  | Some s -> List.filter (fun x -> x <> "") (String.split_on_char ';' s)
  | None -> []

let tool_of repo dec = Option.map Symbol.name (first_value repo dec "by")
let params_of repo dec = pairs (text_of repo (first_value repo dec "params"))
let assumptions_of repo dec = pairs (text_of repo (first_value repo dec "assumptions"))
let asserts_of repo dec = entries (text_of repo (first_value repo dec "asserts"))
let rationale_of repo dec = text_of repo (first_value repo dec "rationale")

let ensure_supported repo id =
  (* imported objects (no creating decision) become JTMS premises *)
  let j = Repo.jtms repo in
  let node = J.node j (Symbol.name id) in
  if J.justifications j node = [] then ignore (J.premise j node);
  node

(* Install a logged decision's justifications in the JTMS from its KB
   record (read once): its inputs and assumptions support it, and it
   supports its outputs and asserted facts.  Every path that logs a
   decision calls this once per decision — execution after its commit,
   snapshot load and recovery over the whole log, a follower per
   replayed decision — so the mirror is the same on all of them;
   J.justify does not deduplicate, so a whole-log rebuild per call
   would pile up copies. *)
let install_justifications repo dec =
  let j = Repo.jtms repo in
  let dec_name = Symbol.name dec in
  let r = read_record repo dec in
  let added = ref [] in
  let justify ?inlist ?outlist ~reason node =
    added := J.justify j ?inlist ?outlist ~reason node :: !added
  in
  let input_nodes = List.map (fun (_, i) -> ensure_supported repo i) r.inputs in
  let assumption_nodes =
    List.map
      (fun (asm, defeater) ->
        let asm_node = J.node j asm in
        justify ~outlist:[ J.node j defeater ]
          ~reason:(Printf.sprintf "assumption %s (unless %s)" asm defeater)
          asm_node;
        asm_node)
      (pairs (text_of repo r.assumptions))
  in
  let how =
    String.concat " by " (List.filter_map (Option.map Symbol.name) [ r.cls; r.tool ])
  in
  let dec_node = J.node j dec_name in
  justify
    ~inlist:(input_nodes @ assumption_nodes)
    ~reason:(Printf.sprintf "decision %s (%s)" dec_name how)
    dec_node;
  List.iter
    (fun (_, out) ->
      justify ~inlist:[ dec_node ]
        ~reason:(Printf.sprintf "%s created by %s" (Symbol.name out) dec_name)
        (J.node j (Symbol.name out)))
    r.outputs;
  (* facts the decision establishes — typically the defeaters of
     earlier assumptions ("other subclasses of Papers exist") *)
  List.iter
    (fun fact ->
      justify ~inlist:[ dec_node ]
        ~reason:(Printf.sprintf "%s established by %s" fact dec_name)
        (J.node j fact))
    (entries (text_of repo r.asserts));
  Repo.record_justifications repo dec !added

let rebuild_jtms repo =
  List.iter (install_justifications repo) (Repo.decision_log repo)

let attach_text repo ~owner ~label ~suffix text =
  let name = Printf.sprintf "%s!%s" owner suffix in
  let* _ = Kb.declare (Repo.kb repo) name in
  let* _ =
    Kb.add_instanceof (Repo.kb repo) ~inst:name ~cls:Metamodel.text_object
  in
  Repo.set_artifact repo (Symbol.intern name) (Repo.Text text);
  let* _ =
    Kb.add_attribute (Repo.kb repo) ~source:owner ~label ~dest:name
  in
  Ok name

let execute repo ~decision_class ~tool ~inputs ?(params = []) ?(rationale = "")
    ?(assumptions = []) ?(asserts = []) () =
  Obs.Trace.with_span "decision.execute"
    ~attrs:[ ("class", decision_class); ("tool", tool) ]
  @@ fun () ->
  let kb = Repo.kb repo in
  let base = Kb.base kb in
  if not (Kb.exists kb decision_class) then
    Error (Printf.sprintf "unknown decision class %s" decision_class)
  else
    match Repo.find_tool repo tool with
    | None -> Error (Printf.sprintf "unknown tool %s" tool)
    | Some tool_spec ->
      let dc_and_supers =
        decision_class
        :: List.map Symbol.name
             (Kb.isa_closure kb (Symbol.intern decision_class))
      in
      if not (List.mem tool_spec.executes dc_and_supers) then
        Error
          (Printf.sprintf "tool %s executes %s, not %s" tool
             tool_spec.executes decision_class)
      else
        let* () =
          Obs.Trace.with_span "decision.check_inputs" (fun () ->
              check_inputs repo decision_class inputs)
        in
        ignore (Repo.drain_changes repo);
        Repo.emit_event repo (Repo.Decision_begun decision_class);
        Store.Base.begin_tx base;
        let rollback err =
          (match Store.Base.rollback base with Ok () -> () | Error _ -> ());
          Repo.emit_event repo (Repo.Decision_aborted err);
          (* no decision id exists on the abort path, so the flight
             recorder keys the event by class *)
          Obs.Recorder.record ~decision:decision_class
            (Obs.Recorder.Aborted err);
          Error err
        in
        let result =
          let* outputs =
            Obs.Trace.with_span "decision.tool_run" (fun () ->
                tool_spec.run repo ~inputs ~params)
          in
          let* () =
            Obs.Trace.with_span "decision.check_outputs" (fun () ->
                check_outputs repo decision_class outputs)
          in
          (* the decision instance and its links *)
          let dec_name = Repo.fresh_decision_id repo in
          (* everything between tool run and consistency check: the
             decision instance, its links and texts *)
          let* dec_id, obligations =
            Obs.Trace.with_span "decision.bookkeeping" @@ fun () ->
            Obs.Recorder.record ~decision:dec_name
              (Obs.Recorder.Execute_begun decision_class);
          let* dec_id = Kb.declare kb dec_name in
          let* _ = Kb.add_instanceof kb ~inst:dec_name ~cls:decision_class in
          let* () =
            List.fold_left
              (fun acc (role, obj) ->
                let* () = acc in
                let* _ =
                  Kb.add_attribute kb ~category:role ~source:dec_name
                    ~label:role ~dest:(Symbol.name obj)
                in
                Ok ())
              (Ok ()) inputs
          in
          let* () =
            List.fold_left
              (fun acc (out : Repo.output) ->
                let* () = acc in
                let* _ =
                  Kb.add_attribute kb ~category:out.role ~source:dec_name
                    ~label:out.role ~dest:(Symbol.name out.obj)
                in
                (* conversely, the output is justified by the decision *)
                let* _ =
                  Kb.add_attribute kb ~source:(Symbol.name out.obj)
                    ~label:Metamodel.justification_cat ~dest:dec_name
                in
                Ok ())
              (Ok ()) outputs
          in
          let* _ =
            Kb.add_attribute kb ~category:Metamodel.by_cat ~source:dec_name
              ~label:"by" ~dest:tool
          in
          let* () =
            if rationale = "" then Ok ()
            else
              let* _ =
                attach_text repo ~owner:dec_name ~label:"rationale"
                  ~suffix:"rationale" rationale
              in
              Ok ()
          in
          (* verification obligations *)
          let obligations =
            List.map
              (fun ob ->
                if List.mem ob tool_spec.guarantees then
                  (ob, `Guaranteed tool)
                else (ob, `Open))
              (List.concat_map Metamodel.obligations_of dc_and_supers)
          in
          let* () =
            List.fold_left
              (fun acc (ob, status) ->
                let* () = acc in
                let text =
                  match status with
                  | `Open -> "open"
                  | `Guaranteed tool -> "guaranteed by " ^ tool
                in
                let* _ =
                  attach_text repo ~owner:dec_name ~label:"obligation"
                    ~suffix:("ob!" ^ ob) text
                in
                Ok ())
              (Ok ()) obligations
          in
          (* record tool parameters so the decision can be replayed *)
          let* () =
            if params = [] then Ok ()
            else
              let text =
                String.concat ";"
                  (List.map (fun (k, v) -> k ^ "=" ^ v) params)
              in
              let* _ =
                attach_text repo ~owner:dec_name ~label:"params"
                  ~suffix:"params" text
              in
              Ok ()
          in
          (* record assumptions and asserted facts: the reason
             maintenance is installed from them *)
          let* () =
            if assumptions = [] then Ok ()
            else
              let text =
                String.concat ";"
                  (List.map (fun (a, d) -> a ^ "=" ^ d) assumptions)
              in
              let* _ =
                attach_text repo ~owner:dec_name ~label:"assumptions"
                  ~suffix:"assumptions" text
              in
              Ok ()
          in
          let* () =
            if asserts = [] then Ok ()
            else
              let* _ =
                attach_text repo ~owner:dec_name ~label:"asserts"
                  ~suffix:"asserts" (String.concat ";" asserts)
              in
              Ok ()
          in
          Ok (dec_id, obligations)
          in
          (* set-oriented consistency check over the delta *)
          let delta = Repo.drain_changes repo in
          match
            Obs.Trace.with_span "decision.consistency_check" (fun () ->
                Cml.Consistency.check_delta kb delta)
          with
          | [] ->
            Repo.log_decision repo dec_id;
            Ok
              {
                decision = dec_id;
                outputs = List.map (fun (o : Repo.output) -> (o.role, o.obj)) outputs;
                obligations;
              }
          | violations ->
            Error
              (Format.asprintf "decision rejected, KB would become inconsistent:@ %a"
                 (Format.pp_print_list Cml.Consistency.pp_violation)
                 violations)
        in
        (match result with
        | Ok executed -> (
          match
            Obs.Trace.with_span "decision.commit" (fun () ->
                Store.Base.commit base)
          with
          | Ok () ->
            install_justifications repo executed.decision;
            Repo.emit_event repo (Repo.Decision_committed executed.decision);
            Obs.Recorder.record ~decision:(Symbol.name executed.decision)
              Obs.Recorder.Committed;
            Ok executed
          | Error e -> rollback e)
        | Error e -> rollback e)

let obligation_objects repo dec =
  let kb = Repo.kb repo in
  List.filter_map
    (fun (p : Prop.t) ->
      if Symbol.equal p.label (Symbol.intern "obligation") then Some p.dest
      else None)
    (Kb.attributes kb dec)

let open_obligations repo dec =
  List.filter_map
    (fun ob_id ->
      match Repo.artifact repo ob_id with
      | Some (Repo.Text "open") ->
        (* name after the last "ob!" marker *)
        let n = Symbol.name ob_id in
        let marker = "ob!" in
        let idx =
          let rec find i =
            if i + String.length marker > String.length n then None
            else if String.sub n i (String.length marker) = marker then Some i
            else find (i + 1)
          in
          find 0
        in
        (match idx with
        | Some i -> Some (String.sub n (i + 3) (String.length n - i - 3))
        | None -> Some n)
      | Some _ | None -> None)
    (obligation_objects repo dec)

let discharge_obligation repo ~decision ~obligation ~how =
  let target =
    List.find_opt
      (fun ob_id ->
        let n = Symbol.name ob_id in
        let suffix = "ob!" ^ obligation in
        String.length n >= String.length suffix
        && String.sub n (String.length n - String.length suffix)
             (String.length suffix)
           = suffix)
      (obligation_objects repo decision)
  in
  match target with
  | None ->
    Error
      (Printf.sprintf "decision %s has no obligation %s" (Symbol.name decision)
         obligation)
  | Some ob_id -> (
    match Repo.artifact repo ob_id with
    | Some (Repo.Text "open") ->
      Repo.set_artifact repo ob_id (Repo.Text how);
      Ok ()
    | Some (Repo.Text other) ->
      Error (Printf.sprintf "obligation already discharged (%s)" other)
    | Some _ | None -> Error "obligation object has no status")

let sign_obligation repo ~decision ~obligation ~by =
  discharge_obligation repo ~decision ~obligation ~how:("signed by " ^ by)

let justifying_decision repo obj =
  match
    Kb.attribute_values (Repo.kb repo) obj Metamodel.justification_cat
  with
  | dec :: _ -> Some dec
  | [] -> None
