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
    | Some cp when String.equal (Symbol.name cp.Prop.label) Metamodel.from_cat -> `Input
    | Some cp when String.equal (Symbol.name cp.Prop.label) Metamodel.to_cat -> `Output
    | Some _ | None -> `Other)

(* A decision class's role attributes, each classified once: those of
   the class, then of its generalizations, with the class each role's
   object must instantiate.  One decision reads them once, for its
   input binding, both role checks and its record. *)
type role = { label : Symbol.t; kind : [ `Input | `Output | `Other ]; cls : Prop.id }

let roles_of kb dc =
  List.concat_map
    (fun c ->
      List.map
        (fun (p : Prop.t) -> { label = p.label; kind = attribute_kind kb p; cls = p.dest })
        (Kb.attributes kb c))
    (dc :: Kb.isa_closure kb dc)

(* a label's first role attribute decides its kind *)
let rec role_kind label = function
  | [] -> `Other
  | r :: rest -> if Symbol.equal r.label label then r.kind else role_kind label rest

(* the class the first role of [kind] named [name] requires *)
let rec role_class kind name = function
  | [] -> None
  | r :: rest ->
    if r.kind = kind && String.equal (Symbol.name r.label) name then Some r.cls
    else role_class kind name rest

(* FROM/TO signature of a decision class *)
let signature repo dc kind =
  List.filter_map
    (fun r -> if r.kind = kind then Some (Symbol.name r.label, r.cls) else None)
    (roles_of (Repo.kb repo) (Symbol.intern dc))

let from_signature repo dc = signature repo dc `Input

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

let check_inputs repo roles dc inputs =
  let rec loop = function
    | [] -> Ok ()
    | (role, obj) :: rest -> (
      match role_class `Input role roles with
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

let check_outputs repo roles dc outputs =
  let rec loop = function
    | [] -> Ok ()
    | (out : Repo.output) :: rest -> (
      match role_class `Output out.role roles with
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
  let roles = match cls with Some dc -> roles_of kb dc | None -> [] in
  let inputs = ref [] and outputs = ref [] in
  let tool = ref None and assumptions = ref None and asserts = ref None in
  (* the attribute links, last to first as [Kb.attributes] lists them:
     each list keeps that order, and a label's first link is the last
     one seen *)
  Store.Base.fold_source (Kb.base kb) dec
    (fun (p : Prop.t) () ->
      if not (Prop.is_individual p || Cml.Axioms.is_reserved_label p.label) then begin
        (match role_kind p.label roles with
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
   [`Other] when the source is not a logged decision.  The label is
   tested before the log, so the links of other kinds into a hub — a
   tool's [by] links, a class's instances — are passed over without a
   table lookup or an allocation. *)
let link_kind repo (p : Prop.t) =
  let role = Symbol.name p.label in
  if
    String.equal role "by" || String.equal role "rationale"
    || String.equal role "obligation"
    || Prop.is_individual p
    || Cml.Axioms.is_reserved_label p.label
    || not (Repo.is_logged repo p.source)
  then `Other
  else
    let kb = Repo.kb repo in
    match Kb.classes_of kb p.source with
    | dc :: _ -> role_kind p.label (roles_of kb dc)
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
  let node = J.node_sym j id in
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
          ~reason:(String.concat "" [ "assumption "; asm; " (unless "; defeater; ")" ])
          asm_node;
        asm_node)
      (pairs (text_of repo r.assumptions))
  in
  let how =
    match (r.cls, r.tool) with
    | Some c, Some t -> Symbol.name c ^ " by " ^ Symbol.name t
    | Some s, None | None, Some s -> Symbol.name s
    | None, None -> ""
  in
  let dec_node = J.node_sym j dec in
  justify
    ~inlist:(input_nodes @ assumption_nodes)
    ~reason:(String.concat "" [ "decision "; dec_name; " ("; how; ")" ])
    dec_node;
  List.iter
    (fun (_, out) ->
      justify ~inlist:[ dec_node ]
        ~reason:(String.concat "" [ Symbol.name out; " created by "; dec_name ])
        (J.node_sym j out))
    r.outputs;
  (* facts the decision establishes — typically the defeaters of
     earlier assumptions ("other subclasses of Papers exist") *)
  List.iter
    (fun fact ->
      justify ~inlist:[ dec_node ]
        ~reason:(String.concat "" [ fact; " established by "; dec_name ])
        (J.node j fact))
    (entries (text_of repo r.asserts));
  Repo.record_justifications repo dec !added

let rebuild_jtms repo =
  List.iter (install_justifications repo) (Repo.decision_log repo)

(* A text object [OWNER!SUFFIX] holding [text], linked from [owner]
   under [label]. *)
let attach_text repo ~owner ~label ~suffix text =
  let kb = Repo.kb repo in
  let* id = Kb.declare kb (Symbol.name owner ^ "!" ^ suffix) in
  let* _ = Kb.add_instanceof_sym kb ~inst:id ~cls:(Symbol.intern Metamodel.text_object) in
  Repo.set_artifact repo id (Repo.Text text);
  let label = Symbol.intern label in
  let* _ = Kb.add_attribute_sym kb ~source:owner ~label ~dest:id in
  Ok ()

let rec all_ok f = function
  | [] -> Ok ()
  | x :: rest -> ( match f x with Ok () -> all_ok f rest | Error _ as e -> e)

(* The checks and the transaction of {!execute}, for a decision class
   that exists, given its role attributes. *)
let execute_roles repo roles ~decision_class ~tool ~inputs ~params ~rationale ~assumptions
    ~asserts =
  Obs.Trace.with_span "decision.execute"
    ~attrs:[ ("class", decision_class); ("tool", tool) ]
  @@ fun () ->
  let kb = Repo.kb repo in
  let base = Kb.base kb in
  match Repo.find_tool repo tool with
  | None -> Error (Printf.sprintf "unknown tool %s" tool)
  | Some tool_spec ->
    let dc = Symbol.intern decision_class in
    let dc_and_supers = decision_class :: List.map Symbol.name (Kb.isa_closure kb dc) in
    if not (List.mem tool_spec.executes dc_and_supers) then
      Error
        (Printf.sprintf "tool %s executes %s, not %s" tool tool_spec.executes
           decision_class)
    else
      let* () =
        Obs.Trace.with_span "decision.check_inputs" (fun () ->
            check_inputs repo roles decision_class inputs)
      in
      ignore (Repo.drain_changes repo);
      Repo.emit_event repo (Repo.Decision_begun decision_class);
      Store.Base.begin_tx base;
      let rollback err =
        (match Store.Base.rollback base with Ok () -> () | Error _ -> ());
        Repo.emit_event repo (Repo.Decision_aborted err);
        (* no decision id exists on the abort path, so the flight
           recorder keys the event by class *)
        Obs.Recorder.record ~decision:decision_class (Obs.Recorder.Aborted err);
        Error err
      in
      let result =
        let* outputs =
          Obs.Trace.with_span "decision.tool_run" (fun () ->
              tool_spec.run repo ~inputs ~params)
        in
        let* () =
          Obs.Trace.with_span "decision.check_outputs" (fun () ->
              check_outputs repo roles decision_class outputs)
        in
        let dec_name = Repo.fresh_decision_id repo in
        (* everything between tool run and consistency check: the
           decision instance, its links and texts *)
        let* dec_id, obligations =
          Obs.Trace.with_span "decision.bookkeeping" @@ fun () ->
          Obs.Recorder.record ~decision:dec_name (Obs.Recorder.Execute_begun decision_class);
          let* dec_id = Kb.declare kb dec_name in
          let* _ = Kb.add_instanceof_sym kb ~inst:dec_id ~cls:dc in
          let role_link role obj =
            let role = Symbol.intern role in
            let* _ = Kb.add_attribute_sym kb ~category:role ~source:dec_id ~label:role ~dest:obj in
            Ok ()
          in
          let* () = all_ok (fun (role, obj) -> role_link role obj) inputs in
          let* () =
            all_ok
              (fun (out : Repo.output) ->
                let* () = role_link out.role out.obj in
                (* conversely, the output is justified by the decision *)
                let label = Symbol.intern Metamodel.justification_cat in
                let* _ = Kb.add_attribute_sym kb ~source:out.obj ~label ~dest:dec_id in
                Ok ())
              outputs
          in
          let label = Symbol.intern "by" in
          let* _ =
            Kb.add_attribute_sym kb ~category:(Symbol.intern Metamodel.by_cat) ~source:dec_id
              ~label ~dest:(Symbol.intern tool)
          in
          let text ~label ~suffix = function
            | None -> Ok ()
            | Some text -> attach_text repo ~owner:dec_id ~label ~suffix text
          in
          let* () =
            text ~label:"rationale" ~suffix:"rationale"
              (if rationale = "" then None else Some rationale)
          in
          (* verification obligations *)
          let obligations =
            List.map
              (fun ob ->
                if List.mem ob tool_spec.guarantees then (ob, `Guaranteed tool)
                else (ob, `Open))
              (List.concat_map Metamodel.obligations_of dc_and_supers)
          in
          let* () =
            all_ok
              (fun (ob, status) ->
                attach_text repo ~owner:dec_id ~label:"obligation" ~suffix:("ob!" ^ ob)
                  (match status with
                  | `Open -> "open"
                  | `Guaranteed tool -> "guaranteed by " ^ tool))
              obligations
          in
          (* record tool parameters so the decision can be replayed,
             and assumptions and asserted facts: the reason maintenance
             is installed from them *)
          let joined = function
            | [] -> None
            | pairs -> Some (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) pairs))
          in
          let* () = text ~label:"params" ~suffix:"params" (joined params) in
          let* () = text ~label:"assumptions" ~suffix:"assumptions" (joined assumptions) in
          let* () =
            text ~label:"asserts" ~suffix:"asserts"
              (if asserts = [] then None else Some (String.concat ";" asserts))
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
      match result with
      | Ok executed -> (
        match Obs.Trace.with_span "decision.commit" (fun () -> Store.Base.commit base) with
        | Ok () ->
          install_justifications repo executed.decision;
          Repo.emit_event repo (Repo.Decision_committed executed.decision);
          Obs.Recorder.record ~decision:(Symbol.name executed.decision) Obs.Recorder.Committed;
          Ok executed
        | Error e -> rollback e)
      | Error e -> rollback e

let unknown_class decision_class = Error ("unknown decision class " ^ decision_class)

let execute repo ~decision_class ~tool ~inputs ?(params = []) ?(rationale = "")
    ?(assumptions = []) ?(asserts = []) () =
  let kb = Repo.kb repo in
  if not (Kb.exists kb decision_class) then unknown_class decision_class
  else
    execute_roles repo
      (roles_of kb (Symbol.intern decision_class))
      ~decision_class ~tool ~inputs ~params ~rationale ~assumptions ~asserts

let run repo ~decision_class ~tool ~rationale bindings =
  let kb = Repo.kb repo in
  if not (Kb.exists kb decision_class) then unknown_class decision_class
  else
    let roles = roles_of kb (Symbol.intern decision_class) in
    let inputs, params =
      List.partition (fun (k, _) -> Option.is_some (role_class `Input k roles)) bindings
    in
    match List.find_opt (fun (_, v) -> not (Kb.exists kb v)) inputs with
    | Some (_, v) -> Error ("no object " ^ v)
    | None ->
      execute_roles repo roles ~decision_class ~tool
        ~inputs:(List.map (fun (r, v) -> (r, Symbol.intern v)) inputs)
        ~params ~rationale ~assumptions:[] ~asserts:[]

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
