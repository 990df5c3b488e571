open Kernel
module Kb = Cml.Kb

type artifact =
  | Tdl_design of Langs.Taxis_dl.design
  | Tdl_class of Langs.Taxis_dl.entity_class
  | Tdl_tx of Langs.Taxis_dl.transaction
  | Dbpl_rel of Langs.Dbpl.relation
  | Dbpl_con of Langs.Dbpl.constructor_
  | Dbpl_sel of Langs.Dbpl.selector
  | Dbpl_tx of Langs.Dbpl.transaction
  | Cml_frame of Cml.Object_processor.frame
  | Cml_model of Cml.Object_processor.frame list
  | Text of string

let pp_artifact ppf = function
  | Tdl_design d -> Langs.Taxis_dl.pp_design ppf d
  | Tdl_class c -> Langs.Taxis_dl.pp_class ppf c
  | Tdl_tx tx -> Langs.Taxis_dl.pp_transaction ppf tx
  | Dbpl_rel r -> Langs.Dbpl.pp_relation ppf r
  | Dbpl_con c -> Langs.Dbpl.pp_constructor ppf c
  | Dbpl_sel s -> Langs.Dbpl.pp_selector ppf s
  | Dbpl_tx tx -> Langs.Dbpl.pp_transaction ppf tx
  | Cml_frame f -> Cml.Object_processor.pp ppf f
  | Cml_model frames ->
    Format.fprintf ppf "@[<v>";
    List.iter (fun f -> Format.fprintf ppf "%a@,@," Cml.Object_processor.pp f) frames;
    Format.fprintf ppf "@]"
  | Text s -> Format.pp_print_string ppf s

type output = { role : string; obj : Prop.id; replaces : Prop.id option }

type event =
  | Decision_begun of string
  | Decision_committed of Prop.id
  | Decision_aborted of string
  | Decision_unlogged of Prop.id
  | Artifact_written of Prop.id

type event_subscription = int

(* The decision log: an append-only vector of ids plus a position
   table ([-1] where an id has none).  Unlogging drops the id from
   [pos] and leaves its slot behind as a tombstone, so positions only
   rise and never shift; a slot is live exactly when [pos] maps its id
   back to it (an id logged again after an unlog gets a new, higher
   slot). *)
type log = {
  mutable slots : Prop.id array;
  mutable used : int;
  pos : int Symtab.t;
}

type t = {
  kb : Kb.t;
  jtms : Tms.Jtms.t;
  artifacts : artifact Symtab.t;  (** [no_artifact] where an id has none *)
  tools : (string, tool) Hashtbl.t;
  log : log;
  mutable decision_counter : int;
  mutable change_batch : Store.Base.change list;  (** reverse order *)
  decision_justs : Tms.Jtms.justification list Symbol.Tbl.t;
      (** JTMS justifications installed by each decision instance *)
  version_hints : int Symbol.Tbl.t;
      (** version-lineage base -> lower bound on the first free version
          index (>= 2).  Maintained from the base's change stream, so
          it survives rollbacks and backtracking: removing [Base7]
          lowers the hint back to 7.  Keeps {!next_version_name}
          amortized O(1) instead of probing the whole lineage. *)
  mutable design_objects : int option;
      (** [List.length (all_design_objects t)] while known, kept off
          the change feed; [None] until the next {!design_object_count}
          after a class-level change *)
  design_classes : bool Symbol.Tbl.t;
      (** class -> whether its instances are design objects, for the
          classes [instanceof] links have reached while the count is
          known (emptied with it) *)
  mutable event_listeners : (event_subscription * (event -> unit)) list;
      (** newest first *)
  mutable next_event_sub : int;
  version : int Atomic.t;
      (** data-version counter: bumped on every committed, retracted or
          artifact-writing event; atomic so the server's cached-read path
          can poll it without holding the repository lock *)
}

and tool = {
  tool_name : string;
  executes : string;
  automation : [ `Automatic | `Semi_automatic | `Manual ];
  guarantees : string list;
  run :
    t -> inputs:(string * Prop.id) list -> params:(string * string) list ->
    (output list, string) result;
}

(* the artifact table's empty slot, a block no caller can build *)
let no_artifact = Text (String.make 0 ' ')

(* split a trailing version index: "InvitationRel7" -> ("InvitationRel", 7).
   Indexes below 2 are never allocated by [next_version_name], so they do
   not participate in hint maintenance. *)
let split_version name =
  let n = String.length name in
  let rec first_digit i =
    if i = 0 then n
    else if name.[i - 1] >= '0' && name.[i - 1] <= '9' then first_digit (i - 1)
    else i
  in
  let cut = first_digit n in
  if cut = n || cut = 0 then None
  else
    match int_of_string_opt (String.sub name cut (n - cut)) with
    | Some idx when idx >= 2 -> Some (String.sub name 0 cut, idx)
    | _ -> None

let track_version_hint t change =
  let open Store.Base in
  (* a minted id is no version; [next_version_name] never coins one *)
  let versioned p = Prop.is_individual p && Symbol.serial_number p.Prop.id = 0 in
  match change with
  | Added p when versioned p -> (
    match split_version (Symbol.name p.Prop.id) with
    | Some (base, idx) -> (
      let b = Symbol.intern base in
      (* indices below the hint are all occupied; occupying the hint
         itself pushes the first-free bound one up *)
      match Symbol.Tbl.find_opt t.version_hints b with
      | Some h when idx = h -> Symbol.Tbl.replace t.version_hints b (h + 1)
      | _ -> ())
    | None -> ())
  | Removed p when versioned p -> (
    match split_version (Symbol.name p.Prop.id) with
    | Some (base, idx) -> (
      let b = Symbol.intern base in
      match Symbol.Tbl.find_opt t.version_hints b with
      | Some h when idx < h -> Symbol.Tbl.replace t.version_hints b idx
      | _ -> ())
    | None -> ())
  | Added _ | Removed _ -> ()

(* [cls] or a generalization of it is a design object class (an
   instance of the [DesignObject] metaclass) *)
let is_design_class kb cls =
  let design_object = Symbol.intern Metamodel.design_object in
  List.exists
    (fun k -> List.exists (Symbol.equal design_object) (Kb.classes_of kb k))
    (cls :: Kb.isa_closure kb cls)

(* [is_design_class], looked up in (or added to) [design_classes] *)
let counts_class t cls =
  match Symbol.Tbl.find_opt t.design_classes cls with
  | Some b -> b
  | None ->
    let b = is_design_class t.kb cls in
    Symbol.Tbl.replace t.design_classes cls b;
    b

(* [x]'s [instanceof] links into design object classes *)
let design_links t x =
  Store.Base.fold_source (Kb.base t.kb) x
    (fun (q : Prop.t) n ->
      if
        Symbol.equal q.label Cml.Axioms.instanceof
        && (not (Prop.is_individual q))
        && counts_class t q.dest
      then n + 1
      else n)
    0

(* Keep the design object count while it is known.  An [isa] link, or
   a class joining or leaving [DesignObject], changes which classes
   count, so the count becomes unknown; an [instanceof] link into a
   design object class counts its source when it is the source's
   first such link, and uncounts it when it was the last. *)
let track_design_objects t change =
  match t.design_objects with
  | None -> ()
  | Some n -> (
    let (Store.Base.Added p | Store.Base.Removed p) = change in
    if Prop.is_individual p then ()
    else if
      Symbol.equal p.label Cml.Axioms.isa
      || Symbol.equal p.label Cml.Axioms.instanceof
         && Symbol.equal p.dest (Symbol.intern Metamodel.design_object)
    then begin
      t.design_objects <- None;
      Symbol.Tbl.reset t.design_classes
    end
    else if Symbol.equal p.label Cml.Axioms.instanceof && counts_class t p.dest
    then
      match change with
      | Store.Base.Added _ ->
        if design_links t p.source = 1 then t.design_objects <- Some (n + 1)
      | Store.Base.Removed _ ->
        if design_links t p.source = 0 then t.design_objects <- Some (n - 1))

let create ?(install_metamodel = true) () =
  let kb = Kb.create () in
  if install_metamodel then
    (match Metamodel.install kb with
    | Ok () -> ()
    | Error e -> invalid_arg ("Repository.create: metamodel bootstrap: " ^ e));
  let t =
    {
      kb;
      jtms = Tms.Jtms.create ();
      artifacts = Symtab.create no_artifact;
      tools = Hashtbl.create 16;
      log = { slots = [||]; used = 0; pos = Symtab.create (-1) };
      decision_counter = 0;
      change_batch = [];
      decision_justs = Symbol.Tbl.create 64;
      design_objects = None;
      design_classes = Symbol.Tbl.create 16;
      event_listeners = [];
      next_event_sub = 0;
      version = Atomic.make 0;
      version_hints = Symbol.Tbl.create 64;
    }
  in
  ignore
    (Store.Base.on_change (Kb.base kb) (fun c ->
         t.change_batch <- c :: t.change_batch;
         track_version_hint t c;
         track_design_objects t c)
      : Store.Base.subscription);
  t

let kb t = t.kb
let jtms t = t.jtms

let event_counter name help = Obs.Registry.counter Obs.Registry.default name ~help
let g_begun = event_counter "gkbms_decisions_begun_total" "Decision executions started"
let g_committed = event_counter "gkbms_decisions_committed_total" "Decisions committed"
let g_aborted = event_counter "gkbms_decisions_aborted_total" "Decisions aborted"
let g_unlogged = event_counter "gkbms_decisions_unlogged_total" "Decisions unlogged (history rewound)"
let g_artifacts = event_counter "gkbms_artifacts_written_total" "Design artifacts written"

let emit_event t e =
  (match e with
  | Decision_committed _ | Decision_unlogged _ | Artifact_written _ ->
    Atomic.incr t.version
  | Decision_begun _ | Decision_aborted _ -> ());
  (match e with
  | Decision_begun _ -> Obs.Registry.Counter.inc g_begun
  | Decision_committed _ -> Obs.Registry.Counter.inc g_committed
  | Decision_aborted _ -> Obs.Registry.Counter.inc g_aborted
  | Decision_unlogged _ -> Obs.Registry.Counter.inc g_unlogged
  | Artifact_written _ -> Obs.Registry.Counter.inc g_artifacts);
  (* oldest subscription first, without reversing the list *)
  List.fold_right (fun (_, f) () -> f e) t.event_listeners ()

let version t = Atomic.get t.version

let on_event t f =
  let id = t.next_event_sub in
  t.next_event_sub <- id + 1;
  t.event_listeners <- (id, f) :: t.event_listeners;
  id

let off_event t id =
  t.event_listeners <- List.filter (fun (id', _) -> id' <> id) t.event_listeners

let event_listener_count t = List.length t.event_listeners

let ( let* ) = Result.bind

let artifact_default_name = function
  | Tdl_design d -> d.Langs.Taxis_dl.design_name
  | Tdl_class c -> c.Langs.Taxis_dl.cls_name
  | Tdl_tx tx -> tx.Langs.Taxis_dl.tx_name
  | Dbpl_rel r -> r.Langs.Dbpl.rel_name
  | Dbpl_con c -> c.Langs.Dbpl.con_name
  | Dbpl_sel s -> s.Langs.Dbpl.sel_name
  | Dbpl_tx tx -> tx.Langs.Dbpl.tx_name
  | Cml_frame f -> f.Cml.Object_processor.name
  | Cml_model _ -> Symbol.name (Prop.fresh_id ~prefix:"worldmodel" ())
  | Text _ -> Symbol.name (Prop.fresh_id ~prefix:"text" ())

let render = function
  | Text s -> s
  | artifact -> Format.asprintf "%a" pp_artifact artifact

let set_artifact t id a =
  Symtab.replace t.artifacts id a;
  emit_event t (Artifact_written id)

(* The KB writes run in one transaction, so a failure leaves no trace
   in the base; the artifacts, which no transaction covers, are set
   only once it commits. *)
let new_object t ?name ?replaces ~cls artifact =
  let name = match name with Some n -> n | None -> artifact_default_name artifact in
  if Kb.exists t.kb name then
    Error (Printf.sprintf "design object %s already exists" name)
  else
    let* id, text_id =
      Store.Base.with_tx (Kb.base t.kb) @@ fun () ->
      let* id = Kb.declare t.kb name in
      let* _ = Kb.add_instanceof_sym t.kb ~inst:id ~cls:(Symbol.intern cls) in
      (* attach the rendered source via SOURCE *)
      let* text_id = Kb.declare t.kb (name ^ "!src") in
      let* _ =
        Kb.add_instanceof_sym t.kb ~inst:text_id ~cls:(Symbol.intern Metamodel.text_object)
      in
      let source = Symbol.intern Metamodel.source_cat in
      let* _ =
        Kb.add_attribute_sym t.kb ~category:source ~source:id ~label:source ~dest:text_id
      in
      let* () =
        match replaces with
        | None -> Ok ()
        | Some prev ->
          let replaces = Symbol.intern Metamodel.replaces_cat in
          let* _ =
            Kb.add_attribute_sym t.kb ~category:replaces ~source:id ~label:replaces ~dest:prev
          in
          Ok ()
      in
      Ok (id, text_id)
    in
    set_artifact t id artifact;
    set_artifact t text_id (Text (render artifact));
    Ok id

let artifact t id = Symtab.find_opt t.artifacts id
let fold_artifacts t f init = Symtab.fold f t.artifacts init

let source_text t id =
  match Kb.attribute_values t.kb id Metamodel.source_cat with
  | text_id :: _ -> (
    match Symtab.find_opt t.artifacts text_id with
    | Some (Text s) -> Some s
    | Some a -> Some (render a)
    | None -> None)
  | [] -> (
    match Symtab.find_opt t.artifacts id with
    | Some a -> Some (render a)
    | None -> None)

let objects_of_class t cls =
  Kb.all_instances_of t.kb (Symbol.intern cls)

(* Mark in [marks] the source of every [instanceof] link into a
   counting class: a design object class (an instance of the
   DesignObject metaclass) or a specialization of one.  One fold over
   each class's [by_dest] chain, no list; answers the number of
   sources marked. *)
let mark_design_objects t marks =
  let classes =
    List.sort_uniq Symbol.compare
      (List.concat_map
         (fun c -> c :: Kb.isa_subs_closure t.kb c)
         (Kb.instances_of t.kb (Symbol.intern Metamodel.design_object)))
  in
  let mark (p : Prop.t) n =
    if
      Symbol.equal p.label Cml.Axioms.instanceof
      && (not (Prop.is_individual p))
      && Symtab.find marks p.source = 0
    then begin
      Symtab.replace marks p.source 1;
      n + 1
    end
    else n
  in
  List.fold_left
    (fun n cls -> Store.Base.fold_dest (Kb.base t.kb) cls mark n)
    0 classes

(* the marks' fold is in ascending code order, which is
   [Symbol.compare]'s *)
let all_design_objects t =
  let marks = Symtab.create 0 in
  ignore (mark_design_objects t marks : int);
  List.rev (Symtab.fold (fun x _ xs -> x :: xs) marks [])

let design_object_count t =
  match t.design_objects with
  | Some n -> n
  | None ->
    let n = mark_design_objects t (Symtab.create 0) in
    t.design_objects <- Some n;
    n

(* [List.mem obj (all_design_objects t)], from [obj]'s side: one of its
   classes, or a generalization of one, is a design object class *)
let is_design_object t obj = List.exists (is_design_class t.kb) (Kb.classes_of t.kb obj)

let register_tool t tool =
  Hashtbl.replace t.tools tool.tool_name tool;
  (* record the tool specification in the KB *)
  (* the KB recording is content-idempotent so tools can be re-registered
     on a freshly loaded repository without duplicating propositions *)
  (match Kb.declare t.kb tool.tool_name with
  | Ok tool_id ->
    if
      not
        (Kb.is_instance t.kb ~inst:tool_id
           ~cls:(Symbol.intern Metamodel.design_tool))
    then
      ignore
        (Kb.add_instanceof t.kb ~inst:tool.tool_name ~cls:Metamodel.design_tool);
    (* the decision class carries one BY category (typed DesignTool) so
       instance-level [by] links classify and conform; the association
       with this particular tool spec is a separate link *)
    let dc = Symbol.intern tool.executes in
    let has_by =
      List.exists
        (fun (p : Prop.t) ->
          Symbol.equal p.label (Symbol.intern Metamodel.by_cat))
        (Kb.attributes t.kb dc)
    in
    if not has_by then
      ignore
        (Kb.add_attribute t.kb ~category:Metamodel.by_cat
           ~source:tool.executes ~label:Metamodel.by_cat
           ~dest:Metamodel.design_tool);
    if
      not
        (List.exists (Symbol.equal tool_id)
           (Kb.attribute_values t.kb dc "toolspec"))
    then
      ignore
        (Kb.add_attribute t.kb ~source:tool.executes ~label:"toolspec"
           ~dest:tool.tool_name)
  | Error _ -> ())

let find_tool t name = Hashtbl.find_opt t.tools name

let tools_for t decision_class =
  let classes =
    decision_class
    :: List.map Symbol.name (Kb.isa_closure t.kb (Symbol.intern decision_class))
  in
  Hashtbl.fold
    (fun _ tool acc ->
      if List.mem tool.executes classes then tool :: acc else acc)
    t.tools []
  |> List.sort (fun a b -> String.compare a.tool_name b.tool_name)

let is_logged t id = Symtab.mem t.log.pos id
let position t id = Symtab.find_opt t.log.pos id
let log_length t = Symtab.length t.log.pos

let log_decision t id =
  let l = t.log in
  if not (Symtab.mem l.pos id) then begin
    if l.used = Array.length l.slots then begin
      let grown = Array.make (max 64 (2 * l.used)) id in
      Array.blit l.slots 0 grown 0 l.used;
      l.slots <- grown
    end;
    l.slots.(l.used) <- id;
    Symtab.replace l.pos id l.used;
    l.used <- l.used + 1
  end

let unlog_decision t id =
  Symtab.remove t.log.pos id;
  emit_event t (Decision_unlogged id)

let iter_log t f =
  let l = t.log in
  for i = 0 to l.used - 1 do
    let id = l.slots.(i) in
    if Symtab.find l.pos id = i then f id
  done

let decision_log t =
  let acc = ref [] in
  iter_log t (fun id -> acc := id :: !acc);
  List.rev !acc

let fresh_decision_id t =
  t.decision_counter <- t.decision_counter + 1;
  "dec" ^ string_of_int t.decision_counter

(* [p] then digits spells a minted proposition id (see
   {!Symbol.serial}), which no chosen name may take: the lineage of [p]
   numbers its versions [p02], [p03], ..., which [split_version] reads
   back as 2, 3, ..., and a base that is itself such a spelling is
   versioned as [p]. *)
let spells_minted_id s =
  match Symbol.find_opt s with Some id -> Symbol.serial_number id > 0 | None -> false

let next_version_name t base =
  let base = if spells_minted_id base then "p" else base in
  let version n = if base = "p" then "p0" ^ string_of_int n else base ^ string_of_int n in
  if not (Kb.exists t.kb base) then base
  else begin
    let b = Symbol.intern base in
    let start =
      match Symbol.Tbl.find_opt t.version_hints b with
      | Some h -> h
      | None -> 2
    in
    let rec probe n = if Kb.exists t.kb (version n) then probe (n + 1) else n in
    let n = probe start in
    (* every index in [start, n) was just observed occupied, and the
       hint guaranteed everything below [start] occupied, so [n] is the
       exact first-free index — remember it *)
    Symbol.Tbl.replace t.version_hints b n;
    version n
  end

let advance_decision_counter t n =
  if t.decision_counter < n then t.decision_counter <- n

let drain_changes t =
  let changes = List.rev t.change_batch in
  t.change_batch <- [];
  changes

let record_justifications t dec justs = Symbol.Tbl.replace t.decision_justs dec justs

let justifications_of t dec =
  match Symbol.Tbl.find_opt t.decision_justs dec with
  | Some js -> js
  | None -> []

let forget_justifications t dec = Symbol.Tbl.remove t.decision_justs dec
