open Kernel
module Repo = Repository
module Kb = Cml.Kb
module Dbpl = Langs.Dbpl

let predecessor repo obj =
  match Kb.attribute_values (Repo.kb repo) obj Metamodel.replaces_cat with
  | prev :: _ when Kb.find (Repo.kb repo) prev <> None -> Some prev
  | _ -> None

let successors repo obj =
  let kb = Repo.kb repo in
  Store.Base.fold_dest (Kb.base kb) obj
    (fun (p : Prop.t) acc ->
      if
        Symbol.equal p.label (Symbol.intern Metamodel.replaces_cat)
        && Store.Base.mem (Kb.base kb) p.source
      then p.source :: acc
      else acc)
    []

let rec oldest repo obj =
  match predecessor repo obj with
  | Some prev -> oldest repo prev
  | None -> obj

let version_chain repo obj =
  let rec forward o =
    o
    ::
    (match successors repo o with
    | [] -> []
    | next :: _ -> forward next)
  in
  forward (oldest repo obj)

let is_current repo obj = successors repo obj = []

let current_versions repo ~cls =
  List.filter (is_current repo) (Repo.objects_of_class repo cls)
  |> List.sort Symbol.compare

type configuration = {
  level : string;
  members : Prop.id list;
  superseded : Prop.id list;
  incomplete : string list;
}

let configure repo ~level =
  (* in [Symbol.compare] order, as [objects_of_class] lists them *)
  let all = Repo.objects_of_class repo level in
  let members, superseded = List.partition (is_current repo) all in
  let member_names = List.map Symbol.name members in
  (* completeness: references between members must resolve *)
  let resolves name =
    List.mem name member_names
    (* references may use the logical base name of a member *)
    || List.exists
         (fun m -> Mapping.version_base m = Mapping.version_base name)
         member_names
  in
  let incomplete =
    List.concat_map
      (fun m ->
        match Repo.artifact repo m with
        | Some (Repo.Dbpl_con c) ->
          List.filter_map
            (fun src ->
              if resolves src then None
              else
                Some
                  (Printf.sprintf "constructor %s reads missing relation %s"
                     (Symbol.name m) src))
            (Dbpl.rel_expr_sources c.Dbpl.def)
        | Some (Repo.Dbpl_sel s) ->
          List.filter_map
            (fun (_, rng) ->
              if resolves rng then None
              else
                Some
                  (Printf.sprintf "selector %s ranges over missing relation %s"
                     (Symbol.name m) rng))
            s.Dbpl.ranges
        | Some _ | None -> [])
      members
  in
  { level; members; superseded; incomplete }

let to_dbpl_module repo config ~name =
  if config.incomplete <> [] then
    Error
      ("configuration incomplete: " ^ String.concat "; " config.incomplete)
  else begin
    (* a member may reference a superseded version of another member:
       re-resolve every reference to the current version via the logical
       (version-base) name *)
    let member_names = List.map Symbol.name config.members in
    let by_base = Hashtbl.create 16 in
    List.iter
      (fun n -> Hashtbl.replace by_base (Mapping.version_base n) n)
      member_names;
    let resolve n =
      if List.mem n member_names then n
      else
        match Hashtbl.find_opt by_base (Mapping.version_base n) with
        | Some current -> current
        | None -> n
    in
    let rec resolve_expr = function
      | Dbpl.Rel n -> Dbpl.Rel (resolve n)
      | Dbpl.Project (e, fs) -> Dbpl.Project (resolve_expr e, fs)
      | Dbpl.SelectEq (e, f, v) -> Dbpl.SelectEq (resolve_expr e, f, v)
      | Dbpl.NatJoin (a, b) -> Dbpl.NatJoin (resolve_expr a, resolve_expr b)
      | Dbpl.Union (a, b) -> Dbpl.Union (resolve_expr a, resolve_expr b)
      | Dbpl.Nest (e, fs, f) -> Dbpl.Nest (resolve_expr e, fs, f)
    in
    let m =
      List.fold_left
        (fun m obj ->
          match Repo.artifact repo obj with
          | Some (Repo.Dbpl_rel r) -> { m with Dbpl.relations = r :: m.Dbpl.relations }
          | Some (Repo.Dbpl_con c) ->
            let c = { c with Dbpl.def = resolve_expr c.Dbpl.def } in
            { m with Dbpl.constructors = c :: m.Dbpl.constructors }
          | Some (Repo.Dbpl_sel s) ->
            let s =
              { s with Dbpl.ranges = List.map (fun (v, r) -> (v, resolve r)) s.Dbpl.ranges }
            in
            { m with Dbpl.selectors = s :: m.Dbpl.selectors }
          | Some (Repo.Dbpl_tx tx) ->
            { m with Dbpl.transactions = tx :: m.Dbpl.transactions }
          | Some _ | None -> m)
        (Dbpl.empty_module name) config.members
    in
    let m =
      {
        m with
        Dbpl.relations = List.rev m.Dbpl.relations;
        constructors = List.rev m.Dbpl.constructors;
        selectors = List.rev m.Dbpl.selectors;
        transactions = List.rev m.Dbpl.transactions;
      }
    in
    match Dbpl.validate m with
    | Ok () -> Ok m
    | Error es ->
      (* references to superseded names are resolved against version
         bases, so only report errors that persist *)
      Error ("configured module invalid: " ^ String.concat "; " es)
  end

let vertical_check repo ~root =
  let kb = Repo.kb repo in
  let under =
    root
    :: List.filter_map
         (fun (p : Prop.t) ->
           if Symbol.equal p.label (Symbol.intern "isa") then Some p.source
           else None)
         (Store.Base.by_dest (Kb.base kb) root)
  in
  (* transitively: all subclasses *)
  let rec close acc frontier =
    match frontier with
    | [] -> acc
    | c :: rest ->
      let subs =
        List.filter_map
          (fun (p : Prop.t) ->
            if
              Symbol.equal p.label (Symbol.intern "isa")
              && not (List.exists (Symbol.equal p.source) acc)
            then Some p.source
            else None)
          (Store.Base.by_dest (Kb.base kb) c)
      in
      close (acc @ subs) (rest @ subs)
  in
  let all_under = close under under in
  let mapped obj =
    List.exists
      (fun dec ->
        match Decision.decision_class_of repo dec with
        | Some dc ->
          let mapping_classes =
            Metamodel.dec_mapping
            :: List.map Symbol.name
                 (Kb.instances_of kb (Symbol.intern Metamodel.design_decision))
          in
          ignore mapping_classes;
          (dc = Metamodel.dec_mapping
          || List.exists
               (fun s -> Symbol.name s = Metamodel.dec_mapping)
               (Kb.isa_closure kb (Symbol.intern dc)))
          && List.exists (fun (_, i) -> Symbol.equal i obj) (Decision.inputs_of repo dec)
        | None -> false)
      (Repo.decision_log repo)
  in
  List.filter_map
    (fun c ->
      if Kb.is_instance kb ~inst:c ~cls:(Symbol.intern Metamodel.tdl_entity_class)
         && not (mapped c)
      then Some (Symbol.name c)
      else None)
    (List.sort_uniq Symbol.compare all_under)
  |> List.sort String.compare

let pp_configuration repo ppf config =
  Format.fprintf ppf "@[<v>configuration over %s@," config.level;
  Format.fprintf ppf "  members:    %s@,"
    (String.concat ", " (List.map Symbol.name config.members));
  if config.superseded <> [] then
    Format.fprintf ppf "  superseded: %s@,"
      (String.concat ", " (List.map Symbol.name config.superseded));
  List.iter
    (fun diag -> Format.fprintf ppf "  INCOMPLETE: %s@," diag)
    config.incomplete;
  ignore repo;
  Format.fprintf ppf "@]"

let pp_version_lattice repo ppf () =
  (* group design objects by logical base name *)
  let groups = Hashtbl.create 32 in
  List.iter
    (fun obj ->
      let chain = version_chain repo obj in
      match chain with
      | first :: _ ->
        let key = Symbol.name first in
        Hashtbl.replace groups key chain
      | [] -> ())
    (Repo.all_design_objects repo);
  let keys =
    List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups [])
  in
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun key ->
      let chain = Hashtbl.find groups key in
      if List.length chain > 1 then begin
        let steps =
          List.map
            (fun o ->
              let by =
                match Decision.justifying_decision repo o with
                | Some dec -> Printf.sprintf "%s[%s]" (Symbol.name o) (Symbol.name dec)
                | None -> Symbol.name o
              in
              by)
            chain
        in
        Format.fprintf ppf "%s@," (String.concat " ==> " steps)
      end)
    keys;
  Format.fprintf ppf "@]"
