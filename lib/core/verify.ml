open Kernel
module Repo = Repository
module Dbpl = Langs.Dbpl
module Ev = Langs.Dbpl_eval

type verdict = { obligation : string; passed : bool; evidence : string }

let pp_verdict ppf v =
  Format.fprintf ppf "%s: %s (%s)" v.obligation
    (if v.passed then "PASSED" else "FAILED")
    v.evidence

let err fmt = Format.kasprintf (fun s -> Error s) fmt
let ( let* ) = Result.bind

(* deterministic synthetic extensions ----------------------------------- *)

let rec synth_value ~seed ~row (ty : Dbpl.ty) field =
  match ty with
  | Dbpl.Surrogate -> Ev.Sur ((seed * 1000) + row)
  | Dbpl.Named t -> Ev.Str (Printf.sprintf "%s_%d_%d" t seed row)
  | Dbpl.SetOf elem ->
    (* always non-empty: one or two members depending on the row *)
    let size = 1 + ((row + seed) mod 2) in
    Ev.vset
      (List.init size (fun k ->
           synth_value ~seed:(seed + k + 1) ~row elem field))

let synthesize_tuples (r : Dbpl.relation) ~n ~seed =
  List.init n (fun row ->
      Ev.normalize_tuple
        (List.map
           (fun (f : Dbpl.field) ->
             (f.Dbpl.field_name, synth_value ~seed ~row f.Dbpl.field_ty f))
           r.Dbpl.fields))

(* artifact plumbing ------------------------------------------------------ *)

let output_artifacts repo dec =
  List.filter_map
    (fun (role, obj) ->
      match Repo.artifact repo obj with
      | Some a -> Some (role, obj, a)
      | None -> None)
    (Decision.outputs_of repo dec)

let module_of_outputs repo dec ~name =
  let m =
    List.fold_left
      (fun m (_, _, a) ->
        match a with
        | Repo.Dbpl_rel r -> { m with Dbpl.relations = r :: m.Dbpl.relations }
        | Repo.Dbpl_con c ->
          { m with Dbpl.constructors = c :: m.Dbpl.constructors }
        | Repo.Dbpl_sel s -> { m with Dbpl.selectors = s :: m.Dbpl.selectors }
        | Repo.Dbpl_tx tx ->
          { m with Dbpl.transactions = tx :: m.Dbpl.transactions }
        | _ -> m)
      (Dbpl.empty_module name)
      (output_artifacts repo dec)
  in
  {
    m with
    Dbpl.relations = List.rev m.Dbpl.relations;
    constructors = List.rev m.Dbpl.constructors;
    selectors = List.rev m.Dbpl.selectors;
  }

let input_relation repo dec =
  List.find_map
    (fun (_, obj) ->
      match Repo.artifact repo obj with
      | Some (Repo.Dbpl_rel r) -> Some r
      | _ -> None)
    (Decision.inputs_of repo dec)

(* split an unnormalized tuple for the normalized pair ------------------- *)

let split_tuple ~set_field (t : Ev.tuple) =
  let set_values =
    match List.assoc_opt set_field t with
    | Some (Ev.VSet vs) -> vs
    | Some v -> [ v ]
    | None -> []
  in
  let flat = List.remove_assoc set_field t in
  (flat, set_values)

let populate_normalized db ~norm ~child ~set_field ~key tuples =
  List.fold_left
    (fun acc t ->
      let* () = acc in
      let flat, set_values = split_tuple ~set_field t in
      let* () = Ev.insert db ~rel:norm flat in
      let key_part = List.filter (fun (f, _) -> List.mem f key) flat in
      List.fold_left
        (fun acc v ->
          let* () = acc in
          Ev.insert db ~rel:child
            (Ev.normalize_tuple ((set_field, v) :: key_part)))
        (Ok ()) set_values)
    (Ok ()) tuples

(* the three formal checks ------------------------------------------------ *)

let check_lossless repo dec ~population =
  let* orig =
    match input_relation repo dec with
    | Some r -> Ok r
    | None -> err "decision has no relation input artifact"
  in
  let* set_field =
    match Dbpl.set_valued_fields orig with
    | f :: _ -> Ok f.Dbpl.field_name
    | [] -> err "input relation has no set-valued field"
  in
  let m = module_of_outputs repo dec ~name:"LosslessCheck" in
  let* norm, child =
    match m.Dbpl.relations with
    | [ a; b ] ->
      (* the normalized main relation keeps the original key exactly *)
      if a.Dbpl.key = orig.Dbpl.key then Ok (a, b) else Ok (b, a)
    | other -> err "expected two normalized relations, got %d" (List.length other)
  in
  let* con =
    match m.Dbpl.constructors with
    | [ c ] -> Ok c
    | other -> err "expected one reconstruction constructor, got %d" (List.length other)
  in
  let* db = Ev.create m in
  let originals = synthesize_tuples orig ~n:population ~seed:1 in
  let* () =
    populate_normalized db ~norm:norm.Dbpl.rel_name ~child:child.Dbpl.rel_name
      ~set_field ~key:orig.Dbpl.key originals
  in
  let* reconstructed = Ev.eval_constructor db con.Dbpl.con_name in
  let canon ts = List.sort compare (List.map Ev.normalize_tuple ts) in
  let passed = canon reconstructed = canon originals in
  Ok
    {
      obligation = "reconstruction-constructor-lossless";
      passed;
      evidence =
        Printf.sprintf
          "populated %d unnormalized tuples; %s reconstructed %d of them"
          (List.length originals) con.Dbpl.con_name (List.length reconstructed);
    }

let check_ref_integrity repo dec ~population =
  let* orig =
    match input_relation repo dec with
    | Some r -> Ok r
    | None -> err "decision has no relation input artifact"
  in
  let* set_field =
    match Dbpl.set_valued_fields orig with
    | f :: _ -> Ok f.Dbpl.field_name
    | [] -> err "input relation has no set-valued field"
  in
  let m = module_of_outputs repo dec ~name:"RefIntegrityCheck" in
  let* sel =
    match m.Dbpl.selectors with
    | [ s ] -> Ok s
    | other -> err "expected one selector, got %d" (List.length other)
  in
  let* norm, child =
    match m.Dbpl.relations with
    | [ a; b ] -> if a.Dbpl.key = orig.Dbpl.key then Ok (a, b) else Ok (b, a)
    | other -> err "expected two normalized relations, got %d" (List.length other)
  in
  let* db = Ev.create m in
  let originals = synthesize_tuples orig ~n:population ~seed:2 in
  let* () =
    populate_normalized db ~norm:norm.Dbpl.rel_name ~child:child.Dbpl.rel_name
      ~set_field ~key:orig.Dbpl.key originals
  in
  let* holds_when_consistent = Ev.check_selector db sel in
  (* delete one parent: the selector must now be violated *)
  let removed = ref 0 in
  let* _ =
    Ev.delete db ~rel:norm.Dbpl.rel_name (fun _ ->
        incr removed;
        !removed = 1)
  in
  let* holds_after_breakage = Ev.check_selector db sel in
  let passed = holds_when_consistent && not holds_after_breakage in
  Ok
    {
      obligation = "referential-integrity-selector-correct";
      passed;
      evidence =
        Printf.sprintf
          "selector %s: holds on consistent split = %b, detects a deleted \
           parent = %b"
          sel.Dbpl.sel_name holds_when_consistent (not holds_after_breakage);
    }

let check_extension_preserved repo dec ~population =
  let m = module_of_outputs repo dec ~name:"ExtensionCheck" in
  if m.Dbpl.constructors = [] && m.Dbpl.relations = [] then
    err "decision produced no DBPL artifacts"
  else
    let* db = Ev.create m in
    let* () =
      List.fold_left
        (fun acc (i, (r : Dbpl.relation)) ->
          let* () = acc in
          List.fold_left
            (fun acc t ->
              let* () = acc in
              Ev.insert db ~rel:r.Dbpl.rel_name t)
            (Ok ())
            (synthesize_tuples r ~n:population ~seed:(i + 10)))
        (Ok ())
        (List.mapi (fun i r -> (i, r)) m.Dbpl.relations)
    in
    let* all_ok =
      List.fold_left
        (fun acc (c : Dbpl.constructor_) ->
          let* acc = acc in
          let* extent = Ev.eval_constructor db c.Dbpl.con_name in
          let sources = Dbpl.rel_expr_sources c.Dbpl.def in
          let base_total =
            List.fold_left
              (fun sum src ->
                if List.exists (fun r -> r.Dbpl.rel_name = src) m.Dbpl.relations
                then sum + Ev.cardinality db src
                else sum)
              0 sources
          in
          Ok (acc && List.length extent = base_total))
        (Ok true) m.Dbpl.constructors
    in
    Ok
      {
        obligation = "mapping-preserves-extension";
        passed = all_ok;
        evidence =
          Printf.sprintf
            "populated %d relations with %d tuples each; every constructor's \
             extension matches the union of its sources"
            (List.length m.Dbpl.relations)
            population;
      }

(* public entry points ----------------------------------------------------- *)

let check_obligation repo ~decision ~obligation ?(population = 8) () =
  if not (Repo.is_logged repo decision) then
    err "%s is not an executed decision" (Symbol.name decision)
  else
    match obligation with
    | "reconstruction-constructor-lossless" ->
      check_lossless repo decision ~population
    | "referential-integrity-selector-correct" ->
      check_ref_integrity repo decision ~population
    | "mapping-preserves-extension" ->
      check_extension_preserved repo decision ~population
    | other -> err "no formal check available for obligation %s" other

let discharge repo ~decision ~obligation ?population () =
  let* verdict = check_obligation repo ~decision ~obligation ?population () in
  if not verdict.passed then
    err "formal check failed: %s" verdict.evidence
  else
    let* () =
      Decision.discharge_obligation repo ~decision ~obligation
        ~how:("verified formally: " ^ verdict.evidence)
    in
    Ok verdict
