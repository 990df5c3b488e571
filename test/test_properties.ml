(* Cross-cutting property-based tests: algebraic laws of the DBPL
   evaluator, random round-trips of the persistence codecs and the
   assertion-language printers, and invariants of the version machinery. *)

module Dbpl = Langs.Dbpl
module Ev = Langs.Dbpl_eval
module S = Kernel.Sexp

open Helpers

(* --- a small random database over one fixed schema ------------------- *)

let schema =
  let r1 =
    Dbpl.relation ~name:"A" ~rec_name:"AT"
      [ Dbpl.field "x" (Dbpl.Named "Int"); Dbpl.field "y" (Dbpl.Named "Int") ]
  in
  let r2 =
    Dbpl.relation ~name:"B" ~rec_name:"BT"
      [ Dbpl.field "y" (Dbpl.Named "Int"); Dbpl.field "z" (Dbpl.Named "Int") ]
  in
  { (Dbpl.empty_module "Props") with Dbpl.relations = [ r1; r2 ] }

let db_of (pairs_a, pairs_b) =
  let db = ok (Ev.create schema) in
  List.iter
    (fun (x, y) ->
      ignore (Ev.insert db ~rel:"A" [ ("x", Ev.Int x); ("y", Ev.Int y) ]))
    pairs_a;
  List.iter
    (fun (y, z) ->
      ignore (Ev.insert db ~rel:"B" [ ("y", Ev.Int y); ("z", Ev.Int z) ]))
    pairs_b;
  db

let gen_pairs = QCheck.(list_of_size (Gen.int_range 0 12) (pair (int_range 0 4) (int_range 0 4)))
let gen_db = QCheck.pair gen_pairs gen_pairs

let eval db e = ok (Ev.eval_expr db e)

let prop_union_commutative =
  QCheck.Test.make ~name:"dbpl union is commutative" ~count:60 gen_db
    (fun input ->
      let db = db_of input in
      eval db (Dbpl.Union (Dbpl.Rel "A", Dbpl.Rel "A"))
      = eval db (Dbpl.Rel "A")
      && eval db
           (Dbpl.Union
              ( Dbpl.Project (Dbpl.Rel "A", [ "y" ]),
                Dbpl.Project (Dbpl.Rel "B", [ "y" ]) ))
         = eval db
             (Dbpl.Union
                ( Dbpl.Project (Dbpl.Rel "B", [ "y" ]),
                  Dbpl.Project (Dbpl.Rel "A", [ "y" ]) )))

let prop_project_idempotent =
  QCheck.Test.make ~name:"dbpl projection is idempotent" ~count:60 gen_db
    (fun input ->
      let db = db_of input in
      let once = eval db (Dbpl.Project (Dbpl.Rel "A", [ "x" ])) in
      let twice =
        eval db (Dbpl.Project (Dbpl.Project (Dbpl.Rel "A", [ "x" ]), [ "x" ]))
      in
      once = twice)

let prop_join_subset_of_cross =
  QCheck.Test.make ~name:"dbpl join cardinality bounded by product" ~count:60
    gen_db (fun input ->
      let db = db_of input in
      let joined = eval db (Dbpl.NatJoin (Dbpl.Rel "A", Dbpl.Rel "B")) in
      List.length joined
      <= Ev.cardinality db "A" * Ev.cardinality db "B")

let prop_join_with_self_identity =
  QCheck.Test.make ~name:"dbpl self-join is identity" ~count:60 gen_db
    (fun input ->
      let db = db_of input in
      eval db (Dbpl.NatJoin (Dbpl.Rel "A", Dbpl.Rel "A")) = eval db (Dbpl.Rel "A"))

let prop_nest_preserves_groups =
  QCheck.Test.make ~name:"dbpl nest groups cover the input" ~count:60 gen_db
    (fun input ->
      let db = db_of input in
      let nested = eval db (Dbpl.Nest (Dbpl.Rel "A", [ "y" ], "ys")) in
      (* one group per distinct x value *)
      let xs =
        List.sort_uniq compare
          (List.filter_map (fun t -> List.assoc_opt "x" t) (eval db (Dbpl.Rel "A")))
      in
      List.length nested = List.length xs)

(* --- persistence codecs ------------------------------------------------ *)

let gen_name = QCheck.(string_gen_of_size (Gen.int_range 1 8) (Gen.char_range 'a' 'z'))

let gen_tdl_class =
  QCheck.map
    (fun (name, attrs, key_first) ->
      let attrs =
        List.mapi
          (fun i (a, set) ->
            Langs.Taxis_dl.attribute
              ~kind:(if set then Langs.Taxis_dl.SetOf else Langs.Taxis_dl.Single)
              (Printf.sprintf "%s%d" a i)
              "T")
          attrs
      in
      let key =
        if key_first then
          match attrs with
          | a :: _ when a.Langs.Taxis_dl.kind = Langs.Taxis_dl.Single ->
            [ a.Langs.Taxis_dl.attr_name ]
          | _ -> []
        else []
      in
      Langs.Taxis_dl.entity_class ~attrs ~key ("C_" ^ name))
    QCheck.(triple gen_name (list_of_size (Gen.int_range 0 5) (pair gen_name bool)) bool)

let prop_tdl_class_codec =
  QCheck.Test.make ~name:"persist codec round-trips TaxisDL classes" ~count:80
    gen_tdl_class (fun cls ->
      match
        Gkbms.Persist.artifact_of_sexp
          (Gkbms.Persist.sexp_of_artifact (Gkbms.Repository.Tdl_class cls))
      with
      | Ok (Gkbms.Repository.Tdl_class cls') -> cls = cls'
      | _ -> false)

let prop_text_codec =
  QCheck.Test.make ~name:"persist codec round-trips arbitrary text" ~count:80
    QCheck.(string_gen Gen.printable)
    (fun text ->
      match
        Gkbms.Persist.artifact_of_sexp
          (Gkbms.Persist.sexp_of_artifact (Gkbms.Repository.Text text))
      with
      | Ok (Gkbms.Repository.Text text') -> text = text'
      | _ -> false)

let prop_sexp_roundtrip =
  let rec gen_sexp depth =
    let open QCheck.Gen in
    if depth = 0 then map (fun s -> S.Atom s) (string_size ~gen:printable (int_range 0 6))
    else
      frequency
        [ (3, map (fun s -> S.Atom s) (string_size ~gen:printable (int_range 0 6)));
          (1, map (fun l -> S.List l) (list_size (int_range 0 4) (gen_sexp (depth - 1)))) ]
  in
  QCheck.Test.make ~name:"sexp printer/parser round-trip" ~count:120
    (QCheck.make (gen_sexp 3))
    (fun sexp ->
      match S.parse (S.to_string sexp) with
      | Ok sexp' -> sexp = sexp'
      | Error _ -> false)

(* atoms drawn mostly from the bytes the printer must quote or escape,
   empty atoms included *)
let prop_sexp_roundtrip_awkward =
  let atom =
    QCheck.Gen.(
      map (fun s -> S.Atom s)
        (string_size
           ~gen:(oneofl [ 'a'; 'Z'; '"'; '\\'; '\n'; ' '; '\t'; '('; ')'; ';' ])
           (int_range 0 5)))
  in
  let rec gen_sexp depth =
    let open QCheck.Gen in
    if depth = 0 then atom
    else
      frequency
        [ (2, atom);
          (1, map (fun l -> S.List l) (list_size (int_range 0 4) (gen_sexp (depth - 1)))) ]
  in
  QCheck.Test.make ~name:"sexp round-trips quotes, backslashes, newlines, spaces"
    ~count:200
    (QCheck.make ~print:S.to_string (gen_sexp 3))
    (fun sexp -> S.parse (S.to_string sexp) = Ok sexp)

(* --- version machinery -------------------------------------------------- *)

let edit_chain n =
  let repo = Gkbms.Repository.create () in
  Gkbms.Mapping.register_tools repo;
  let seed =
    ok
      (Gkbms.Repository.new_object repo ~name:"Doc"
         ~cls:Gkbms.Metamodel.dbpl_object (Gkbms.Repository.Text "v0"))
  in
  let current = ref seed in
  for i = 1 to n do
    let executed =
      ok
        (Gkbms.Decision.execute repo
           ~decision_class:Gkbms.Metamodel.dec_manual_edit
           ~tool:Gkbms.Mapping.editor_tool
           ~inputs:[ ("object", !current) ]
           ~params:[ ("text", Printf.sprintf "v%d" i) ]
           ~rationale:"prop test" ())
    in
    match List.assoc_opt "edited" executed.Gkbms.Decision.outputs with
    | Some o -> current := o
    | None -> Alcotest.fail "edit chain: no output"
  done;
  repo

let prop_version_chain_linear =
  QCheck.Test.make ~name:"version chains are linear and current-terminated"
    ~count:12
    QCheck.(int_range 1 8)
    (fun n ->
      let repo = edit_chain n in
      let chain =
        Gkbms.Version.version_chain repo (Kernel.Symbol.intern "Doc")
      in
      List.length chain = n + 1
      && Gkbms.Version.is_current repo (List.nth chain n)
      && List.for_all
           (fun v -> not (Gkbms.Version.is_current repo v))
           (List.filteri (fun i _ -> i < n) chain))

let suite =
  [
    QCheck_alcotest.to_alcotest prop_union_commutative;
    QCheck_alcotest.to_alcotest prop_project_idempotent;
    QCheck_alcotest.to_alcotest prop_join_subset_of_cross;
    QCheck_alcotest.to_alcotest prop_join_with_self_identity;
    QCheck_alcotest.to_alcotest prop_nest_preserves_groups;
    QCheck_alcotest.to_alcotest prop_tdl_class_codec;
    QCheck_alcotest.to_alcotest prop_text_codec;
    QCheck_alcotest.to_alcotest prop_sexp_roundtrip;
    QCheck_alcotest.to_alcotest prop_sexp_roundtrip_awkward;
    QCheck_alcotest.to_alcotest prop_version_chain_linear;
  ]
