module Tdl = Langs.Taxis_dl
module Dbpl = Langs.Dbpl

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

let ok_list = function
  | Ok v -> v
  | Error es -> Alcotest.failf "unexpected errors: %s" (String.concat "; " es)

(* the §2.1 document design, reused everywhere *)
let design () = Gkbms.Scenario.meeting_design_v2

(* TaxisDL ----------------------------------------------------------------- *)

let test_tdl_queries () =
  let d = design () in
  check bool "find" true (Tdl.find_class d "Papers" <> None);
  check Alcotest.(list string) "subclasses"
    [ "Invitations"; "Minutes" ]
    (List.sort String.compare
       (List.map (fun c -> c.Tdl.cls_name) (Tdl.subclasses d "Papers")));
  check Alcotest.(list string) "leaves of Papers"
    [ "Invitations"; "Minutes" ]
    (List.sort String.compare
       (List.map (fun c -> c.Tdl.cls_name) (Tdl.leaves d "Papers")));
  check Alcotest.(list string) "leaf of leaf" [ "Minutes" ]
    (List.map (fun c -> c.Tdl.cls_name) (Tdl.leaves d "Minutes"))

let test_tdl_inherited_attrs () =
  let d = design () in
  let inv = Option.get (Tdl.find_class d "Invitations") in
  let attrs = List.map (fun a -> a.Tdl.attr_name) (Tdl.all_attrs d inv) in
  check Alcotest.(list string) "own + inherited"
    [ "author"; "date"; "receivers"; "sender" ]
    (List.sort String.compare attrs)

let test_tdl_attr_shadowing () =
  let d =
    {
      Tdl.design_name = "Shadow";
      classes =
        [
          Tdl.entity_class ~attrs:[ Tdl.attribute "x" "Base" ] "Top";
          Tdl.entity_class ~supers:[ "Top" ]
            ~attrs:[ Tdl.attribute "x" "Refined" ]
            "Sub";
        ];
      transactions = [];
    }
  in
  let sub = Option.get (Tdl.find_class d "Sub") in
  match Tdl.all_attrs d sub with
  | [ a ] -> check Alcotest.string "redefinition shadows" "Refined" a.Tdl.target
  | l -> Alcotest.failf "expected one attribute, got %d" (List.length l)

let test_tdl_set_valued () =
  let d = design () in
  let inv = Option.get (Tdl.find_class d "Invitations") in
  check Alcotest.(list string) "set-valued" [ "receivers" ]
    (List.map (fun a -> a.Tdl.attr_name) (Tdl.set_valued inv))

let test_tdl_validate_ok () =
  ok_list (Tdl.validate (design ()))

let test_tdl_validate_errors () =
  let bad =
    {
      Tdl.design_name = "Bad";
      classes =
        [
          Tdl.entity_class ~supers:[ "Ghost" ] ~key:[ "nokey" ] "A";
          Tdl.entity_class "A";
        ];
      transactions =
        [ { Tdl.tx_name = "T"; on_class = "Missing"; params = []; body = [] } ];
    }
  in
  match Tdl.validate bad with
  | Ok () -> Alcotest.fail "invalid design accepted"
  | Error es ->
    check bool "undefined super" true
      (List.exists (contains "undefined superclass Ghost") es);
    check bool "duplicate class" true
      (List.exists (contains "duplicate class A") es);
    check bool "missing key" true
      (List.exists (contains "key attribute nokey") es);
    check bool "tx class" true
      (List.exists (contains "undefined class Missing") es)

let test_tdl_validate_cycle () =
  let cyc =
    {
      Tdl.design_name = "Cyc";
      classes =
        [
          Tdl.entity_class ~supers:[ "B" ] "A";
          Tdl.entity_class ~supers:[ "A" ] "B";
        ];
      transactions = [];
    }
  in
  match Tdl.validate cyc with
  | Ok () -> Alcotest.fail "cyclic IsA accepted"
  | Error es -> check bool "cycle reported" true (List.exists (contains "cyclic") es)

let test_tdl_print_parse_roundtrip () =
  let d = design () in
  let text = Format.asprintf "%a" Tdl.pp_design d in
  let d' = ok (Tdl.parse text) in
  check Alcotest.string "name" d.Tdl.design_name d'.Tdl.design_name;
  check int "classes" (List.length d.Tdl.classes) (List.length d'.Tdl.classes);
  check int "transactions"
    (List.length d.Tdl.transactions)
    (List.length d'.Tdl.transactions);
  let inv = Option.get (Tdl.find_class d' "Invitations") in
  check Alcotest.(list string) "supers kept" [ "Papers" ] inv.Tdl.supers;
  check bool "set-valued kept" true
    (List.exists
       (fun a -> a.Tdl.attr_name = "receivers" && a.Tdl.kind = Tdl.SetOf)
       inv.Tdl.attrs);
  let tx = List.hd d'.Tdl.transactions in
  check Alcotest.(list (pair string string)) "params kept"
    [ ("rcv", "Person") ] tx.Tdl.params;
  check int "body lines kept" 2 (List.length tx.Tdl.body)

let test_tdl_parse_key () =
  let src =
    "Design D\n\nEntityClass P with\n  attrs\n    d : Date\n    a : Person\n  key d, a\nend\n"
  in
  let d = ok (Tdl.parse src) in
  let p = Option.get (Tdl.find_class d "P") in
  check Alcotest.(list string) "key parsed" [ "d"; "a" ] p.Tdl.key

let test_tdl_parse_errors () =
  (match Tdl.parse "NotADesign X" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing Design keyword accepted");
  match Tdl.parse "Design D\nEntityClass P with\n  attrs\n    x :\nend" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed attribute accepted"

let test_tdl_comments_ignored () =
  let src = "Design D -- the design\nEntityClass P with -- class\nend\n" in
  let d = ok (Tdl.parse src) in
  check int "one class" 1 (List.length d.Tdl.classes)

let test_tdl_to_frames () =
  let frames = Tdl.to_frames (design ()) in
  (* three classes + one transaction *)
  check int "frame count" 4 (List.length frames);
  let inv =
    List.find (fun f -> f.Cml.Object_processor.name = "Invitations") frames
  in
  check Alcotest.(list string) "classified" [ "TDL_EntityClass" ]
    inv.Cml.Object_processor.classes;
  check Alcotest.(list string) "supers" [ "Papers" ] inv.Cml.Object_processor.supers

(* DBPL ---------------------------------------------------------------------- *)

let sample_module () =
  let rel =
    Dbpl.relation ~key:[ "paperkey" ] ~name:"InvitationRel"
      ~rec_name:"InvitationType"
      [
        Dbpl.field "paperkey" Dbpl.Surrogate;
        Dbpl.field "sender" (Dbpl.Named "Person");
        Dbpl.field "receivers" (Dbpl.SetOf (Dbpl.Named "Person"));
      ]
  in
  let con =
    {
      Dbpl.con_name = "ConsPaper";
      con_fields = [ Dbpl.field "paperkey" Dbpl.Surrogate ];
      def = Dbpl.Project (Dbpl.Rel "InvitationRel", [ "paperkey" ]);
    }
  in
  let sel =
    {
      Dbpl.sel_name = "InvitationIC";
      ranges = [ ("r", "InvitationRel") ];
      predicate = "r.paperkey <> NIL";
      sem = Some (Dbpl.Key_unique { rel = "InvitationRel"; key = [ "paperkey" ] });
    }
  in
  let tx =
    {
      Dbpl.tx_name = "AddInvitation";
      params = [ ("s", "Person") ];
      body =
        [
          Dbpl.Insert ("InvitationRel", [ ("sender", "s") ]);
          Dbpl.Delete ("InvitationRel", "sender = NIL");
          Dbpl.Update ("InvitationRel", [ ("sender", "s") ], "TRUE");
          Dbpl.Call "Commit";
        ];
    }
  in
  {
    (Dbpl.empty_module "Meeting") with
    Dbpl.relations = [ rel ];
    constructors = [ con ];
    selectors = [ sel ];
    transactions = [ tx ];
  }

let test_dbpl_validate_ok () = ok_list (Dbpl.validate (sample_module ()))

let test_dbpl_validate_errors () =
  let m = sample_module () in
  let bad_key =
    {
      m with
      Dbpl.relations =
        [
          Dbpl.relation ~key:[ "ghost" ] ~name:"R" ~rec_name:"RT"
            [ Dbpl.field "a" (Dbpl.Named "X") ];
          Dbpl.relation ~key:[ "s" ] ~name:"R2" ~rec_name:"R2T"
            [ Dbpl.field "s" (Dbpl.SetOf (Dbpl.Named "X")) ];
        ];
      constructors =
        [ { Dbpl.con_name = "C"; con_fields = []; def = Dbpl.Rel "Nowhere" } ];
      selectors =
        [ { Dbpl.sel_name = "S"; ranges = [ ("r", "Gone") ]; predicate = "x";
            sem = None } ];
      transactions =
        [ { Dbpl.tx_name = "T"; params = []; body = [ Dbpl.Insert ("Nope", []) ] } ];
    }
  in
  match Dbpl.validate bad_key with
  | Ok () -> Alcotest.fail "invalid module accepted"
  | Error es ->
    check bool "missing key field" true
      (List.exists (contains "key field ghost missing") es);
    check bool "set-valued key" true
      (List.exists (contains "key field s is set-valued") es);
    check bool "constructor source" true
      (List.exists (contains "unknown source Nowhere") es);
    check bool "selector range" true (List.exists (contains "unknown relation Gone") es);
    check bool "tx relation" true (List.exists (contains "unknown relation Nope") es)

let test_dbpl_set_valued_fields () =
  let m = sample_module () in
  let r = Option.get (Dbpl.find_relation m "InvitationRel") in
  check Alcotest.(list string) "set fields" [ "receivers" ]
    (List.map (fun f -> f.Dbpl.field_name) (Dbpl.set_valued_fields r))

let test_dbpl_expr_sources () =
  let e =
    Dbpl.Union
      ( Dbpl.Project (Dbpl.Rel "A", [ "x" ]),
        Dbpl.Nest (Dbpl.NatJoin (Dbpl.Rel "B", Dbpl.Rel "C"), [ "y" ], "y") )
  in
  check Alcotest.(list string) "sources" [ "A"; "B"; "C" ]
    (List.sort String.compare (Dbpl.rel_expr_sources e))

let test_dbpl_pp_code_frame () =
  let text = Format.asprintf "%a" Dbpl.pp_module (sample_module ()) in
  check bool "module header" true (contains "MODULE Meeting;" text);
  check bool "record type" true (contains "TYPE InvitationType = RECORD" text);
  check bool "surrogate" true (contains "paperkey : Surrogate;" text);
  check bool "set of" true (contains "receivers : SET OF Person;" text);
  check bool "keyed relation" true
    (contains "VAR InvitationRel : RELATION paperkey OF InvitationType;" text);
  check bool "constructor" true (contains "CONSTRUCTOR ConsPaper =" text);
  check bool "selector" true (contains "SELECTOR InvitationIC =" text);
  check bool "transaction" true (contains "TRANSACTION AddInvitation(s : Person);" text);
  check bool "insert" true (contains "InvitationRel :+ [sender = s];" text);
  check bool "end" true (contains "END Meeting." text)

(* CML frames ------------------------------------------------------------------ *)

let test_cml_frames_parse () =
  let src =
    "Class Invitation in TDL_EntityClass isA Paper with\n\
    \  attribute\n\
    \    sender : Person\n\
    \  FROM\n\
    \    origin : Meeting\n\
     end\n\n\
     Object jarke in Person end\n"
  in
  let frames = ok (Langs.Cml_frames.parse src) in
  check int "two frames" 2 (List.length frames);
  let inv = List.hd frames in
  check Alcotest.string "name" "Invitation" inv.Cml.Object_processor.name;
  check Alcotest.(list string) "classes" [ "TDL_EntityClass" ]
    inv.Cml.Object_processor.classes;
  check Alcotest.(list string) "supers" [ "Paper" ] inv.Cml.Object_processor.supers;
  check int "attrs" 2 (List.length inv.Cml.Object_processor.attrs);
  let from_attr =
    List.find
      (fun a -> a.Cml.Object_processor.label = "origin")
      inv.Cml.Object_processor.attrs
  in
  check bool "category captured" true
    (from_attr.Cml.Object_processor.category = Some "FROM")

let test_cml_frames_roundtrip_via_pp () =
  let f =
    Cml.Object_processor.frame ~classes:[ "TDL_EntityClass" ]
      ~supers:[ "Paper" ]
      ~attrs:[ ("sender", "Person") ]
      "Invitation"
  in
  let text = Format.asprintf "%a" Cml.Object_processor.pp f in
  let frames = ok (Langs.Cml_frames.parse text) in
  match frames with
  | [ g ] ->
    check bool "roundtrip" true (Cml.Object_processor.equal_modulo_order f g)
  | _ -> Alcotest.fail "expected one frame"

let test_cml_frames_load () =
  let kb = Cml.Kb.create () in
  ignore (ok (Cml.Kb.declare kb "TDL_EntityClass"));
  ignore (ok (Cml.Kb.declare kb "Person"));
  let ids =
    ok
      (Langs.Cml_frames.load kb
         "Class Paper in TDL_EntityClass end\n\
          Class Invitation in TDL_EntityClass isA Paper with\n\
         \  attribute\n\
         \    sender : Person\n\
          end\n")
  in
  check int "two objects" 2 (List.length ids);
  check bool "isa stored" true
    (Cml.Kb.is_instance kb ~inst:(Kernel.Symbol.intern "Invitation")
       ~cls:(Kernel.Symbol.intern "TDL_EntityClass"))

let test_cml_frames_error () =
  match Langs.Cml_frames.parse "Klass X end" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad keyword accepted"

let suite =
  [
    ("tdl queries", `Quick, test_tdl_queries);
    ("tdl inherited attrs", `Quick, test_tdl_inherited_attrs);
    ("tdl attr shadowing", `Quick, test_tdl_attr_shadowing);
    ("tdl set-valued", `Quick, test_tdl_set_valued);
    ("tdl validate ok", `Quick, test_tdl_validate_ok);
    ("tdl validate errors", `Quick, test_tdl_validate_errors);
    ("tdl validate cycle", `Quick, test_tdl_validate_cycle);
    ("tdl print/parse roundtrip", `Quick, test_tdl_print_parse_roundtrip);
    ("tdl parse key", `Quick, test_tdl_parse_key);
    ("tdl parse errors", `Quick, test_tdl_parse_errors);
    ("tdl comments ignored", `Quick, test_tdl_comments_ignored);
    ("tdl to frames", `Quick, test_tdl_to_frames);
    ("dbpl validate ok", `Quick, test_dbpl_validate_ok);
    ("dbpl validate errors", `Quick, test_dbpl_validate_errors);
    ("dbpl set-valued fields", `Quick, test_dbpl_set_valued_fields);
    ("dbpl expr sources", `Quick, test_dbpl_expr_sources);
    ("dbpl code frame", `Quick, test_dbpl_pp_code_frame);
    ("cml frames parse", `Quick, test_cml_frames_parse);
    ("cml frames roundtrip", `Quick, test_cml_frames_roundtrip_via_pp);
    ("cml frames load", `Quick, test_cml_frames_load);
    ("cml frames error", `Quick, test_cml_frames_error);
  ]
