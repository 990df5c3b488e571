open Kernel
module S = Sexp
module Repo = Gkbms.Repository
module P = Gkbms.Persist
module Scn = Gkbms.Scenario
module Dbpl = Langs.Dbpl

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

open Helpers

(* sexp ------------------------------------------------------------------- *)

let test_sexp_roundtrip () =
  let cases =
    [
      S.Atom "plain";
      S.Atom "needs quoting";
      S.Atom "with \"quotes\" and \\ and\nnewline";
      S.Atom "";
      S.List [ S.Atom "a"; S.List [ S.Atom "b"; S.Atom "c" ]; S.Atom "d" ];
      S.List [];
    ]
  in
  List.iter
    (fun sexp ->
      let printed = S.to_string sexp in
      match S.parse printed with
      | Ok sexp' -> check bool printed true (sexp = sexp')
      | Error e -> Alcotest.failf "%s: %s" printed e)
    cases

let test_sexp_parse_errors () =
  List.iter
    (fun src ->
      match S.parse src with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S parsed" src)
    [ "("; ")"; "\"unterminated"; "a b" (* two expressions *); "" ]

let test_sexp_comments () =
  match S.parse "; a comment\n(a b) ; trailing" with
  | Ok (S.List [ S.Atom "a"; S.Atom "b" ]) -> ()
  | Ok s -> Alcotest.failf "unexpected %s" (S.to_string s)
  | Error e -> Alcotest.fail e

let test_sexp_fields () =
  let s = ok (S.parse "(rec (name X) (key a b))") in
  check Alcotest.string "field" "X" (ok (Result.bind (S.field s "name") S.as_atom));
  check bool "missing field" true (Result.is_error (S.field s "nope"))

(* artifact codecs ----------------------------------------------------------- *)

let artifact_roundtrip a =
  match P.artifact_of_sexp (P.sexp_of_artifact a) with
  | Ok a' -> a = a'
  | Error _ -> false

let test_artifact_codecs () =
  let rel =
    Dbpl.relation ~key:[ "k" ] ~name:"R" ~rec_name:"RT"
      [ Dbpl.field "k" Dbpl.Surrogate;
        Dbpl.field "xs" (Dbpl.SetOf (Dbpl.Named "X")) ]
  in
  let artifacts =
    [
      Repo.Tdl_design Scn.meeting_design_v2;
      Repo.Tdl_class Scn.minutes_class;
      Repo.Dbpl_rel rel;
      Repo.Dbpl_con
        {
          Dbpl.con_name = "C";
          con_fields = [ Dbpl.field "k" Dbpl.Surrogate ];
          def =
            Dbpl.Nest
              ( Dbpl.Union
                  ( Dbpl.Project (Dbpl.Rel "R", [ "k" ]),
                    Dbpl.SelectEq (Dbpl.Rel "R", "k", "v") ),
                [ "k" ], "ks" );
        };
      Repo.Dbpl_sel
        {
          Dbpl.sel_name = "S";
          ranges = [ ("r", "R") ];
          predicate = "SOME x (weird \"chars\")";
          sem = Some (Dbpl.Ref_integrity { child = "R"; parent = "P"; key = [ "k" ] });
        };
      Repo.Dbpl_tx
        {
          Dbpl.tx_name = "T";
          params = [ ("p", "X") ];
          body =
            [ Dbpl.Insert ("R", [ ("k", "p") ]); Dbpl.Delete ("R", "TRUE");
              Dbpl.Update ("R", [ ("k", "p") ], "k = p"); Dbpl.Call "Sub" ];
        };
      Repo.Cml_frame
        (Cml.Object_processor.frame ~classes:[ "C" ] ~supers:[ "D" ]
           ~attrs:[ ("a", "B") ] "F");
      Repo.Cml_model [ Cml.Object_processor.frame "G" ];
      Repo.Text "multi\nline \"text\"";
    ]
  in
  List.iteri
    (fun i a ->
      check bool (Printf.sprintf "artifact %d" i) true (artifact_roundtrip a))
    artifacts

let test_artifact_decode_errors () =
  match P.artifact_of_sexp (S.Atom "garbage") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage artifact decoded"

(* repository snapshots -------------------------------------------------------- *)

let test_repository_roundtrip () =
  let st = ok (Scn.run_through_conflict ()) in
  let repo = st.Scn.repo in
  let snapshot = P.save_repository repo in
  let repo2 = ok (P.load_repository snapshot) in
  (* same decisions, same propositions *)
  check Alcotest.(list string) "log preserved"
    (List.map Symbol.name (Repo.decision_log repo))
    (List.map Symbol.name (Repo.decision_log repo2));
  check int "same proposition count"
    (Store.Base.cardinal (Cml.Kb.base (Repo.kb repo)))
    (Store.Base.cardinal (Cml.Kb.base (Repo.kb repo2)));
  (* artifacts render identically *)
  List.iter
    (fun obj ->
      check bool (Symbol.name obj ^ " source preserved") true
        (Repo.source_text repo obj = Repo.source_text repo2 obj))
    (Repo.all_design_objects repo);
  (* the reason maintenance is rebuilt: conflict state survives *)
  check bool "culprit after reload" true
    (Gkbms.Backtrack.suggest_culprit repo2 <> None);
  check Alcotest.(list string) "unsupported objects preserved"
    (List.map Symbol.name (Gkbms.Backtrack.unsupported_objects repo))
    (List.map Symbol.name (Gkbms.Backtrack.unsupported_objects repo2))

let test_loaded_repo_continues () =
  let st = ok (Scn.run_through_conflict ()) in
  let snapshot = P.save_repository st.Scn.repo in
  let repo2 = ok (P.load_repository snapshot) in
  (* selective backtracking works on the reloaded history *)
  let culprit = Option.get (Gkbms.Backtrack.suggest_culprit repo2) in
  let report = ok (Gkbms.Backtrack.retract repo2 culprit ()) in
  check bool "consequences removed" true
    (List.mem "InvitationRel3" report.Gkbms.Backtrack.removed_objects);
  check bool "still consistent" true
    (Cml.Consistency.check_all (Repo.kb repo2) = []);
  (* and fresh decisions get non-colliding ids *)
  let repo3 = ok (P.load_repository snapshot) in
  let executed =
    ok
      (Gkbms.Decision.execute repo3
         ~decision_class:Gkbms.Metamodel.dec_manual_edit
         ~tool:Gkbms.Mapping.editor_tool
         ~inputs:[ ("object", Symbol.intern "InvitationRel") ]
         ~params:[ ("text", "patched") ]
         ())
  in
  check bool "fresh id distinct from history" true
    (not
       (List.mem
          (Symbol.name executed.Gkbms.Decision.decision)
          [ "dec1"; "dec2"; "dec3"; "dec4" ]))

(* A [p<n>] someone chose is serial symbol [n], whose code [2n + 1] can
   lie far past every other code, and past the writer's first-use
   bitset.  The writer must give it a file code a reader accepts
   (below 2^30) without keeping anything per number, and so must it
   for the ids minted after a reload raised the id counter past [n]. *)
let test_snapshot_codes_past_the_bitset () =
  let chosen = "p123456789012" in
  let canonical r = P.save_repository_canonical r in
  (* the counter is process-wide: put it back where it was *)
  let mark = Symbol.serial_number (Prop.fresh_id ()) in
  Fun.protect ~finally:(fun () -> Prop.reset_ids (); Prop.advance_ids mark)
  @@ fun () ->
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let repo = st.Scn.repo in
  ignore
    (ok
       (Repo.new_object repo ~name:chosen ~cls:Gkbms.Metamodel.dbpl_object
          (Repo.Text "chosen")));
  check int "the chosen name is serial" 123456789012
    (Symbol.serial_number (Symbol.intern chosen));
  let bytes = Gc.allocated_bytes () in
  let snapshot = P.save_repository repo in
  let allocated = Gc.allocated_bytes () -. bytes in
  (* ~0.35 MB, its staging buffers; a bit per code up to the chosen
     one would be 30 GB *)
  check bool "the writer keeps nothing per number" true (allocated < 4e6);
  let repo2 = ok (P.load_repository snapshot) in
  check bool "reloaded" true (canonical repo = canonical repo2);
  let edit r =
    ok
      (Gkbms.Decision.execute r ~decision_class:Gkbms.Metamodel.dec_manual_edit
         ~tool:Gkbms.Mapping.editor_tool
         ~inputs:[ ("object", Symbol.intern "InvitationRel") ]
         ~params:[ ("text", "after") ]
         ())
  in
  ignore (edit repo2);
  check bool "ids minted after the reload are numbered past it" true
    (Symbol.serial_number (Prop.fresh_id ()) > 123456789012);
  let repo3 = ok (P.load_repository (P.save_repository repo2)) in
  check bool "reloaded again" true (canonical repo2 = canonical repo3);
  ignore (edit repo3);
  check int "and the history goes on" 2
    (List.length (Repo.decision_log repo3) - List.length (Repo.decision_log repo))

let test_snapshot_rejects_garbage () =
  List.iter
    (fun text ->
      match P.load_repository text with
      | Error e ->
        check Alcotest.string text "not a snapshot: this build reads only GKBSNP2 snapshots" e
      | Ok _ -> Alcotest.failf "%S accepted" text)
    [ "(not-a-repo)"; "(("; "" ]

let test_file_roundtrip () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let path = Filename.temp_file "gkbms" ".repo" in
  ok (P.save_to_file st.Scn.repo path);
  let repo2 = ok (P.load_from_file path) in
  Sys.remove path;
  check int "one decision" 1 (List.length (Repo.decision_log repo2))

(* The text layout, pinned: the canonical writer must print the bytes
   the original whole-string printer built, and a checkpoint in the text
   layout, as written before the binary one, is refused.
   [reference_print] is that printer; the tree is assembled the way the
   original snapshot code assembled it. *)
let rec reference_print = function
  | S.Atom s ->
    let needs_quoting =
      s = ""
      || String.exists
           (fun c ->
             c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '(' || c = ')'
             || c = '"' || c = ';' || c = '\\')
           s
    in
    if not needs_quoting then s
    else
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '"';
      String.iter
        (function
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | c -> Buffer.add_char buf c)
        s;
      Buffer.add_char buf '"';
      Buffer.contents buf
  | S.List l -> "(" ^ String.concat " " (List.map reference_print l) ^ ")"

let reference_snapshot repo =
  let base = Cml.Kb.base (Repo.kb repo) in
  let props =
    String.split_on_char '\n' (Store.Base.to_serialized base)
    |> List.filter (fun l -> l <> "")
    |> List.sort String.compare
    |> fun lines -> String.concat "\n" lines ^ "\n"
  in
  let artifacts =
    List.filter_map
      (fun obj ->
        match Repo.artifact repo obj with
        | Some a -> Some (S.List [ S.Atom (Symbol.name obj); P.sexp_of_artifact a ])
        | None -> None)
      (Store.Base.fold base (fun acc p -> p.Prop.id :: acc) [])
    |> List.sort_uniq compare
  in
  let log = List.map (fun d -> S.Atom (Symbol.name d)) (Repo.decision_log repo) in
  let kv k v = S.List [ S.Atom k; v ] in
  reference_print
    (S.List
       [ S.Atom "gkbms-repository"; kv "version" (S.Atom "1");
         kv "props" (S.Atom props); kv "artifacts" (S.List artifacts);
         kv "log" (S.List log);
         kv "counter" (S.Atom (string_of_int (List.length log))) ])

let test_snapshot_format_pinned () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  let repo = st.Scn.repo in
  let awkward = "say \"hi\" \\ back\tslash\nnext line" in
  ignore
    (ok
       (Repo.new_object repo ~name:"Awkward" ~cls:Gkbms.Metamodel.dbpl_object
          (Repo.Text awkward)));
  ignore
    (ok
       (Gkbms.Decision.execute repo
          ~decision_class:Gkbms.Metamodel.dec_manual_edit
          ~tool:Gkbms.Mapping.editor_tool
          ~inputs:[ ("object", Symbol.intern "Awkward") ]
          ~params:[ ("text", awkward ^ "\n(edited)") ]
          ()));
  (* a proposition whose names need escaping on both levels *)
  ok
    (Store.Base.insert (Cml.Kb.base (Repo.kb repo))
       (Prop.make ~id:(Symbol.intern "odd\"id\\\t\n") ~source:(Symbol.intern "a b")
          ~label:(Symbol.intern "l(;)") ~dest:(Symbol.intern "") ()));
  let text = P.save_repository_canonical repo in
  check Alcotest.string "save_repository_canonical" (reference_snapshot repo) text;
  (* a text checkpoint is refused by both loaders, naming its layout,
     and left as it is *)
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  Unix.mkdir dir 0o755;
  let path = Gkbms.Durable.checkpoint_path dir in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  let refused what = function
    | Ok _ -> Alcotest.failf "%s loaded a text checkpoint" what
    | Error e ->
      check bool (what ^ " names the text layout: " ^ e) true
        (contains "a text snapshot ((gkbms-repository ...))" e)
  in
  refused "load_from_file" (P.load_from_file path);
  refused "Durable.recover" (Gkbms.Durable.recover ~dir ());
  check Alcotest.string "checkpoint unchanged" text
    (In_channel.with_open_bin path In_channel.input_all)

(* qcheck: snapshots round-trip on randomized repositories — a random
   chain of manual edits over the scenario baseline *)
let canon repo =
  List.sort compare
    (String.split_on_char '\n'
       (Store.Base.to_serialized (Cml.Kb.base (Repo.kb repo))))

let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot roundtrips on random repositories" ~count:10
    QCheck.(list_of_size (Gen.int_range 0 4) (pair (int_range 0 999) bool))
    (fun edits ->
      let st = ok (Scn.setup ()) in
      let target = ref st.Scn.design_doc in
      List.iter
        (fun (n, chain) ->
          let executed =
            ok
              (Gkbms.Decision.execute st.Scn.repo
                 ~decision_class:Gkbms.Metamodel.dec_manual_edit
                 ~tool:Gkbms.Mapping.editor_tool
                 ~inputs:[ ("object", !target) ]
                 ~params:[ ("text", Printf.sprintf "edit #%d\n\ttabbed" n) ]
                 ())
          in
          (* sometimes keep editing the new version, sometimes branch *)
          if chain then
            match List.assoc_opt "edited" executed.Gkbms.Decision.outputs with
            | Some v -> target := v
            | None -> ())
        edits;
      let repo2 = ok (P.load_repository (P.save_repository st.Scn.repo)) in
      canon st.Scn.repo = canon repo2
      && List.map Symbol.name (Repo.decision_log st.Scn.repo)
         = List.map Symbol.name (Repo.decision_log repo2)
      && List.for_all
           (fun obj -> Repo.source_text st.Scn.repo obj = Repo.source_text repo2 obj)
           (Repo.all_design_objects st.Scn.repo))

(* qcheck: the binary snapshot round-trips whatever a repository holds —
   awkward names (empty, long, tabs, newlines, quotes, non-ASCII), every
   time form, extreme beliefs, artifacts and a log *)
let artifact_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun s -> Repo.Text s) Test_durability.name_gen;
        map
          (fun (n, c) -> Repo.Cml_frame (Cml.Object_processor.frame ~classes:[ c ] n))
          (pair Test_durability.name_gen Test_durability.name_gen);
        return (Repo.Tdl_design Scn.meeting_design_v2);
      ])

let repo_gen =
  QCheck.Gen.(
    triple
      (list_size (int_range 0 40) Test_durability.prop_gen)
      (list_size (int_range 0 10) (pair nat artifact_gen))
      (list_size (int_range 0 10) Test_durability.name_gen))

let random_repo (props, artifacts, log) =
  let repo = Repo.create () in
  let base = Cml.Kb.base (Repo.kb repo) in
  (* an id already present (a metamodel name, or drawn twice) is skipped *)
  List.iter (fun p -> ignore (Store.Base.insert base p)) props;
  let ids = Array.of_list (Store.Base.fold base (fun acc p -> p.Prop.id :: acc) []) in
  List.iter
    (fun (i, a) -> Repo.set_artifact repo ids.(i mod Array.length ids) a)
    artifacts;
  List.iter (fun d -> Repo.log_decision repo (Symbol.intern d)) log;
  repo

let prop_binary_snapshot_roundtrip =
  QCheck.Test.make ~name:"binary snapshot round-trips awkward repositories"
    ~count:100 (QCheck.make repo_gen) (fun contents ->
      let repo = random_repo contents in
      let loaded =
        ok (P.load_repository ~register_tools:ignore (P.save_repository repo))
      in
      P.save_repository_canonical loaded = P.save_repository_canonical repo
      && List.map Symbol.name (Repo.decision_log loaded)
         = List.map Symbol.name (Repo.decision_log repo))

(* The GKBSNP1 layout, which this build no longer reads, as its writer
   wrote it: every symbol, a minted id too, spelt at its
   first use as [code * 2 + 1] and its name, and [code * 2] after that.
   [code] is the symbol's own below [near], twice the interned names
   plus the propositions, and the next code from [near] up past it. *)
let snp1 repo =
  let module C = Durability.Codec in
  let base = Cml.Kb.base (Repo.kb repo) in
  let near = 2 * (Symbol.count () + Store.Base.cardinal base) in
  let spelt = Hashtbl.create 64 and far = Hashtbl.create 8 in
  let add_sym buf sym =
    let code =
      match Symbol.to_int sym with
      | c when c < near -> c
      | c -> (
        match Hashtbl.find_opt far c with
        | Some f -> f
        | None ->
          let f = near + Hashtbl.length far in
          Hashtbl.add far c f;
          f)
    in
    if Hashtbl.mem spelt code then C.add_varint buf (code lsl 1)
    else begin
      Hashtbl.add spelt code ();
      C.add_varint buf ((code lsl 1) lor 1);
      C.add_name buf sym
    end
  in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "GKBSNP1\n";
  C.add_varint buf (Store.Base.cardinal base);
  Store.Base.iter base (fun p -> C.add_prop add_sym buf p);
  let kept id = Store.Base.mem base id in
  C.add_varint buf (Repo.fold_artifacts repo (fun id _ n -> if kept id then n + 1 else n) 0);
  Repo.fold_artifacts repo
    (fun id a () ->
      if kept id then begin
        add_sym buf id;
        C.add_vstr buf (S.to_string (P.sexp_of_artifact a))
      end)
    ();
  let log = Repo.decision_log repo in
  C.add_varint buf (List.length log);
  List.iter (add_sym buf) log;
  Buffer.add_int32_le buf (Durability.Crc32.of_string (Buffer.contents buf));
  Buffer.contents buf

(* [load_repository_raw]: no finalize, so a serial id near the top of
   the range does not move the process's id counter *)
let reloaded repo =
  let text = P.save_repository repo in
  (text, ok (P.load_repository_raw text))

let individual id = Prop.make ~id ~source:id ~label:id ~dest:id ()

(* Serial ids at both ends of their range round-trip as their numbers:
   [2n + 1], one byte for 1 and 2, nine for the largest. *)
let test_snapshot_serial_ends () =
  let repo = Repo.create () in
  let base = Cml.Kb.base (Repo.kb repo) in
  let ns = [ 1_000_001; 1_000_002; Symbol.serial_limit - 2; Symbol.serial_limit - 1 ] in
  let ids = List.map Symbol.serial (1 :: 2 :: ns) in
  let named = Symbol.intern "SerialEnds" in
  (* 1 and 2 may already be ids of the metamodel's links *)
  List.iter
    (fun id ->
      if not (Store.Base.mem base id) then ok (Store.Base.insert base (individual id)))
    ids;
  List.iteri
    (fun i id ->
      ok
        (Store.Base.insert base
           (Prop.make ~id:(Symbol.serial (Symbol.serial_limit - 3 - i)) ~source:id
              ~label:named ~dest:(List.nth ids ((i + 1) mod List.length ids)) ())))
    ids;
  Repo.set_artifact repo (Symbol.serial (Symbol.serial_limit - 1)) (Repo.Text "top");
  Repo.log_decision repo (Symbol.serial 2);
  let text, repo2 = reloaded repo in
  check Alcotest.string "the same repository" (P.save_repository_canonical repo)
    (P.save_repository_canonical repo2);
  List.iter
    (fun id ->
      check bool (Symbol.name id ^ " reloaded") true
        (Store.Base.mem (Cml.Kb.base (Repo.kb repo2)) id))
    ids;
  let module C = Durability.Codec in
  let spelt n =
    let b = Buffer.create 16 in
    C.add_serial b n;
    Buffer.contents b
  in
  check int "serial 1 takes a byte" 1 (String.length (spelt 1));
  check int "the largest serial takes nine" 9 (String.length (spelt (Symbol.serial_limit - 1)));
  List.iter
    (fun n ->
      let s = spelt n in
      match C.read_varint s 0 with
      | Ok (v, _) when v land 1 = 1 -> (
        match C.read_serial v (String.length s) with
        | Ok (sym, _) -> check int "read back" n (Symbol.serial_number sym)
        | Error e -> Alcotest.fail e)
      | _ -> Alcotest.failf "serial %d is not an odd varint" n)
    (1 :: 2 :: ns);
  check bool "no name spells p<n>" false (contains "p999999999999999999" text);
  (* past the range, a number is refused *)
  (match C.read_serial ((Symbol.serial_limit lsl 1) lor 1) 0 with
  | Ok _ -> Alcotest.fail "serial_limit read as a serial"
  | Error e -> check bool e true (contains "out of range" e));
  match C.read_serial 1 0 with
  | Ok _ -> Alcotest.fail "serial 0 read as a serial"
  | Error e -> check bool e true (contains "out of range" e)

(* Names spelt like serial ids that are not ones ([p0], a leading 0, 19
   digits) are interned names, and stay so across a reload. *)
let test_snapshot_serial_lookalikes () =
  let repo = Repo.create () in
  let base = Cml.Kb.base (Repo.kb repo) in
  let names = [ "p0"; "p01"; "p" ^ String.make 19 '9'; "p1000000000000000000" ] in
  List.iter (fun n -> ok (Store.Base.insert base (individual (Symbol.intern n)))) names;
  let _, repo2 = reloaded repo in
  List.iter
    (fun n ->
      let sym = Symbol.intern n in
      check int (n ^ " is a name") 0 (Symbol.serial_number sym);
      check bool (n ^ " reloaded") true (Store.Base.mem (Cml.Kb.base (Repo.kb repo2)) sym);
      check Alcotest.string (n ^ " keeps its spelling") n (Symbol.name sym))
    names;
  check Alcotest.string "the same repository" (P.save_repository_canonical repo)
    (P.save_repository_canonical repo2)

(* A GKBSNP1 checkpoint, the layout before this one, is refused by
   every loader with an error naming it, and the checkpoint and the log
   beside it are left as they are *)
let test_snapshot_snp1_refused () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let repo = Test_durability.two_decisions dir in
  let path = Gkbms.Durable.checkpoint_path dir in
  Out_channel.with_open_bin path (fun oc -> output_string oc (snp1 repo));
  let before = Test_durability.dir_files dir in
  let refused what = function
    | Ok () -> Alcotest.failf "%s loaded a GKBSNP1 checkpoint" what
    | Error e ->
      check bool (what ^ " names the layout: " ^ e) true
        (contains "a GKBSNP1 snapshot, a layout this build no longer reads" e)
  in
  refused "load_from_file" (Result.map ignore (P.load_from_file path));
  refused "Durable.recover" (Result.map ignore (Gkbms.Durable.recover ~dir ()));
  refused "Durable.open_"
    (Result.map (fun (d, _) -> Gkbms.Durable.close d) (Gkbms.Durable.open_ ~dir ()));
  check bool "checkpoint and log unchanged" true (Test_durability.dir_files dir = before)

(* A magic this build does not know is refused with an error naming
   the layout it reads; so is one cut short. *)
let test_snapshot_unknown_magic () =
  let body = String.sub (P.save_repository (Repo.create ())) 8 64 in
  List.iter
    (fun text ->
      match P.load_repository_raw text with
      | Ok _ -> Alcotest.failf "%S loaded" text
      | Error e ->
        check Alcotest.string (String.escaped text)
          "not a snapshot: this build reads only GKBSNP2 snapshots" e)
    [ "GKBSNP3\n" ^ body; "GKBSNP0\n" ^ body; "GKBSNP2"; "gkbsnp2\n" ^ body ]

(* The header records the generation it is given, and a reader of the
   header alone finds it; a GKBSNP1 magic before a varint, a missing
   file and anything else read as 0. *)
let test_snapshot_header_generation () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir "checkpoint.repo" in
  let repo = Repo.create () in
  List.iter
    (fun g ->
      ok (P.save_to_file ~generation:g repo path);
      check int (Printf.sprintf "generation %d" g) g (P.generation_of_file path);
      check bool "and it loads" true (Result.is_ok (P.load_from_file ~register_tools:ignore path)))
    [ 0; 1; 127; 128; 1 lsl 40 ];
  let write text = Out_channel.with_open_bin path (fun oc -> output_string oc text) in
  write "GKBSNP1\n\x05";
  check int "GKBSNP1" 0 (P.generation_of_file path);
  write "GKBSNP2\n\x85";
  check int "a cut varint" 0 (P.generation_of_file path);
  write "(gkbms-repository";
  check int "a text snapshot" 0 (P.generation_of_file path);
  Sys.remove path;
  check int "no file" 0 (P.generation_of_file path)

(* A damaged snapshot is an [Error], never a partial repository: every
   cut and every single-bit flip of a small one is caught. *)
let small_snapshot () =
  let repo = random_repo ([], [ (0, Repo.Text "t") ], [ "dec1"; "dec2" ]) in
  P.save_repository repo

let refuses what data =
  match P.load_repository data with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s loaded" what

let test_snapshot_damage () =
  let snap = small_snapshot () in
  for n = 0 to String.length snap - 1 do
    refuses (Printf.sprintf "a cut at %d" n) (String.sub snap 0 n)
  done;
  let rng = Random.State.make [| 21 |] in
  for _ = 1 to 500 do
    let pos = Random.State.int rng (String.length snap) in
    let bit = Random.State.int rng 8 in
    let b = Bytes.of_string snap in
    Bytes.set_uint8 b pos (Bytes.get_uint8 b pos lxor (1 lsl bit));
    refuses (Printf.sprintf "bit %d of byte %d flipped" bit pos) (Bytes.to_string b)
  done

(* With a valid checksum, the records are still checked: the loader
   names what is wrong.  [sealed] frames a hand-made body as a
   snapshot; name codes in a body are arbitrary numbers. *)
let sealed body =
  let b = Buffer.create 64 in
  Buffer.add_string b "GKBSNP2\n";
  (* the generation *)
  Durability.Codec.add_varint b 7;
  Buffer.add_string b body;
  Buffer.add_int32_le b (Durability.Crc32.of_string (Buffer.contents b));
  Buffer.contents b

let test_snapshot_record_checks () =
  let module C = Durability.Codec in
  let buf = Buffer.create 64 in
  let varint n = C.add_varint buf n in
  let name code s =
    varint ((code lsl 2) lor 2);
    C.add_vstr buf s
  in
  let reference code = varint (code lsl 2) in
  let flags f = Buffer.add_char buf (Char.chr f) in
  (* <x, x, x, Always>, belief 0 *)
  let individual ?(f = 0b1111) code s =
    flags f;
    name code s;
    varint 0
  in
  let body ?(artifacts = fun () -> varint 0) props =
    Buffer.clear buf;
    props ();
    artifacts ();
    varint 0;
    Buffer.contents buf
  in
  let cases =
    [
      ( "reserved flag bits",
        body (fun () ->
            varint 1;
            individual ~f:0x1f 1 "x"),
        "reserved" );
      ( "undefined reference",
        body (fun () ->
            varint 1;
            flags 0b1111;
            reference 2;
            varint 0),
        "before its name" );
      ( "bad time",
        body (fun () ->
            varint 1;
            flags 0b0111;
            name 3 "y";
            C.add_vstr buf "not a time";
            varint 0),
        "not a time" );
      ( "duplicated id",
        body (fun () ->
            varint 2;
            individual 4 "z";
            flags 0b1111;
            reference 4;
            varint 0),
        "appears twice" );
      ("trailing bytes", body (fun () -> varint 0) ^ "\000", "trailing");
      ( "bad artifact",
        body
          ~artifacts:(fun () ->
            varint 1;
            reference 5;
            C.add_vstr buf "(no-such-artifact)")
          (fun () ->
            varint 1;
            individual 5 "w"),
        "artifact w" );
      ( "serial number 0",
        body (fun () ->
            varint 1;
            flags 0b1111;
            varint 1;
            varint 0),
        "serial number 0 out of range" );
    ]
  in
  List.iter
    (fun (what, body, needle) ->
      match P.load_repository (sealed body) with
      | Ok _ -> Alcotest.failf "%s loaded" what
      | Error e -> check bool (Printf.sprintf "%s: %S names %S" what e needle) true (contains needle e))
    cases;
  (* the same frame around well-formed records loads *)
  ignore
    (ok
       (P.load_repository
          (sealed
             (body (fun () ->
                  varint 1;
                  individual 6 "v")))))

let suite =
  [
    ("sexp roundtrip", `Quick, test_sexp_roundtrip);
    ("sexp parse errors", `Quick, test_sexp_parse_errors);
    ("sexp comments", `Quick, test_sexp_comments);
    ("sexp fields", `Quick, test_sexp_fields);
    ("artifact codecs roundtrip", `Quick, test_artifact_codecs);
    ("artifact decode errors", `Quick, test_artifact_decode_errors);
    ("repository snapshot roundtrip", `Quick, test_repository_roundtrip);
    ("loaded repository continues", `Quick, test_loaded_repo_continues);
    ("snapshot rejects garbage", `Quick, test_snapshot_rejects_garbage);
    ("snapshot codes past the first-use bitset", `Quick, test_snapshot_codes_past_the_bitset);
    ("file roundtrip", `Quick, test_file_roundtrip);
    ("snapshot bytes match the reference printer", `Quick, test_snapshot_format_pinned);
    QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
    QCheck_alcotest.to_alcotest prop_binary_snapshot_roundtrip;
    ("snapshot damage is an error", `Quick, test_snapshot_damage);
    ("snapshot records are checked", `Quick, test_snapshot_record_checks);
    ("snapshot serial ids at both ends of the range", `Quick, test_snapshot_serial_ends);
    ("snapshot names spelt like serial ids", `Quick, test_snapshot_serial_lookalikes);
    ("snapshot unknown magic names the layouts read", `Quick, test_snapshot_unknown_magic);
    ("snapshot header records the generation", `Quick, test_snapshot_header_generation);
    ("snapshot GKBSNP1 refused by name", `Quick, test_snapshot_snp1_refused);
  ]
