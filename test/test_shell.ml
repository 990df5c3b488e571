module Shell = Gkbms.Shell

let check = Alcotest.check
let bool = Alcotest.bool

open Helpers

let test_session_runs_the_storyline () =
  let shell = ok (Shell.create ()) in
  check bool "unmapped lists the hierarchy" true
    (contains "Papers" (Shell.eval shell "unmapped"));
  check bool "map" true (contains "dec1" (Shell.eval shell "map"));
  check bool "normalize" true (contains "InvitationRel2" (Shell.eval shell "normalize"));
  check bool "key" true (contains "InvitationRel3" (Shell.eval shell "key"));
  check bool "minutes" true (contains "MinuteRel" (Shell.eval shell "minutes"));
  check bool "check sees the conflict" true
    (contains "unsupported: InvitationRel3" (Shell.eval shell "check"));
  check bool "resolve backtracks" true
    (contains "retracted decisions: dec3" (Shell.eval shell "resolve"));
  check bool "config ends complete" true
    (contains "MinuteRel" (Shell.eval shell "config"))

let test_browsing_commands () =
  let shell = ok (Shell.create ()) in
  ignore (Shell.eval shell "map");
  check bool "focus" true
    (contains "focus: InvitationRel" (Shell.eval shell "focus InvitationRel"));
  check bool "menu" true
    (contains "DecNormalize" (Shell.eval shell "menu InvitationRel"));
  check bool "why" true
    (contains "created by dec1" (Shell.eval shell "why InvitationRel"));
  check bool "source" true
    (contains "TYPE InvitationType" (Shell.eval shell "source InvitationRel"));
  check bool "deps" true (contains "--from--> dec1" (Shell.eval shell "deps Papers"));
  check bool "deps --dot" true
    (String.starts_with ~prefix:"digraph dependencies"
       (Shell.eval shell "deps --dot"));
  ignore (Shell.eval shell "normalize");
  check bool "history" true
    (contains "InvitationRel2" (Shell.eval shell "history InvitationRel"))

let test_ask_and_derive () =
  let shell = ok (Shell.create ()) in
  check bool "ask true" true
    (Shell.eval shell "ask forall x/Normalized_DBPL_Rel in(?x, DBPL_Rel)" = "true");
  ignore (Shell.eval shell "map");
  check bool "derive" true
    (contains "DBPL_Rel" (Shell.eval shell "derive in(InvitationRel, ?C)"));
  check bool "parse error reported" true
    (contains "error" (Shell.eval shell "ask ((("))

let test_run_generic_decision () =
  let shell = ok (Shell.create ()) in
  ignore (Shell.eval shell "map");
  let out =
    Shell.eval shell
      "run DecNormalize Normalizer relation=InvitationRel"
  in
  check bool "generic run works" true (contains "InvitationRel2" out)

(* K=V binds an input exactly when K is a FROM role of the class; any
   other K=V is a tool parameter, whatever V names *)
let test_run_binds_inputs_by_role () =
  let shell = ok (Shell.create ()) in
  List.iter (fun l -> ignore (Shell.eval shell l)) [ "map"; "normalize" ];
  List.iter
    (fun text ->
      let line = "run DecManualEdit Editor object=InvitationRel2 text=" ^ text in
      check bool line true (contains "run executed" (Shell.eval shell line)))
    [ "Papers"; "p1"; "Editor" ];
  let fresh = Printf.sprintf "NoObject%d" (Kernel.Symbol.count ()) in
  check Alcotest.string "an input names no object" ("error: no object " ^ fresh)
    (Shell.eval shell ("run DecManualEdit Editor object=" ^ fresh ^ " text=x"));
  check Alcotest.string "an unknown class" ("error: unknown decision class " ^ fresh)
    (Shell.eval shell ("run " ^ fresh ^ " Editor object=InvitationRel2"));
  check bool "neither mints a symbol" true (Kernel.Symbol.find_opt fresh = None)

let test_error_recovery () =
  let shell = ok (Shell.create ()) in
  check bool "unknown command" true
    (contains "unknown command" (Shell.eval shell "frobnicate"));
  check bool "bad focus is harmless" true
    (contains "no such object"
       (Shell.eval shell "focus Nonexistent")
    || Shell.eval shell "focus Nonexistent" <> "");
  (* the session still works after errors *)
  check bool "still alive" true (contains "dec1" (Shell.eval shell "map"))

let test_save_and_load () =
  let shell = ok (Shell.create ()) in
  ignore (Shell.eval shell "map");
  let path = Filename.temp_file "gkbms_shell" ".repo" in
  check bool "saved" true (contains "saved" (Shell.eval shell ("save " ^ path)));
  let shell2 = ok (Shell.create ()) in
  check bool "loaded" true
    (contains "1 decisions" (Shell.eval shell2 ("load " ^ path)));
  Sys.remove path;
  check bool "loaded state browsable" true
    (contains "created by dec1" (Shell.eval shell2 "why InvitationRel"))

let test_quit_detection () =
  check bool "quit" true (Shell.is_quit "quit");
  check bool "exit" true (Shell.is_quit " EXIT ");
  check bool "not quit" false (Shell.is_quit "map")

(* two sessions on one repository: browsing state must not bleed over *)
let test_per_session_cursor () =
  let st = ok (Gkbms.Scenario.setup ()) in
  let repo = st.Gkbms.Scenario.repo in
  let a = Shell.session repo and b = Shell.session repo in
  ignore (Shell.eval a "map");
  ignore (Shell.eval a "focus InvitationRel");
  check bool "a has a cursor" true
    (contains "created by dec1" (Shell.eval a "why"));
  check bool "b has no cursor" true
    (contains "no focus set" (Shell.eval b "why"));
  ignore (Shell.eval b "focus Papers");
  check bool "b cursor independent" true
    (contains "focus: Papers" (Shell.eval b "focus"));
  check bool "a cursor unchanged" true
    (contains "focus: InvitationRel" (Shell.eval a "focus"))

let test_per_session_config_level () =
  let st = ok (Gkbms.Scenario.setup ()) in
  let repo = st.Gkbms.Scenario.repo in
  let a = Shell.session repo and b = Shell.session repo in
  ignore (Shell.eval a "map");
  let a_config = Shell.eval a "config" in
  (* b switches its configuration level; a's view must be unaffected *)
  ignore (Shell.eval b "config DBPL_Rel");
  check Alcotest.string "b's level moved" "config DBPL_Rel"
    (Shell.resolve b "config");
  check Alcotest.string "a config level untouched by b" a_config
    (Shell.eval a "config")

(* the scenario shortcuts must see versions created by other sessions *)
let test_cross_session_version_advance () =
  let st = ok (Gkbms.Scenario.setup ()) in
  let repo = st.Gkbms.Scenario.repo in
  let a = Shell.session repo and b = Shell.session repo in
  check bool "a maps" true (contains "dec1" (Shell.eval a "map"));
  check bool "a normalizes" true
    (contains "InvitationRel2" (Shell.eval a "normalize"));
  (* b never saw InvitationRel2 being created, but key must target it *)
  check bool "b keys the latest version" true
    (contains "InvitationRel3" (Shell.eval b "key"))

let test_shared_session_refuses_load () =
  let st = ok (Gkbms.Scenario.setup ()) in
  let shell = Shell.session st.Gkbms.Scenario.repo in
  let refusal = Shell.eval shell "load /tmp/nonexistent.repo" in
  check bool "load refused" true (contains "error: load is unavailable" refusal);
  (* the message must say why: the repository is shared, and load would
     swap it out from under the other sessions/followers *)
  check bool "refusal names the shared repository" true
    (contains "shares one repository" refusal);
  check bool "refusal names the consequence" true
    (contains "swap it out" refusal);
  check bool "refusal suggests a remedy" true
    (contains "standalone shell" refusal);
  (* a private shell still loads (see save-and-load above) *)
  check bool "map still works" true (contains "dec1" (Shell.eval shell "map"))

(* retract DEC backtracks any logged decision and only its consequences;
   its operand is probed, never interned *)
let test_retract_verb () =
  let conflict () =
    let shell = ok (Shell.create ()) in
    List.iter
      (fun l -> ignore (Shell.eval shell l))
      [ "map"; "normalize"; "key"; "minutes" ];
    shell
  in
  let shell = conflict () in
  let fresh = Printf.sprintf "NoDecision%d" (Kernel.Symbol.count ()) in
  check Alcotest.string "an operand that names nothing" ("error: no decision " ^ fresh)
    (Shell.eval shell ("retract " ^ fresh));
  check bool "is not interned" true (Kernel.Symbol.find_opt fresh = None);
  check Alcotest.string "an object is no decision" "error: no decision Papers"
    (Shell.eval shell "retract Papers");
  check Alcotest.string "one operand" "error: usage: retract DEC"
    (Shell.eval shell "retract");
  let resolved = conflict () in
  check Alcotest.string "retracting the key decision reports as resolve does"
    (Shell.eval resolved "resolve")
    (Shell.eval shell "retract dec3");
  let dec5 = Kernel.Symbol.intern "dec5" in
  check (Alcotest.option Alcotest.string) "the rationale records the line"
    (Some "retracted dec3; shell: retract dec3")
    (Gkbms.Decision.rationale_of (Shell.repository shell) dec5);
  check bool "the conflict is gone" true
    (contains "support: all design objects supported" (Shell.eval shell "check"));
  check Alcotest.string "a retracted decision is no longer logged"
    "error: no decision dec3" (Shell.eval shell "retract dec3");
  (* retracting a retraction would erase its record and restore nothing *)
  List.iter
    (fun sh ->
      let repo = Shell.repository sh in
      let record () =
        (Gkbms.Decision.rationale_of repo dec5, Gkbms.Repository.decision_log repo)
      in
      let before = record () in
      check Alcotest.string "a retraction is refused"
        "error: dec5 is a retraction, which cannot be retracted"
        (Shell.eval sh "retract dec5");
      check bool "its record and the log are unchanged" true (record () = before))
    [ resolved; shell ]

(* golden transcript: the whole storyline through the dialog manager.
   why/history are excluded (they print belief times from the global
   clock), and config is excluded (its member order depends on global
   symbol-table state); everything here depends only on repository
   content. *)
let golden_script =
  [
    "help"; "unmapped"; "map"; "focus InvitationRel"; "menu"; "source";
    "normalize"; "key"; "check"; "minutes"; "check"; "resolve";
    "deps Papers"; "ask forall x/Normalized_DBPL_Rel in(?x, DBPL_Rel)";
    "derive in(MinuteRel, ?C)"; "stats";
  ]

let transcript () =
  let shell = ok (Shell.create ()) in
  String.concat ""
    (List.map
       (fun line ->
         let out = Shell.eval shell line in
         Printf.sprintf "gkbms> %s\n%s\n" line out)
       golden_script)

(* comma-separated listings (configuration members, unmapped objects)
   are rendered in symbol-table order, which depends on how many symbols
   the process interned before this test ran; compare them as sets *)
let normalize_transcript s =
  let sort_csv s =
    String.split_on_char ',' s
    |> List.map String.trim
    |> List.sort compare
    |> String.concat ", "
  in
  let normalize_line line =
    if not (String.contains line ',') then line
    else
      match String.index_opt line ':' with
      | Some i ->
        (* keep the "members:"-style label, sort the list after it *)
        String.sub line 0 (i + 1)
        ^ " "
        ^ sort_csv (String.sub line (i + 1) (String.length line - i - 1))
      | None -> sort_csv line
  in
  String.split_on_char '\n' s
  |> List.map normalize_line
  |> String.concat "\n"

let test_golden_transcript () =
  let got = transcript () in
  match Sys.getenv_opt "GKBMS_GOLDEN_REGEN" with
  | Some path ->
    let oc = open_out path in
    output_string oc got;
    close_out oc
  | None ->
    let golden =
      (* dune runtest runs in test/, dune exec in the project root *)
      List.find_opt Sys.file_exists
        [ "shell_session.golden"; "test/shell_session.golden" ]
      |> Option.value ~default:"shell_session.golden"
    in
    let want = In_channel.with_open_text golden In_channel.input_all in
    if normalize_transcript got <> normalize_transcript want then begin
      (* show the first diverging line to make failures diagnosable *)
      let gl = String.split_on_char '\n' (normalize_transcript got)
      and wl = String.split_on_char '\n' (normalize_transcript want) in
      let rec first_diff i = function
        | g :: gs, w :: ws ->
          if g = w then first_diff (i + 1) (gs, ws)
          else Alcotest.failf "transcript line %d differs:\n  got:  %s\n  want: %s" i g w
        | g :: _, [] -> Alcotest.failf "transcript longer at line %d: %s" i g
        | [], w :: _ -> Alcotest.failf "transcript shorter at line %d: %s" i w
        | [], [] -> ()
      in
      first_diff 1 (gl, wl);
      Alcotest.fail "transcript differs"
    end

let cli =
  (* dune runtest runs in test/, dune exec in the project root *)
  List.find_opt Sys.file_exists
    [ "../bin/gkbms_cli.exe"; "_build/default/bin/gkbms_cli.exe" ]
  |> Option.value ~default:"../bin/gkbms_cli.exe"

(* The CLI with [args], its stdout on [out]: its exit status and what it
   wrote on stderr. *)
let run_cli args out =
  let err = Filename.temp_file "gkbms" ".err" in
  let errfd = Unix.openfile err [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process cli (Array.of_list (cli :: args)) Unix.stdin out errfd
  in
  Unix.close errfd;
  let _, status = Unix.waitpid [] pid in
  let text = In_channel.with_open_bin err In_channel.input_all in
  Sys.remove err;
  (status, text)

(* ... and what it wrote on stdout *)
let cli_output args =
  let path = Filename.temp_file "gkbms" ".out" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let status, err = run_cli args fd in
  Unix.close fd;
  let out = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  (status, out, err)

(* a fresh socket path *)
let socket_path () =
  let path = Filename.temp_file "gkbms" ".sock" in
  Sys.remove path;
  path

let wait_for_socket path =
  let rec go n =
    if n > 0 && not (Sys.file_exists path) then (
      Thread.delay 0.05;
      go (n - 1))
  in
  go 200

(* A reader that goes away, as [gkbms recover DIR | head -2] does, ends
   a printing command quietly.  The pipe's read end is closed before the
   CLI starts, so its first write finds no reader.  [client] ignores
   SIGPIPE for its socket, so it runs against a daemon served here. *)
let test_closed_stdout_is_quiet () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let status, _ = run_cli [ "scenario"; "--wal"; dir ] null in
  Unix.close null;
  check bool "scenario --wal ran" true (status = Unix.WEXITED 0);
  let daemon = Server.Daemon.create (Shell.repository (ok (Shell.create ()))) in
  let sock = socket_path () in
  let listener =
    Thread.create (fun () -> ignore (Server.Daemon.listen daemon ~path:sock)) ()
  in
  wait_for_socket sock;
  Fun.protect ~finally:(fun () ->
      Server.Daemon.stop daemon;
      Thread.join listener)
  @@ fun () ->
  List.iter
    (fun args ->
      let r, w = Unix.pipe () in
      Unix.close r;
      let _, err = run_cli args w in
      Unix.close w;
      check Alcotest.string (String.concat " " args ^ ": stderr") "" err)
    [
      [ "scenario" ]; [ "recover"; dir ];
      [ "client"; sock; "-e"; "stats"; "-e"; "stats"; "-e"; "stats" ];
    ]

(* A file the CLI cannot write or read is an error that names it, with
   exit 1. *)
let test_bad_paths_are_errors () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
  ignore (run_cli [ "scenario"; "--until"; "map"; "--wal"; dir ] null);
  let bad = "/nonexistent/dir/x" in
  List.iter
    (fun args ->
      let status, err = run_cli args null in
      let what = String.concat " " args in
      check bool (what ^ ": exit 1") true (status = Unix.WEXITED 1);
      check bool (what ^ ": " ^ err) true
        (String.starts_with ~prefix:("error: " ^ bad ^ ": ") err))
    [
      [ "export"; bad ]; [ "recover"; dir; "--canonical"; bad ];
      [ "stats"; "--json"; bad ]; [ "stats"; "--prom"; bad ];
      [ "trace"; "--json"; bad ];
      [ "client"; Filename.concat dir "no.sock"; "--script"; bad ];
    ]

(* A server restarted on its journal keeps the decisions it
   acknowledged before a SIGTERM. *)
let test_restart_keeps_decisions () =
  let wal = Scratch.temp_dir () and sock = socket_path () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf wal) @@ fun () ->
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close null) @@ fun () ->
  let serving f =
    let pid =
      Unix.create_process cli [| cli; "serve"; sock; "--wal"; wal |] Unix.stdin null
        null
    in
    Fun.protect ~finally:(fun () ->
        Unix.kill pid Sys.sigterm;
        ignore (Unix.waitpid [] pid))
    @@ fun () ->
    wait_for_socket sock;
    f ()
  in
  let client args = cli_output ("client" :: sock :: args) in
  serving (fun () ->
      let status, out, _ =
        client [ "-e"; "run DecManualEdit Editor object=MinuteRel text=x" ]
      in
      check bool "acknowledged" true (status = Unix.WEXITED 0 && contains "dec6" out));
  serving (fun () ->
      let _, out, _ = client [ "-e"; "stats" ] in
      check bool ("after the restart: " ^ out) true (contains "decisions: 5" out))

(* [gkbms stats] prints the shell's count: at every [--until] stage its
   line is the length of the listing on the same state built here, and
   so is the shell's [stats]. *)
let test_cli_stats_counts_the_listing () =
  let module Scn = Gkbms.Scenario in
  let st = ok (Scn.setup ()) in
  let step f () = ignore (ok (f st)) in
  List.iter
    (fun (stage, advance) ->
      advance ();
      let repo = st.Scn.repo in
      let listed = List.length (Gkbms.Repository.all_design_objects repo) in
      let status, out, _ = cli_output [ "stats"; "--until"; stage ] in
      check bool (stage ^ ": exit 0") true (status = Unix.WEXITED 0);
      check bool (stage ^ ": " ^ out) true
        (contains (Printf.sprintf "\ndesign objects:  %d\n" listed) out);
      let shell = Shell.eval (Shell.session repo) "stats" in
      check bool (stage ^ ": " ^ shell) true
        (contains (Printf.sprintf "; design objects: %d;" listed) shell))
    [
      ("setup", ignore); ("map", step Scn.map_move_down);
      ("normalize", step Scn.normalize_invitations); ("key", step Scn.substitute_key);
      ("conflict", step Scn.introduce_minutes); ("resolved", step Scn.resolve_conflict);
    ]

let suite =
  [
    ("session runs the storyline", `Quick, test_session_runs_the_storyline);
    ("browsing commands", `Quick, test_browsing_commands);
    ("ask and derive", `Quick, test_ask_and_derive);
    ("generic run command", `Quick, test_run_generic_decision);
    ("run binds inputs by role", `Quick, test_run_binds_inputs_by_role);
    ("error recovery", `Quick, test_error_recovery);
    ("save and load", `Quick, test_save_and_load);
    ("quit detection", `Quick, test_quit_detection);
    ("per-session cursor", `Quick, test_per_session_cursor);
    ("per-session config level", `Quick, test_per_session_config_level);
    ("cross-session version advance", `Quick, test_cross_session_version_advance);
    ("shared session refuses load", `Quick, test_shared_session_refuses_load);
    ("retract backtracks one decision", `Quick, test_retract_verb);
    ("golden transcript", `Quick, test_golden_transcript);
    ("a closed stdout ends the CLI quietly", `Quick, test_closed_stdout_is_quiet);
    ("a bad file path is an error", `Quick, test_bad_paths_are_errors);
    ("a restart keeps acknowledged decisions", `Quick, test_restart_keeps_decisions);
    ("the CLI's stats counts the listing", `Quick, test_cli_stats_counts_the_listing);
  ]
