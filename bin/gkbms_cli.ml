(* The GKBMS command line: run the paper's scenario, browse the resulting
   knowledge base, regenerate the figures, and export/import the
   proposition base.

   Examples:
     gkbms scenario                      # the full section-2.1 storyline
     gkbms scenario --until key          # stop before the conflict
     gkbms focus InvitationRel2          # fig 2-1-style focus view
     gkbms why InvitationRel2            # explanation facility
     gkbms deps --dot                    # dependency graph as Graphviz
     gkbms config                        # fig 3-4 configuration
     gkbms export kb.props               # persist the proposition base
     gkbms scenario --wal run.d          # journal into a write-ahead log
     gkbms recover run.d                 # crash recovery from the WAL *)

module Scn = Gkbms.Scenario
module Repo = Gkbms.Repository
module Sym = Kernel.Symbol
open Cmdliner

type stage = Setup | Mapped | Normalized | Keyed | Conflict | Resolved

let stage_conv =
  let parse = function
    | "setup" -> Ok Setup
    | "map" -> Ok Mapped
    | "normalize" -> Ok Normalized
    | "key" -> Ok Keyed
    | "conflict" -> Ok Conflict
    | "resolved" -> Ok Resolved
    | s -> Error (`Msg (Printf.sprintf "unknown stage %S" s))
  in
  let print ppf s =
    Format.pp_print_string ppf
      (match s with
      | Setup -> "setup"
      | Mapped -> "map"
      | Normalized -> "normalize"
      | Keyed -> "key"
      | Conflict -> "conflict"
      | Resolved -> "resolved")
  in
  Arg.conv (parse, print)

let ( let* ) = Result.bind

let build_state ?wal until =
  let* st = Scn.setup () in
  let* durable =
    match wal with
    | None -> Ok None
    | Some dir ->
      Result.map Option.some (Gkbms.Durable.attach ~dir st.Scn.repo)
  in
  let steps =
    [
      (Mapped, fun () -> Result.map ignore (Scn.map_move_down st));
      (Normalized, fun () -> Result.map ignore (Scn.normalize_invitations st));
      (Keyed, fun () -> Result.map ignore (Scn.substitute_key st));
      (Conflict, fun () -> Result.map ignore (Scn.introduce_minutes st));
      (Resolved, fun () -> Result.map ignore (Scn.resolve_conflict st));
    ]
  in
  let rank = function
    | Setup -> 0 | Mapped -> 1 | Normalized -> 2 | Keyed -> 3
    | Conflict -> 4 | Resolved -> 5
  in
  let* () =
    List.fold_left
      (fun acc (stage, step) ->
        let* () = acc in
        if rank stage <= rank until then step () else Ok ())
      (Ok ()) steps
  in
  Ok (st, durable)

let handle = function
  | Ok () -> 0
  | Error e ->
    Format.eprintf "error: %s@." e;
    1

(* The browsing and query verbs answer through the shell's dispatcher,
   so each has one rendering: the scenario state at [until], then
   [Shell.eval]'s output, which goes to stderr with exit 1 when it is an
   error.  Some answers end in a newline and some do not; the output
   ends in one. *)
let shell_verb until line =
  match build_state until with
  | Error e -> handle (Error e)
  | Ok (st, _) ->
    let out = Gkbms.Shell.eval (Gkbms.Shell.of_repository st.Scn.repo) line in
    if String.starts_with ~prefix:"error: " out then begin
      prerr_endline out;
      1
    end
    else begin
      print_string out;
      if not (String.ends_with ~suffix:"\n" out) then print_char '\n';
      0
    end

(* The CLI's one file writer and one file reader: a path that cannot be
   opened, written or read is an [Error] naming it, which [handle]
   reports. *)
let write_file path write =
  try Ok (Out_channel.with_open_text path write) with Sys_error e -> Error e

let read_lines path =
  try Ok (In_channel.with_open_text path In_channel.input_lines)
  with Sys_error e -> Error e

let until_arg =
  Arg.(value & opt stage_conv Resolved & info [ "until" ] ~docv:"STAGE"
         ~doc:"Run the scenario up to STAGE (setup, map, normalize, key, conflict, resolved).")

let focus_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"OBJECT")

(* scenario ------------------------------------------------------------- *)

let wal_arg =
  Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"DIR"
         ~doc:"Journal the run into a crash-safe write-ahead log under \
               $(docv) (a checkpoint snapshot plus a checksummed log of \
               every decision's deltas); rebuild with the recover command.")

let scenario_cmd =
  let run until wal =
    handle
      (let* st, durable = build_state ?wal until in
       let repo = st.Scn.repo in
       Format.printf "decision log:@.";
       List.iter
         (fun (dec, dc) -> Format.printf "  %s : %s@." (Sym.name dec) dc)
         (Gkbms.Navigation.browse_process repo);
       Format.printf "@.version lattice:@.";
       Gkbms.Version.pp_version_lattice repo Format.std_formatter ();
       (match Cml.Consistency.check_all (Repo.kb repo) with
       | [] -> Format.printf "@.knowledge base is consistent.@."
       | vs ->
         List.iter
           (fun v -> Format.printf "%a@." Cml.Consistency.pp_violation v)
           vs);
       (match durable with
       | None -> ()
       | Some d ->
         Gkbms.Durable.sync d;
         Format.printf "@.journaled %d WAL records (%d bytes) under %s@."
           (Gkbms.Durable.wal_records d)
           (Gkbms.Durable.wal_bytes d)
           (Gkbms.Durable.dir d);
         Gkbms.Durable.close d);
       Ok ())
  in
  Cmd.v (Cmd.info "scenario" ~doc:"Run the section-2.1 storyline.")
    Term.(const run $ until_arg $ wal_arg)

(* recover ---------------------------------------------------------------- *)

let recover_cmd =
  let dir_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR"
           ~doc:"Durability directory written by scenario --wal.")
  in
  let canonical_arg =
    Arg.(value & opt (some string) None & info [ "canonical" ] ~docv:"FILE"
           ~doc:"Also write a canonical (sorted, insertion-order independent) \
                 repository snapshot to $(docv) — byte-comparable across \
                 replicas, the replication convergence oracle.")
  in
  let flight_log_arg =
    Arg.(value & flag & info [ "flight-log" ]
           ~doc:"Also print the decision flight log dumped by a crashed \
                 server (SIGUSR2, $(b,DIR/flight.json)) next to the WAL, \
                 when one exists.")
  in
  let run dir canonical flight_log =
    handle
      (let* repo, report = Gkbms.Durable.recover ~dir () in
       Format.printf "%a@." Gkbms.Durable.pp_report report;
       (if flight_log then
          let path = Obs.Recorder.default_file dir in
          if Sys.file_exists path then begin
            Format.printf "@.flight log (%s):@." path;
            In_channel.with_open_text path In_channel.input_all
            |> String.split_on_char '\n'
            |> List.iter (fun l -> if l <> "" then Format.printf "  %s@." l)
          end
          else Format.printf "@.no flight log at %s@." path);
       let* () =
         match canonical with
         | None -> Ok ()
         | Some file ->
           let* () =
             write_file file (fun oc ->
                 output_string oc (Gkbms.Persist.save_repository_canonical repo))
           in
           Ok (Format.printf "@.canonical snapshot written to %s@." file)
       in
       Format.printf "@.decision log:@.";
       List.iter
         (fun (dec, dc) -> Format.printf "  %s : %s@." (Sym.name dec) dc)
         (Gkbms.Navigation.browse_process repo);
       (match Cml.Consistency.check_all (Repo.kb repo) with
       | [] -> Format.printf "@.knowledge base is consistent.@."
       | vs ->
         List.iter
           (fun v -> Format.printf "%a@." Cml.Consistency.pp_violation v)
           vs);
       Ok ())
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Rebuild a repository from its durability directory: load the \
             checkpoint, replay the longest valid WAL prefix, discard \
             uncommitted decisions.")
    Term.(const run $ dir_arg $ canonical_arg $ flight_log_arg)

(* focus ------------------------------------------------------------------ *)

let focus_cmd =
  let run until name = shell_verb until ("focus " ^ name) in
  Cmd.v
    (Cmd.info "focus" ~doc:"Show the focus view (fig 2-1) of a design object.")
    Term.(const run $ until_arg $ focus_arg)

(* why ---------------------------------------------------------------------- *)

let why_cmd =
  let run until name = shell_verb until ("why " ^ name) in
  Cmd.v (Cmd.info "why" ~doc:"Explain why a design object exists.")
    Term.(const run $ until_arg $ focus_arg)

(* deps ---------------------------------------------------------------------- *)

let deps_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of ASCII.")
  in
  let root =
    Arg.(value & opt string "Papers" & info [ "root" ] ~docv:"OBJECT"
           ~doc:"Root of the ASCII rendering.")
  in
  let run until dot root =
    shell_verb until (if dot then "deps --dot" else "deps " ^ root)
  in
  Cmd.v
    (Cmd.info "deps" ~doc:"Show the dependency graph (figs 2-2 .. 2-4).")
    Term.(const run $ until_arg $ dot $ root)

(* config ---------------------------------------------------------------------- *)

let config_cmd =
  let run until = shell_verb until ("config " ^ Gkbms.Metamodel.dbpl_object) in
  Cmd.v
    (Cmd.info "config"
       ~doc:"Configure the latest complete DBPL program version (fig 3-4).")
    Term.(const run $ until_arg)

(* source ---------------------------------------------------------------------- *)

let source_cmd =
  let run until name = shell_verb until ("source " ^ name) in
  Cmd.v (Cmd.info "source" ~doc:"Print the code frame of a design object.")
    Term.(const run $ until_arg $ focus_arg)

(* ask / derive / explain -------------------------------------------------- *)

let atom_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"ATOM"
         ~doc:"e.g. \"in(InvitationRel, ?C)\"")

let ask_cmd =
  let formula_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FORMULA"
           ~doc:"e.g. \"forall x/Paper in(?x, Document)\"")
  in
  let run until formula = shell_verb until ("ask " ^ formula) in
  Cmd.v
    (Cmd.info "ask" ~doc:"Evaluate a closed assertion against the KB.")
    Term.(const run $ until_arg $ formula_arg)

let derive_cmd =
  let run until atom = shell_verb until ("derive " ^ atom) in
  Cmd.v
    (Cmd.info "derive"
       ~doc:"Query the deductive view (tabled top-down inference); \
             answers are sorted.")
    Term.(const run $ until_arg $ atom_arg)

let explain_cmd =
  let run until atom = shell_verb until ("explain " ^ atom) in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Run a goal as derive does and show what the tabled prover \
             did: each tabled subgoal with its answer count, the \
             resolution and lemma-hit counters, and the answer count.")
    Term.(const run $ until_arg $ atom_arg)

(* export / import ----------------------------------------------------------- *)

let export_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run until file =
    handle
      (let* st, _ = build_state until in
       let* () = write_file file (Store.Base.save (Cml.Kb.base (Repo.kb st.Scn.repo))) in
       Format.printf "wrote %d propositions to %s@."
         (Store.Base.cardinal (Cml.Kb.base (Repo.kb st.Scn.repo)))
         file;
       Ok ())
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Persist the proposition base to a file.")
    Term.(const run $ until_arg $ file)

let import_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run file =
    handle
      (let* repo = Gkbms.Persist.load_from_file file in
       Format.printf "loaded %d propositions, %d decisions@."
         (Store.Base.cardinal (Cml.Kb.base (Repo.kb repo)))
         (Repo.log_length repo);
       List.iter
         (fun (dec, dc) -> Format.printf "  %s : %s@." (Sym.name dec) dc)
         (Gkbms.Navigation.browse_process repo);
       Ok ())
  in
  Cmd.v
    (Cmd.info "import" ~doc:"Load a repository snapshot and summarize it.")
    Term.(const run $ file)

let snapshot_cmd =
  let file = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let run until file =
    handle
      (let* st, _ = build_state until in
       let* () = Gkbms.Persist.save_to_file st.Scn.repo file in
       Format.printf "repository snapshot written to %s@." file;
       Ok ())
  in
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Persist the whole repository (KB + artifacts + history).")
    Term.(const run $ until_arg $ file)

let stats_cmd =
  let metrics_flag =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Also print the process-wide metrics registry snapshot.")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the registry snapshot to $(docv) as JSON.")
  in
  let prom_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Write the registry snapshot to $(docv) in Prometheus text \
             exposition format.")
  in
  let run until metrics json prom =
    handle
      (let* st, _ = build_state until in
       let repo = st.Scn.repo in
       let base = Cml.Kb.base (Repo.kb repo) in
       Format.printf "propositions:    %d@." (Store.Base.cardinal base);
       Format.printf "design objects:  %d@." (Repo.design_object_count repo);
       Format.printf "decisions:       %d@." (Repo.log_length repo);
       Format.printf "unmapped:        %s@."
         (String.concat ", "
            (List.map Sym.name (Gkbms.Navigation.unmapped_objects repo)));
       let samples = Obs.Registry.snapshot Obs.Registry.default in
       if metrics then
         Format.printf "-- registry --@.%a@." Obs.Export.pp_samples samples;
       let export what file render =
         match file with
         | None -> Ok ()
         | Some f ->
           let* () = write_file f (fun oc -> output_string oc (render samples)) in
           Ok (Format.printf "registry %s written to %s@." what f)
       in
       let* () = export "JSON" json Obs.Export.json in
       export "Prometheus text" prom Obs.Export.prometheus)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Knowledge base statistics; with $(b,--metrics)/$(b,--json)/\
          $(b,--prom), the live observability registry.")
    Term.(const run $ until_arg $ metrics_flag $ json_file $ prom_file)

let trace_cmd =
  let slow_ms =
    Arg.(
      value & opt float 0.
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Slow-op threshold in milliseconds; root spans at least this \
             long enter the slow-op log (0 captures everything).")
  in
  let json_file =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the captured span trees to $(docv) as JSON.")
  in
  let run until slow_ms json =
    handle
      (Obs.Trace.set_slow_threshold_s (slow_ms /. 1e3);
       Obs.Trace.set_enabled true;
       let* _ = build_state until in
       Obs.Trace.set_enabled false;
       let spans = Obs.Trace.slow () in
       Format.printf "%d slow operation(s) over %gms:@." (List.length spans)
         slow_ms;
       Format.printf "%a@." Obs.Export.pp_spans spans;
       match json with
       | None -> Ok ()
       | Some f ->
         let* () =
           write_file f (fun oc -> output_string oc (Obs.Export.spans_json spans))
         in
         Ok (Format.printf "span trees written to %s@." f))
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the scenario with tracing on and print the slow-op log's span \
          trees.")
    Term.(const run $ until_arg $ slow_ms $ json_file)

let audit_cmd =
  let run until =
    handle
      (let* st, _ = build_state until in
       let repo = st.Scn.repo in
       Format.printf "== consistency ==@.";
       (match Cml.Consistency.check_all (Repo.kb repo) with
       | [] -> Format.printf "  ok@."
       | vs ->
         List.iter (fun v -> Format.printf "  %a@." Cml.Consistency.pp_violation v) vs);
       Format.printf "== methodology (%s) ==@."
         Gkbms.Methodology.daida_kernel.Gkbms.Methodology.methodology_name;
       (match
          Gkbms.Methodology.check_history repo Gkbms.Methodology.daida_kernel
        with
       | [] -> Format.printf "  conforms@."
       | vs ->
         List.iter
           (fun v -> Format.printf "  %a@." Gkbms.Methodology.pp_violation v)
           vs);
       Format.printf "== open obligations ==@.";
       List.iter
         (fun dec ->
           match Gkbms.Decision.open_obligations repo dec with
           | [] -> ()
           | obs ->
             Format.printf "  %s: %s@." (Sym.name dec) (String.concat ", " obs))
         (Repo.decision_log repo);
       Format.printf "== reason maintenance ==@.";
       (match Gkbms.Backtrack.unsupported_objects repo with
       | [] -> Format.printf "  all design objects supported@."
       | objs ->
         List.iter (fun o -> Format.printf "  unsupported: %s@." (Sym.name o)) objs);
       Format.printf "== decision contexts ==@.";
       let ctx = Gkbms.Context.build repo in
       (match Gkbms.Context.nogoods ctx with
       | [] -> Format.printf "  no conflicting decision sets@."
       | ngs ->
         List.iter
           (fun ng -> Format.printf "  nogood: {%s}@." (String.concat ", " ng))
           ngs);
       List.iter
         (fun alt -> Format.printf "  alternative: {%s}@." (String.concat ", " alt))
         (Gkbms.Context.alternatives ctx);
       Ok ())
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Consistency, methodology, obligations, support and contexts.")
    Term.(const run $ until_arg)

(* serve / client -------------------------------------------------------- *)

let socket_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SOCKET"
         ~doc:"Unix-domain socket path.")

let serve_cmd =
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ]
           ~doc:"Disable the version-keyed response cache.")
  in
  let idle =
    Arg.(value & opt (some float) None & info [ "idle-timeout" ] ~docv:"SECONDS"
           ~doc:"Disconnect a session once a read or send on its socket \
                 waits $(docv) seconds without progress; a session busy \
                 answering a request is not idle.")
  in
  let role =
    Arg.(value
         & opt (enum [ ("single", `Single); ("leader", `Leader);
                       ("follower", `Follower) ]) `Single
         & info [ "role" ] ~docv:"ROLE"
             ~doc:"Replication role: $(b,single) (default, no replication), \
                   $(b,leader) (serve the repl command family so followers \
                   can stream the WAL; requires --wal), or $(b,follower) \
                   (bootstrap from --follow's leader, apply its committed \
                   decisions, serve reads only).  A single server or leader \
                   whose --wal directory already holds a checkpoint \
                   recovers from it instead of building the scenario.")
  in
  let follow =
    Arg.(value & opt (some string) None & info [ "follow" ] ~docv:"SOCKET"
           ~doc:"Leader socket to replicate from (follower role).")
  in
  let group_commit =
    Arg.(value
         & opt (pair ~sep:',' int int) Server.Daemon.default_config.group_commit
         & info [ "group-commit" ] ~docv:"K,T"
             ~doc:"Bound the write batches.  Group commit is always on: \
                   write commands arriving from all clients are journaled \
                   as one WAL batch with a single sync, then each client is \
                   acked.  A batch flushes at $(b,K) writes, $(b,T) \
                   microseconds after its first write, or as soon as no \
                   more writes arrive, whichever comes first.")
  in
  (* A signal handler runs on whichever thread reaches a poll point
     first, the daemon's own included, so it only makes [listen]
     return; [stop], which joins the daemon's threads, runs here. *)
  let serve_loop ~stop ~stopped daemon ~socket ~banner =
    let interrupt _ = Server.Daemon.interrupt daemon in
    Sys.set_signal Sys.sigint (Sys.Signal_handle interrupt);
    Sys.set_signal Sys.sigterm (Sys.Signal_handle interrupt);
    Format.printf "%s@." banner;
    let* () = Server.Daemon.listen daemon ~path:socket in
    stop ();
    Format.printf "%s@." stopped;
    Ok ()
  in
  let serve_daemon daemon =
    serve_loop ~stop:(fun () -> Server.Daemon.stop daemon)
      ~stopped:"server stopped." daemon
  in
  let run until wal socket no_cache idle role follow (k, t_us) =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* flight recorder dump-on-crash: SIGUSR2 snapshots the decision
       lifecycle ring next to the WAL (read back with
       recover --flight-log) *)
    Option.iter
      (fun dir ->
        Obs.Recorder.install_crash_dump ~path:(Obs.Recorder.default_file dir))
      wal;
    handle
      (let* () =
         if k >= 1 && t_us >= 0 then Ok ()
         else Error "invalid --group-commit (expected K >= 1 and T >= 0)"
       in
      let* () =
        match idle with
        | Some s when not (s >= 0.001 && s < 2_147_483_648.) ->
          Error "invalid --idle-timeout (expected at least 0.001 and below 2^31)"
        | _ -> Ok ()
      in
      let config =
        { Server.Daemon.default_config with
          cache = not no_cache;
          idle_timeout = idle;
          group_commit = (k, t_us);
        }
      in
      let flags =
        Printf.sprintf "cache %s%s, group-commit %d,%dus"
          (if no_cache then "off" else "on")
          (match wal with None -> "" | Some dir -> ", wal " ^ dir)
          k t_us
      in
      match role with
      | (`Single | `Leader) as role ->
        let leader = role = `Leader in
        let* () =
          if leader && wal = None then Error "serve --role leader requires --wal DIR"
          else Ok ()
        in
        let* daemon =
          match wal with
          | Some dir when Sys.file_exists (Gkbms.Durable.checkpoint_path dir) ->
            (* warm start: rebuild from the journal rather than replaying
               the scenario, so a restart keeps every acknowledged
               decision (and a leader's followers' generation cursors
               stay servable) *)
            let* durable, report = Gkbms.Durable.open_ ~dir () in
            Format.printf "recovered from %s:@.%a@." dir
              Gkbms.Durable.pp_report report;
            let daemon =
              Server.Daemon.create ~config (Gkbms.Durable.repo durable)
            in
            let* () = Server.Daemon.attach_durable daemon durable in
            Ok daemon
          | _ ->
            let* st, _ = build_state until in
            let daemon = Server.Daemon.create ~config st.Scn.repo in
            let* () =
              match wal with
              | None -> Ok ()
              | Some dir -> Server.Daemon.attach_wal daemon ~dir
            in
            Ok daemon
        in
        let* () =
          if leader then Result.map ignore (Replication.Leader.attach daemon)
          else Ok ()
        in
        serve_daemon daemon ~socket
          ~banner:
            (Printf.sprintf "gkbms %s listening on %s (%s)"
               (if leader then "leader" else "server")
               socket flags)
      | `Follower ->
        let* leader_sock =
          match follow with
          | Some a -> Ok a
          | None -> Error "serve --role follower requires --follow LEADER_SOCKET"
        in
        let* dir =
          match wal with
          | Some d -> Ok d
          | None ->
            Error "serve --role follower requires --wal DIR (its own journal)"
        in
        let connect () =
          Server.Client.connect_unix ~handshake:true leader_sock
        in
        (* the leader may still be starting up: retry the bootstrap *)
        let rec create_retry n =
          match
            Replication.Follower.create ~config ~leader:leader_sock ~connect
              ~dir ()
          with
          | Ok f -> Ok f
          | Error e when n > 0 ->
            Format.eprintf "waiting for leader: %s@." e;
            Thread.delay 0.5;
            create_retry (n - 1)
          | Error e -> Error e
        in
        let* follower = create_retry 20 in
        (* catch up before accepting clients, then keep pulling *)
        (match Replication.Follower.catch_up follower with
        | Ok () -> ()
        | Error e -> Format.eprintf "initial catch-up: %s@." e);
        Replication.Follower.start follower;
        serve_loop
          ~stop:(fun () -> Replication.Follower.stop follower)
          ~stopped:"follower stopped."
          (Replication.Follower.daemon follower)
          ~socket
          ~banner:
            (Printf.sprintf
               "gkbms follower listening on %s (leader %s, wal %s, applied %s)"
               socket leader_sock dir
               (let e, v = Replication.Follower.applied follower in
                Replication.Wire.format_session_token ~epoch:e ~version:v)))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve the scenario repository to concurrent clients over a \
             Unix-domain socket (reads run concurrently, writes serialize \
             in decision-log order; with --wal every committed decision is \
             journaled before the response is sent).  With --role leader \
             the WAL is also streamed to replication followers; with \
             --role follower --follow SOCKET this process bootstraps from \
             the leader's checkpoint, replays its committed decisions, and \
             serves reads at the applied version (writes are refused with \
             a redirect).")
    Term.(const run $ until_arg $ wal_arg $ socket_arg $ no_cache $ idle
          $ role $ follow $ group_commit)

let client_cmd =
  let exec_args =
    Arg.(value & opt_all string [] & info [ "e"; "exec" ] ~docv:"CMD"
           ~doc:"Send $(docv) and print the response (repeatable).")
  in
  let script_arg =
    Arg.(value & opt (some string) None & info [ "script" ] ~docv:"FILE"
           ~doc:"Send each non-empty line of $(docv) in order.")
  in
  let min_version_arg =
    Arg.(value & opt (some string) None & info [ "min-version" ] ~docv:"TOKEN"
           ~doc:"Read-your-writes: an EPOCH:VERSION session token (as \
                 returned by $(b,repl token) on the leader after a write); \
                 the client blocks until this server has applied at least \
                 that state before sending any command.")
  in
  let timing_arg =
    Arg.(value & flag & info [ "timing" ]
           ~doc:"Print each request's wall time and its trace id (requests \
                 are sent with a fresh trace context; look the trace up \
                 later with $(b,trace decision ID) or $(b,trace dump) on \
                 the server).")
  in
  let pipeline_arg =
    Arg.(value & opt int 1 & info [ "pipeline" ] ~docv:"K"
           ~doc:"Keep up to $(docv) requests in flight instead of one \
                 round trip at a time (batch mode only; against a \
                 group-commit server, back-to-back writes then share one \
                 WAL sync).  Responses print in submission order.  \
                 Default 1; a $(docv) above 64, the most writes a server \
                 session holds unacknowledged, is taken as 64.")
  in
  let run socket cmds script min_version timing pipeline =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    (* --timing also records this process's client.send spans, dumped
       after the command loop so a cross-process trace can be stitched
       from all three dumps (client, leader, follower) *)
    if timing then Obs.Trace.set_enabled true;
    let failed = ref false in
    let print_result = function
      | Ok payload -> if payload <> "" then Format.printf "%s@." payload
      | Error payload ->
        failed := true;
        Format.printf "%s@." payload
    in
    let code =
      handle
        (let* script_lines =
           match script with None -> Ok [] | Some file -> read_lines file
         in
         let* client = Server.Client.connect_unix socket in
         Fun.protect ~finally:(fun () -> Server.Client.close client) @@ fun () ->
         let* () =
           match min_version with
           | None -> Ok ()
           | Some token ->
             let* epoch, version = Replication.Wire.parse_session_token token in
             Result.map ignore
               (Server.Client.request client
                  (Printf.sprintf "wait %d %d" epoch version))
         in
         let send line =
           if timing then begin
             let t0 = Unix.gettimeofday () in
             let res, trace = Server.Client.request_traced client line in
             let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
             print_result res;
             Format.printf "# %.2f ms trace %s@." ms trace
           end
           else print_result (Server.Client.request client line)
         in
         (try
            (match cmds @ List.filter (fun l -> String.trim l <> "") script_lines with
            | _ :: _ as lines when pipeline > 1 ->
              List.iter print_result
                (Server.Client.pipeline ~window:pipeline client lines)
            | [] ->
              (* interactive *)
              let rec loop () =
                Format.printf "gkbms> %!";
                match In_channel.input_line stdin with
                | None -> ()
                | Some line when String.trim line = "" -> loop ()
                | Some line when Gkbms.Shell.is_quit line -> ()
                | Some line ->
                  send line;
                  loop ()
              in
              loop ()
            | lines -> List.iter send lines);
            if timing then
              Format.printf "# client spans@.%s@."
                (Obs.Export.spans_json (Obs.Trace.recent ()))
          with Sys_error _ ->
            (* stdout's reader has gone ([client ... | head -1]): stop, as
               SIGPIPE stops the other commands, and drop what stdout
               still buffers so nothing retries the write at exit *)
            close_out_noerr stdout);
         Ok ())
    in
    if code = 0 && !failed then 1 else code
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"Connect to a running gkbms server.  With -e or --script, send \
             the given commands and exit non-zero if any response is an \
             error; otherwise read commands interactively.  With \
             --min-version, first block until the server (typically a \
             replication follower) has applied the given session token.  \
             With --timing, print per-request wall time and trace id.  \
             With --pipeline K, keep up to K batch commands in flight.")
    Term.(const run $ socket_arg $ exec_args $ script_arg $ min_version_arg
          $ timing_arg $ pipeline_arg)

let repl_cmd =
  let run () =
    match Gkbms.Shell.create () with
    | Error e ->
      Format.eprintf "error: %s@." e;
      1
    | Ok shell ->
      Format.printf
        "GKBMS dialog manager — the meeting design is loaded; try 'help'.@.";
      let rec loop () =
        Format.printf "gkbms> %!";
        match In_channel.input_line stdin with
        | None -> 0
        | Some line when Gkbms.Shell.is_quit line -> 0
        | Some line ->
          let output = Gkbms.Shell.eval shell line in
          if output <> "" then Format.printf "%s@." output;
          loop ()
      in
      loop ()
  in
  Cmd.v
    (Cmd.info "repl" ~doc:"Interactive dialog manager (§3.3.1).")
    Term.(const run $ const ())

let main =
  Cmd.group
    (Cmd.info "gkbms" ~version:"1.0.0"
       ~doc:
         "A knowledge base management system for information system \
          evolution (Jarke & Rose, SIGMOD 1988).")
    [ scenario_cmd; focus_cmd; why_cmd; deps_cmd; config_cmd; source_cmd;
      ask_cmd; derive_cmd; explain_cmd; export_cmd; import_cmd; snapshot_cmd; recover_cmd;
      audit_cmd; repl_cmd; stats_cmd; trace_cmd; serve_cmd; client_cmd ]

(* A malformed observability variable is refused here, before any
   command runs, rather than silently replaced by its default.

   The server library ignores SIGPIPE process-wide, so that a peer that
   hangs up is an error on its socket.  A command that only prints
   should instead end quietly when its reader closes stdout ([gkbms
   recover DIR | head]), as other filters do, so the CLI takes the
   default back; [serve] and [client], which write to sockets, ignore
   it again. *)
let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_default;
  match Obs.Trace.env_errors Sys.getenv_opt with
  | [] -> exit (Cmd.eval' main)
  | errors ->
    List.iter (fun e -> prerr_endline ("error: " ^ e)) errors;
    exit 2
