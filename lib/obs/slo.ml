type objective = { cmd : string; target_s : float }

(* Objectives live in a mutexed table seeded from GKBMS_SLO
   ("run=50ms,derive=10ms,default=250ms"); the "default" entry is the
   fallback for commands without their own objective and always
   exists, so every request is SLO-accounted out of the box.  The
   per-command tallies are the registry's request and breach counters;
   there is no second copy. *)
let m = Mutex.create ()
let default_target_s = 0.25
let objectives : (string, float) Hashtbl.t = Hashtbl.create 16
let default_budget = 0.01

let budget_of_string s =
  match float_of_string_opt (String.trim s) with
  | Some f when f > 0. && f <= 1. -> Ok f
  | _ ->
    Error (Printf.sprintf "bad error budget %S (want a fraction in (0, 1])" s)

let duration_of_string s =
  let s = String.trim s in
  let num suffix =
    float_of_string_opt
      (String.trim (String.sub s 0 (String.length s - String.length suffix)))
  in
  let scaled =
    if String.length s > 2 && Filename.check_suffix s "ms" then
      Option.map (fun f -> f /. 1e3) (num "ms")
    else if String.length s > 2 && Filename.check_suffix s "us" then
      Option.map (fun f -> f /. 1e6) (num "us")
    else if String.length s > 1 && Filename.check_suffix s "s" then num "s"
    else Option.map (fun f -> f /. 1e3) (float_of_string_opt s)
    (* bare number = ms *)
  in
  match scaled with
  | Some f when f >= 0. && Float.is_finite f -> Some f
  | _ -> None

let parse_spec spec =
  let entries = String.split_on_char ',' spec in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | e :: rest -> (
      let e = String.trim e in
      if e = "" then go acc rest
      else
        match String.index_opt e '=' with
        | None -> Error (Printf.sprintf "bad SLO entry %S (want cmd=duration)" e)
        | Some i -> (
          let cmd = String.trim (String.sub e 0 i) in
          let dur = String.sub e (i + 1) (String.length e - i - 1) in
          match (cmd, duration_of_string dur) with
          | "", _ -> Error (Printf.sprintf "bad SLO entry %S: empty command" e)
          | _, None ->
            Error
              (Printf.sprintf "bad SLO entry %S: unparseable duration %S" e dur)
          | cmd, Some target_s -> go ({ cmd; target_s } :: acc) rest))
  in
  go [] entries

(* Built-in seeds: the replication verbs long-poll by design (the
   leader holds [repl frames] up to the follower's wait budget, [wait]
   blocks for read-your-writes), so counting them against the 250ms
   default would burn the budget on healthy behaviour. *)
let seed_objectives tbl =
  Hashtbl.replace tbl "default" default_target_s;
  Hashtbl.replace tbl "repl" 2.0;
  Hashtbl.replace tbl "wait" 2.0

let set_objectives objs =
  Mutex.lock m;
  Hashtbl.reset objectives;
  seed_objectives objectives;
  List.iter (fun { cmd; target_s } -> Hashtbl.replace objectives cmd target_s) objs;
  Mutex.unlock m

let configure spec =
  match parse_spec spec with
  | Ok objs ->
    set_objectives objs;
    Ok ()
  | Error _ as e -> e

(* The environment's settings: unset is the default, and a set but
   malformed value is an error that names the variable.  Startup keeps
   the default for it; the CLI refuses to start ([env_errors]). *)
let setting getenv var parse ~default =
  match getenv var with
  | None -> Ok default
  | Some s -> Result.map_error (fun e -> var ^ ": " ^ e) (parse s)

let spec_setting getenv = setting getenv "GKBMS_SLO" parse_spec ~default:[]

let budget_setting getenv =
  setting getenv "GKBMS_SLO_BUDGET" budget_of_string ~default:default_budget

let env_errors getenv =
  List.filter_map
    (function Ok () -> None | Error e -> Some e)
    [ Result.map ignore (spec_setting getenv);
      Result.map ignore (budget_setting getenv) ]

let budget =
  Result.value (budget_setting Sys.getenv_opt) ~default:default_budget

let () =
  seed_objectives objectives;
  Result.iter set_objectives (spec_setting Sys.getenv_opt)

let objective_for cmd =
  Mutex.lock m;
  let t =
    match Hashtbl.find_opt objectives cmd with
    | Some t -> t
    | None -> (
      match Hashtbl.find_opt objectives "default" with
      | Some t -> t
      | None -> default_target_s)
  in
  Mutex.unlock m;
  t

let requests_name = "gkbms_slo_requests_total"
let breaches_name = "gkbms_slo_breaches_total"

let requests_total cmd =
  Registry.counter Registry.default requests_name
    ~help:"Requests observed against a latency SLO" ~labels:[ ("cmd", cmd) ]

let breaches_total cmd =
  Registry.counter Registry.default breaches_name
    ~help:"Requests that blew their latency objective" ~labels:[ ("cmd", cmd) ]

let burn_rate_gauge cmd =
  Registry.gauge Registry.default "gkbms_slo_burn_rate"
    ~help:
      "Breach ratio divided by the error budget (1.0 = burning exactly the \
       budget)"
    ~labels:[ ("cmd", cmd) ]

(* A tally read without registering its series: a command registers a
   breach counter only once it breaches. *)
let count name cmd =
  match Registry.find Registry.default ~labels:[ ("cmd", cmd) ] name with
  | Some { Registry.value = Registry.Counter_v n; _ } -> n
  | Some _ | None -> 0

(* The SLO counter series, as (name, cmd, count). *)
let tallies () =
  List.filter_map
    (fun (s : Registry.sample) ->
      match (s.labels, s.value) with
      | [ ("cmd", cmd) ], Registry.Counter_v n
        when s.name = requests_name || s.name = breaches_name ->
        Some (s.name, cmd, n)
      | _ -> None)
    (Registry.snapshot Registry.default)

let reset_counts () =
  List.iter
    (fun (name, cmd, _) ->
      Registry.Counter.reset
        (Registry.counter Registry.default name ~labels:[ ("cmd", cmd) ]);
      if name = requests_name then Registry.Gauge.set (burn_rate_gauge cmd) 0.)
    (tallies ())

let observe ~cmd seconds =
  let breach = seconds > objective_for cmd in
  let requests = requests_total cmd in
  Registry.Counter.inc requests;
  if breach then Registry.Counter.inc (breaches_total cmd);
  Registry.Gauge.set (burn_rate_gauge cmd)
    (Float.of_int (count breaches_name cmd)
    /. Float.of_int (Registry.Counter.get requests)
    /. budget);
  breach

let render () =
  let observed = tallies () in
  Mutex.lock m;
  let objs =
    Hashtbl.fold (fun cmd t acc -> (cmd, t) :: acc) objectives []
    |> List.sort compare
  in
  (* commands observed without a dedicated objective (accounted against
     "default") still deserve a row; resolve the fallback inline — the
     lock is held, so calling objective_for here would self-deadlock *)
  let fallback =
    Option.value
      (Hashtbl.find_opt objectives "default")
      ~default:default_target_s
  in
  let extra =
    List.filter_map
      (fun (name, cmd, n) ->
        if name = requests_name && n > 0 && not (Hashtbl.mem objectives cmd)
        then Some (cmd, fallback)
        else None)
      observed
  in
  Mutex.unlock m;
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "%-20s %12s %10s %10s %10s %8s\n" "cmd" "objective_ms"
       "requests" "breaches" "breach_pct" "burn");
  List.iter
    (fun (cmd, target) ->
      let requests = count requests_name cmd
      and breaches = count breaches_name cmd in
      let ratio =
        if requests = 0 then 0.
        else Float.of_int breaches /. Float.of_int requests
      in
      Buffer.add_string b
        (Printf.sprintf "%-20s %12.1f %10d %10d %9.2f%% %8.2f\n" cmd
           (target *. 1e3) requests breaches (ratio *. 100.) (ratio /. budget)))
    (objs @ List.sort compare extra);
  Buffer.add_string b
    (Printf.sprintf "error budget: %.2f%% of requests may breach\n"
       (budget *. 100.));
  Buffer.contents b
