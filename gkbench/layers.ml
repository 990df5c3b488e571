(* Per-layer self time from span trees.

   A span's self time is its duration minus its children's; each span
   name maps to one layer.  A client round trip minus the server's
   root span is the wire and per-connection queueing time. *)

type span = {
  name : string;
  dur_s : float;
  attrs : (string * string) list;
  children : span list;
}

let rec of_json j =
  let str k = Option.bind (Json.member k j) Json.to_string_opt in
  {
    name = Option.value (str "name") ~default:"";
    dur_s =
      (match Json.member "duration_us" j with Some (Json.Num us) -> us /. 1e6 | _ -> 0.);
    attrs =
      (match Json.member "attrs" j with
      | Some (Json.Obj kvs) ->
        List.filter_map (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_string_opt v)) kvs
      | _ -> []);
    children = List.map of_json (Json.to_list (Option.value (Json.member "children" j) ~default:Json.Null));
  }

(* The root spans of a [trace dump] answer. *)
let of_dump payload =
  List.map of_json (Json.to_list (Option.value (Json.member "spans" (Json.parse payload)) ~default:Json.Null))

let rec of_trace (sp : Obs.Trace.span) =
  {
    name = sp.Obs.Trace.span_name;
    dur_s = sp.Obs.Trace.duration_s;
    attrs = sp.Obs.Trace.attrs;
    children = List.map of_trace (Obs.Trace.children sp);
  }

let shell_verbs =
  [ "focus"; "why"; "history"; "menu"; "source"; "derive"; "stats"; "config"; "deps"; "run" ]

let layer_of sp =
  match sp.name with
  | "server.request" -> "daemon.self"
  | "shell.eval" ->
    let cmd = Option.value (List.assoc_opt "cmd" sp.attrs) ~default:"" in
    let verb = match String.split_on_char ' ' (String.trim cmd) with v :: _ -> v | [] -> "" in
    "shell." ^ if List.mem verb shell_verbs then verb else "other"
  | "decision.execute" -> "decision.self"
  | "gkbench.retract" -> "backtrack.retract"
  | ( "decision.check_inputs" | "decision.tool_run" | "decision.check_outputs"
    | "decision.bookkeeping" | "decision.consistency_check" | "decision.commit"
    | "wal.append" | "durable.checkpoint" ) as n -> n
  | _ -> "other"

let layers =
  [ "wire.queue"; "daemon.self" ]
  @ List.map (fun v -> "shell." ^ v) (shell_verbs @ [ "other" ])
  @ [
      "decision.check_inputs"; "decision.tool_run"; "decision.check_outputs";
      "decision.bookkeeping"; "decision.consistency_check"; "decision.commit";
      "decision.self"; "wal.append"; "durable.checkpoint"; "backtrack.retract";
    ]

type t = {
  self : (string, float) Hashtbl.t;
  calls : (string, int) Hashtbl.t;
  mutable op_s : float;
  mutable ops : int;
}

let create () = { self = Hashtbl.create 32; calls = Hashtbl.create 32; op_s = 0.; ops = 0 }

let bump t layer s =
  Hashtbl.replace t.self layer (s +. Option.value (Hashtbl.find_opt t.self layer) ~default:0.);
  Hashtbl.replace t.calls layer (1 + Option.value (Hashtbl.find_opt t.calls layer) ~default:0)

let rec add_tree t sp =
  let covered = List.fold_left (fun acc c -> acc +. c.dur_s) 0. sp.children in
  bump t (layer_of sp) (sp.dur_s -. covered);
  List.iter (add_tree t) sp.children

(* One operation: [total] is what the client saw (round trip, or the
   in-process call), [root] the outermost span of its work. *)
let add_op t ~total root =
  t.op_s <- t.op_s +. total;
  t.ops <- t.ops + 1;
  bump t "wire.queue" (total -. root.dur_s);
  add_tree t root

let seconds t layer = Option.value (Hashtbl.find_opt t.self layer) ~default:0.
let calls t layer = Option.value (Hashtbl.find_opt t.calls layer) ~default:0
let pct t layer = if t.op_s > 0. then 100. *. seconds t layer /. t.op_s else 0.

(* Self time per call of the layer, in microseconds; 0 where no
   traced operation entered it. *)
let us_per_call t layer =
  match calls t layer with 0 -> 0. | n -> 1e6 *. seconds t layer /. float_of_int n

let metrics t = List.map (fun l -> (l ^ "_us", us_per_call t l)) layers

let report t =
  Printf.sprintf "  %d traced ops, %.1f us each\n" t.ops
    (if t.ops = 0 then 0. else 1e6 *. t.op_s /. float_of_int t.ops)
  ^ String.concat ""
      (List.filter_map
         (fun l ->
           if calls t l = 0 then None
           else
             Some
               (Printf.sprintf "  %-28s %8d calls %10.1f us/call %6.2f%% of op time\n" l
                  (calls t l) (us_per_call t l) (pct t l)))
         layers)
