module Stats = Stats
module Cost = Cost
module Magic = Magic

open Kernel
module Term = Logic.Term
module Datalog = Logic.Datalog

let reg = Obs.Registry.default

let g_plans =
  Obs.Registry.counter reg "gkbms_planner_plans_total"
    ~help:"Queries planned (any strategy)"

let g_magic =
  Obs.Registry.counter reg "gkbms_planner_magic_rewrites_total"
    ~help:"Queries answered through a magic-sets rewrite"

let g_fallbacks =
  Obs.Registry.counter reg "gkbms_planner_fallbacks_total"
    ~help:"IDB queries where magic was unsafe (nonmonotone cone): cost-ordered full evaluation"

let g_edb =
  Obs.Registry.counter reg "gkbms_planner_edb_shortcuts_total"
    ~help:"Queries on extensional predicates answered straight from the indexes"

let g_plan_us =
  Obs.Registry.histogram reg "gkbms_planner_plan_us"
    ~help:"Planning time (statistics + rewrite, before evaluation) in microseconds"

(* What the planner decided for one query, before evaluation. *)
type plan =
  | Edb  (** extensional/external: match stored indexes directly *)
  | Magic of Magic.rewrite
  | Ordered of (Term.clause * Cost.body_plan) list
      (** nonmonotone cone: full program, cost-ordered bodies *)

let make_plan ?stats d (q : Term.atom) =
  let est = Cost.of_stats ?stats d in
  match
    Magic.rewrite ~est ~is_idb:(Datalog.is_idb d) ~rules:(Datalog.clauses d) q
  with
  | Ok rw -> Magic rw
  | Error `Edb -> Edb
  | Error `Nonmonotone ->
    Ordered
      (List.map
         (fun (c : Term.clause) ->
           let plan = Cost.order_body est ~bound:Cost.Vars.empty c.body in
           let body = List.map (fun (lp : Cost.lit_plan) -> lp.lit) plan.order in
           ({ c with Term.body }, plan))
         (Datalog.clauses d))

let timed_plan ?stats d q =
  let t0 = Unix.gettimeofday () in
  let p = make_plan ?stats d q in
  Obs.Registry.Counter.inc g_plans;
  Obs.Histogram.observe g_plan_us ((Unix.gettimeofday () -. t0) *. 1e6);
  (match p with
  | Edb -> Obs.Registry.Counter.inc g_edb
  | Magic _ -> Obs.Registry.Counter.inc g_magic
  | Ordered _ -> Obs.Registry.Counter.inc g_fallbacks);
  p

(* Install the planned program into a fresh view, solve, match. *)
let run_plan ?pool d (q : Term.atom) = function
  | Edb -> Ok (Datalog.match_atom d q Term.Subst.empty)
  | Magic rw -> (
    let view = Datalog.derive_view d in
    let rec install = function
      | [] -> Ok ()
      | c :: rest -> (
        match Datalog.add_clause view c with
        | Ok () -> install rest
        | Error e -> Error e)
    in
    match install rw.Magic.clauses with
    | Error e -> Error e
    | Ok () -> (
      match Datalog.solve ?pool view with
      | Error e -> Error e
      | Ok () -> Ok (Datalog.match_atom view rw.Magic.answer Term.Subst.empty)))
  | Ordered planned -> (
    let view = Datalog.derive_view d in
    let rec install = function
      | [] -> Ok ()
      | (c, _) :: rest -> (
        match Datalog.add_clause view c with
        | Ok () -> install rest
        | Error e -> Error e)
    in
    match install planned with
    | Error e -> Error e
    | Ok () -> (
      match Datalog.solve ?pool view with
      | Error e -> Error e
      | Ok () -> Ok (Datalog.match_atom view q Term.Subst.empty)))

let query ?stats ?pool d q = run_plan ?pool d q (timed_plan ?stats d q)

(* Explain ---------------------------------------------------------------- *)

let pp_est ppf v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Format.fprintf ppf "%.0f" v
  else Format.fprintf ppf "%.1f" v

let render_lit_plan buf indent (lp : Cost.lit_plan) =
  match lp.lit with
  | Term.Pos _ ->
    Buffer.add_string buf
      (Format.asprintf "%s%a  (est %a rows, %s)\n" indent Term.pp_literal
         lp.lit pp_est lp.est_rows
         (if lp.indexed then "indexed" else "scan"))
  | Term.Neg _ | Term.Cmp _ ->
    Buffer.add_string buf
      (Format.asprintf "%s%a  (filter)\n" indent Term.pp_literal lp.lit)

let render_statistics ?stats buf d preds =
  let est = Cost.of_stats ?stats d in
  List.iter
    (fun p ->
      match est.Cost.rows p with
      | Some n ->
        Buffer.add_string buf
          (Format.asprintf "  %a: %d rows\n" Symbol.pp p n)
      | None ->
        Buffer.add_string buf (Format.asprintf "  %a: no statistics\n" Symbol.pp p))
    preds

let body_preds (cs : Term.clause list) =
  List.concat_map
    (fun (c : Term.clause) ->
      List.filter_map
        (function
          | Term.Pos a | Term.Neg a -> Some a.Term.pred
          | Term.Cmp _ -> None)
        c.body)
    cs
  |> List.sort_uniq Symbol.compare

let explain ?stats ?pool d (q : Term.atom) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Format.asprintf "query: %a\n" Term.pp_atom q);
  let plan = timed_plan ?stats d q in
  (match plan with
  | Edb ->
    Buffer.add_string buf
      "strategy: extensional (stored indexes, no rule evaluation)\n";
    Buffer.add_string buf "statistics:\n";
    render_statistics ?stats buf d [ q.Term.pred ]
  | Magic rw ->
    Buffer.add_string buf
      (Format.asprintf
         "strategy: magic-sets (%d adorned predicates, %d magic rules, %d clauses)\n"
         (List.length rw.Magic.adorned_preds)
         rw.Magic.magic_rules
         (List.length rw.Magic.clauses));
    Buffer.add_string buf "statistics:\n";
    render_statistics ?stats buf d (body_preds (Datalog.clauses d));
    Buffer.add_string buf "plan:\n";
    List.iter
      (fun (rp : Magic.rule_plan) ->
        Buffer.add_string buf
          (Format.asprintf "  %a  (est out %a)\n" Term.pp_clause rp.Magic.clause
             pp_est rp.Magic.est_out);
        List.iter (render_lit_plan buf "    ") rp.Magic.lits)
      rw.Magic.rule_plans
  | Ordered planned ->
    Buffer.add_string buf
      "strategy: cost-ordered full evaluation (nonmonotone cone: magic-sets unsafe)\n";
    Buffer.add_string buf "statistics:\n";
    render_statistics ?stats buf d (body_preds (Datalog.clauses d));
    Buffer.add_string buf "plan:\n";
    List.iter
      (fun ((c : Term.clause), (bp : Cost.body_plan)) ->
        Buffer.add_string buf
          (Format.asprintf "  %a  (est out %a)\n" Term.pp_clause c pp_est
             bp.Cost.est_out);
        List.iter (render_lit_plan buf "    ") bp.Cost.order)
      planned);
  (* Evaluate the plan once to show estimated vs. actual cardinalities
     (for magic plans, on a view we keep so materializations can be
     counted per adorned predicate). *)
  let evaluated =
    match plan with
    | Magic rw -> (
      let view = Datalog.derive_view d in
      let rec install = function
        | [] -> Ok ()
        | c :: rest -> (
          match Datalog.add_clause view c with
          | Ok () -> install rest
          | Error e -> Error e)
      in
      match install rw.Magic.clauses with
      | Error e -> Error e
      | Ok () -> (
        match Datalog.solve ?pool view with
        | Error e -> Error e
        | Ok () ->
          Buffer.add_string buf "estimated vs actual:\n";
          let est_of p =
            List.filter_map
              (fun (rp : Magic.rule_plan) ->
                if Symbol.equal rp.Magic.pred p then Some rp.Magic.est_out
                else None)
              rw.Magic.rule_plans
          in
          List.iter
            (fun (p, ad) ->
              let actual = List.length (Datalog.facts_of view p) in
              match est_of p with
              | [] ->
                Buffer.add_string buf
                  (Format.asprintf "  %a[%s]: actual %d\n" Symbol.pp p ad
                     actual)
              | ests ->
                Buffer.add_string buf
                  (Format.asprintf "  %a[%s]: est %a, actual %d\n" Symbol.pp p
                     ad pp_est
                     (List.fold_left ( +. ) 0. ests)
                     actual))
            rw.Magic.adorned_preds;
          Ok (Datalog.match_atom view rw.Magic.answer Term.Subst.empty)))
    | Edb | Ordered _ -> run_plan ?pool d q plan
  in
  match evaluated with
  | Error e -> Error e
  | Ok answers ->
    Buffer.add_string buf (Format.asprintf "answers: %d\n" (List.length answers));
    Ok (Buffer.contents buf)
