open Kernel

type stats = { mutable resolutions : int; mutable lemma_hits : int }

module Atom_tbl = Hashtbl.Make (struct
  type t = Term.atom

  let equal = Term.atom_equal
  let hash (a : Term.atom) = Hashtbl.hash (Symbol.hash a.pred, a.args)
end)

type t = {
  program : Datalog.t;
  idb : Symbol.Set.t;
  (* lemma table: canonical subgoal -> ground answer tuples *)
  table : (Term.t array, unit) Hashtbl.t Atom_tbl.t;
  active : unit Atom_tbl.t;  (** canonical subgoals under evaluation *)
  mutable dirty : bool;  (** a goal was activated mid-fixpoint *)
  stats : stats;
  pub : stats;  (** values already flushed to the global registry *)
  mutable fresh : int;
}

let g_resolutions =
  Obs.Registry.counter Obs.Registry.default "gkbms_prover_resolutions_total"
    ~help:"Tabled resolution steps"

let g_lemma_hits =
  Obs.Registry.counter Obs.Registry.default "gkbms_prover_lemma_hits_total"
    ~help:"Subgoal answers served from the lemma table"

(* Resolution counting sits on the unification hot path, so the engine
   bumps plain record fields and the diff is flushed here, at the end of
   each public [solve]/[prove]. *)
let publish t =
  if t.stats.resolutions > t.pub.resolutions then
    Obs.Registry.Counter.inc g_resolutions
      ~by:(t.stats.resolutions - t.pub.resolutions);
  if t.stats.lemma_hits > t.pub.lemma_hits then
    Obs.Registry.Counter.inc g_lemma_hits
      ~by:(t.stats.lemma_hits - t.pub.lemma_hits);
  t.pub.resolutions <- t.stats.resolutions;
  t.pub.lemma_hits <- t.stats.lemma_hits

let make program =
  let idb =
    List.fold_left
      (fun acc (c : Term.clause) -> Symbol.Set.add c.head.pred acc)
      Symbol.Set.empty (Datalog.clauses program)
  in
  {
    program;
    idb;
    table = Atom_tbl.create 256;
    active = Atom_tbl.create 256;
    dirty = false;
    stats = { resolutions = 0; lemma_hits = 0 };
    pub = { resolutions = 0; lemma_hits = 0 };
    fresh = 0;
  }

(* A snapshot, not the live record: handing out the internal mutable
   record would let a caller alias the prover's counters. *)
let stats t =
  { resolutions = t.stats.resolutions; lemma_hits = t.stats.lemma_hits }

let lemma_count t = Atom_tbl.length t.table

let subgoals t =
  Atom_tbl.fold (fun g set acc -> (g, Hashtbl.length set) :: acc) t.table []

let clear_lemmas t =
  Atom_tbl.reset t.table;
  Atom_tbl.reset t.active

(* Canonical renaming: variables become V0, V1, ... in order of first
   occurrence, so equal-up-to-renaming subgoals share one lemma entry. *)
let canonicalize (a : Term.atom) =
  let mapping = Hashtbl.create 8 in
  let counter = ref 0 in
  let args =
    Array.map
      (fun t ->
        match t with
        | Term.Var v -> (
          match Hashtbl.find_opt mapping v with
          | Some t' -> t'
          | None ->
            let t' = Term.Var (Printf.sprintf "V%d" !counter) in
            incr counter;
            Hashtbl.add mapping v t';
            t')
        | Term.Sym _ | Term.Int _ -> t)
      a.Term.args
  in
  { a with Term.args }

let is_idb t p = Symbol.Set.mem p t.idb

let clauses_for t p =
  List.filter
    (fun (c : Term.clause) -> Symbol.equal c.head.pred p)
    (Datalog.clauses t.program)

(* ------------------------------------------------------------------ *)
(* Tabled evaluation                                                   *)
(* ------------------------------------------------------------------ *)

let table_entry t goal =
  match Atom_tbl.find_opt t.table goal with
  | Some set -> set
  | None ->
    let set = Hashtbl.create 16 in
    Atom_tbl.add t.table goal set;
    set

let activate t (goal : Term.atom) =
  let g = canonicalize goal in
  if not (Atom_tbl.mem t.active g) then begin
    Atom_tbl.add t.active g ();
    ignore (table_entry t g);
    t.dirty <- true
  end;
  g

(* One global fixpoint over every active subgoal.  Evaluating a clause
   body may activate further subgoals (setting [dirty]), which the loop
   then picks up; answers grow monotonically, so the loop terminates on
   function-free programs. *)
let rec run_fixpoint t =
  let changed = ref true in
  while !changed || t.dirty do
    t.dirty <- false;
    changed := false;
    let goals = Atom_tbl.fold (fun g () acc -> g :: acc) t.active [] in
    List.iter
      (fun (g : Term.atom) ->
        let set = table_entry t g in
        List.iter
          (fun (c : Term.clause) ->
            t.fresh <- t.fresh + 1;
            let c = Term.rename_clause t.fresh c in
            match Term.unify_atoms c.head g Term.Subst.empty with
            | None -> ()
            | Some subst ->
              t.stats.resolutions <- t.stats.resolutions + 1;
              let substs = eval_body_tabled t subst c.body in
              List.iter
                (fun subst ->
                  let inst = Term.Subst.apply_atom subst g in
                  if Term.atom_ground inst && not (Hashtbl.mem set inst.args)
                  then begin
                    Hashtbl.add set inst.args ();
                    changed := true
                  end)
                substs)
          (clauses_for t g.pred))
      goals
  done

and tabled_answers t (goal : Term.atom) : Term.t array list =
  let g = activate t goal in
  run_fixpoint t;
  let set = table_entry t g in
  Hashtbl.fold (fun tup () acc -> tup :: acc) set []

and eval_body_tabled t subst body =
  let rec go substs pending = function
    | [] ->
      List.filter
        (fun subst ->
          List.for_all
            (fun lit ->
              match lit with
              | Term.Neg a ->
                not (ground_holds_tabled t (Term.Subst.apply_atom subst a))
              | Term.Cmp (op, l, r) -> (
                match
                  Term.eval_cmp op (Term.Subst.apply subst l)
                    (Term.Subst.apply subst r)
                with
                | Some b -> b
                | None -> false)
              | Term.Pos _ -> true)
            pending)
        substs
    | Term.Pos a :: rest ->
      let substs =
        List.concat_map
          (fun subst ->
            let inst = Term.Subst.apply_atom subst a in
            let tuples =
              if is_idb t inst.pred then begin
                let canon = activate t inst in
                let set = table_entry t canon in
                t.stats.lemma_hits <- t.stats.lemma_hits + 1;
                Hashtbl.fold (fun tup () acc -> tup :: acc) set []
              end
              else
                List.map
                  (fun s ->
                    (Term.Subst.apply_atom s inst).Term.args)
                  (Datalog.match_atom t.program inst Term.Subst.empty)
            in
            List.filter_map
              (fun tup ->
                let n = Array.length inst.args in
                if Array.length tup <> n then None
                else
                  let rec loop i subst =
                    if i = n then Some subst
                    else
                      match Term.unify inst.args.(i) tup.(i) subst with
                      | Some subst -> loop (i + 1) subst
                      | None -> None
                  in
                  loop 0 subst)
              tuples)
          substs
      in
      if substs = [] then [] else go substs pending rest
    | (Term.Neg _ as lit) :: rest | (Term.Cmp _ as lit) :: rest ->
      go substs (lit :: pending) rest
  in
  go [ subst ] [] body

and ground_holds_tabled t (a : Term.atom) =
  if is_idb t a.pred then begin
    (* run the negated subgoal to completion in an isolated sub-prover:
       stratification guarantees it does not depend on the goals still
       in flight in [t], so its fixpoint is final *)
    let sub = make t.program in
    let answers = tabled_answers sub a in
    t.stats.resolutions <- t.stats.resolutions + sub.stats.resolutions;
    List.exists (fun tup -> tup = a.args) answers
  end
  else Datalog.match_atom t.program a Term.Subst.empty <> []

(* ------------------------------------------------------------------ *)
(* Public interface                                                    *)
(* ------------------------------------------------------------------ *)

let restrict_to_goal_vars (goal_atoms : Term.atom list) subst =
  let vars =
    List.sort_uniq String.compare (List.concat_map Term.atom_vars goal_atoms)
  in
  List.fold_left
    (fun acc v ->
      match Term.Subst.lookup v subst with
      | Some _ ->
        Term.Subst.bind v (Term.Subst.apply subst (Term.Var v)) acc
      | None -> acc)
    Term.Subst.empty vars

let dedup_substs substs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun s ->
      let key = List.map (fun (v, t) -> (v, t)) (Term.Subst.to_list s) in
      if Hashtbl.mem seen key then false
      else begin
        Hashtbl.add seen key ();
        true
      end)
    substs

let solve_tabled t goal_atoms =
  (* conjunction: evaluate left-to-right, joining answers *)
  let rec go substs = function
    | [] -> substs
    | a :: rest ->
      let substs =
        List.concat_map
          (fun subst ->
            let inst = Term.Subst.apply_atom subst a in
            let tuples =
              if is_idb t inst.pred then tabled_answers t inst
              else
                List.map
                  (fun s -> (Term.Subst.apply_atom s inst).Term.args)
                  (Datalog.match_atom t.program inst Term.Subst.empty)
            in
            List.filter_map
              (fun tup ->
                let n = Array.length inst.args in
                if Array.length tup <> n then None
                else
                  let rec loop i subst =
                    if i = n then Some subst
                    else
                      match Term.unify inst.args.(i) tup.(i) subst with
                      | Some subst -> loop (i + 1) subst
                      | None -> None
                  in
                  loop 0 subst)
              tuples)
          substs
      in
      go substs rest
  in
  go [ Term.Subst.empty ] goal_atoms

let solve t goal_atoms =
  let raw = solve_tabled t goal_atoms in
  let r = dedup_substs (List.map (restrict_to_goal_vars goal_atoms) raw) in
  publish t;
  r

let prove t goal_atoms = solve t goal_atoms <> []
