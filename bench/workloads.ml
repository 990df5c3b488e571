(* Synthetic workload generators for the experiment harness.  Everything
   is deterministic so runs are comparable. *)

open Kernel
module Tdl = Langs.Taxis_dl
module Repo = Gkbms.Repository
module Dec = Gkbms.Decision
module Term = Logic.Term

let ok = function Ok v -> v | Error e -> failwith ("workload: " ^ e)

(* A complete IsA tree of entity classes: [fanout^0 + ... + fanout^depth]
   classes, root "H", every class with two own attributes (one set-valued
   at the leaves). *)
let hierarchy ~depth ~fanout =
  let classes = ref [] in
  let rec grow name level supers =
    let attrs =
      [ Tdl.attribute (name ^ "_a") "String" ]
      @
      if level = depth then [ Tdl.attribute ~kind:Tdl.SetOf (name ^ "_s") "Item" ]
      else [ Tdl.attribute (name ^ "_b") "Int" ]
    in
    classes := Tdl.entity_class ~supers ~attrs name :: !classes;
    if level < depth then
      for i = 1 to fanout do
        grow (Printf.sprintf "%s_%d" name i) (level + 1) [ name ]
      done
  in
  grow "H" 0 [];
  {
    Tdl.design_name = Printf.sprintf "Hier_d%d_f%d" depth fanout;
    classes = List.rev !classes;
    transactions = [];
  }

(* A repository holding the given design, mapped or not. *)
let repo_with_design ?(mapped = false) design =
  let repo = Repo.create () in
  Gkbms.Mapping.register_tools repo;
  ignore (ok (Gkbms.Mapping.load_design repo design));
  if mapped then
    ignore
      (ok
         (Dec.execute repo ~decision_class:Gkbms.Metamodel.dec_distribute
            ~tool:Gkbms.Mapping.mapping_tool_distribute
            ~inputs:[ ("entity", Symbol.intern "H") ]
            ~params:[ ("design", design.Tdl.design_name) ]
            ()));
  repo

(* A repository whose decision log is a chain of [n] manual edits, each
   revising the previous edit's output: retracting the k-th decision has
   exactly n-k+1 consequences. *)
let edit_chain n =
  let repo = Repo.create () in
  Gkbms.Mapping.register_tools repo;
  let seed =
    ok
      (Repo.new_object repo ~name:"Doc" ~cls:Gkbms.Metamodel.dbpl_object
         (Repo.Text "v0"))
  in
  let decisions = ref [] in
  let current = ref seed in
  for i = 1 to n do
    let executed =
      ok
        (Dec.execute repo ~decision_class:Gkbms.Metamodel.dec_manual_edit
           ~tool:Gkbms.Mapping.editor_tool
           ~inputs:[ ("object", !current) ]
           ~params:[ ("text", Printf.sprintf "v%d" i) ]
           ())
    in
    decisions := executed.Dec.decision :: !decisions;
    (match List.assoc_opt "edited" executed.Dec.outputs with
    | Some o -> current := o
    | None -> failwith "edit chain: no output");
    ()
  done;
  (repo, List.rev !decisions)

(* [w] independent documents, each revised once by its own decision.
   Retracting the first document's decision touches exactly one decision;
   chronological backtracking would have to undo and redo all [w-1]
   later, independent ones. *)
let independent_edits w =
  let repo = Repo.create () in
  Gkbms.Mapping.register_tools repo;
  let decisions = ref [] in
  for i = 0 to w - 1 do
    let name = Printf.sprintf "Doc%dx" i in
    let doc =
      ok
        (Repo.new_object repo ~name ~cls:Gkbms.Metamodel.dbpl_object
           (Repo.Text "v0"))
    in
    let executed =
      ok
        (Dec.execute repo ~decision_class:Gkbms.Metamodel.dec_manual_edit
           ~tool:Gkbms.Mapping.editor_tool
           ~inputs:[ ("object", doc) ]
           ~params:[ ("text", "v1") ]
           ())
    in
    decisions := executed.Dec.decision :: !decisions
  done;
  (repo, List.rev !decisions)

(* Proposition-base population: a library KB of [n] objects in [k]
   classes with one attribute each. *)
let populated_kb n =
  let kb = Cml.Kb.create () in
  ignore (ok (Cml.Kb.declare kb "Thing"));
  ignore (ok (Cml.Kb.declare kb "Value"));
  for i = 0 to n - 1 do
    let name = Printf.sprintf "obj%d" i in
    ignore (ok (Cml.Kb.declare kb name));
    ignore (ok (Cml.Kb.add_instanceof kb ~inst:name ~cls:"Thing"));
    ignore
      (ok (Cml.Kb.add_attribute kb ~source:name ~label:"val" ~dest:"Value"))
  done;
  kb

(* Datalog program: transitive closure over a [n]-edge chain graph. *)
let chain_program n =
  let d = Logic.Datalog.create () in
  for i = 0 to n - 1 do
    ignore
      (Logic.Datalog.add_fact d
         (Term.atom "edge"
            [ Term.sym (Printf.sprintf "n%d" i);
              Term.sym (Printf.sprintf "n%d" (i + 1)) ]))
  done;
  ignore
    (Logic.Datalog.add_clause d
       (Term.clause
          (Term.atom "path" [ Term.var "X"; Term.var "Y" ])
          [ Term.Pos (Term.atom "edge" [ Term.var "X"; Term.var "Y" ]) ]));
  ignore
    (Logic.Datalog.add_clause d
       (Term.clause
          (Term.atom "path" [ Term.var "X"; Term.var "Y" ])
          [ Term.Pos (Term.atom "edge" [ Term.var "X"; Term.var "Z" ]);
            Term.Pos (Term.atom "path" [ Term.var "Z"; Term.var "Y" ]) ]));
  d

(* Datalog program: transitive closure over [segments] disjoint chains
   of [len] edges each — [segments * len] edge facts with a closure of
   [segments * len * (len + 1) / 2] path tuples: a bound query's cone
   is one segment, a full materialization all of them. *)
let segmented_chain_program ~segments ~len =
  let d = Logic.Datalog.create () in
  for s = 0 to segments - 1 do
    for i = 0 to len - 1 do
      ignore
        (Logic.Datalog.add_fact d
           (Term.atom "edge"
              [ Term.sym (Printf.sprintf "s%d_%d" s i);
                Term.sym (Printf.sprintf "s%d_%d" s (i + 1)) ]))
    done
  done;
  ignore
    (Logic.Datalog.add_clause d
       (Term.clause
          (Term.atom "path" [ Term.var "X"; Term.var "Y" ])
          [ Term.Pos (Term.atom "edge" [ Term.var "X"; Term.var "Y" ]) ]));
  ignore
    (Logic.Datalog.add_clause d
       (Term.clause
          (Term.atom "path" [ Term.var "X"; Term.var "Y" ])
          [ Term.Pos (Term.atom "edge" [ Term.var "X"; Term.var "Z" ]);
            Term.Pos (Term.atom "path" [ Term.var "Z"; Term.var "Y" ]) ]));
  d

(* Allen network: a chain of intervals, each before-or-meets the next,
   with a few long-range constraints to give propagation work. *)
let allen_chain n =
  let module A = Temporal.Allen in
  let net = A.Network.create n in
  for i = 0 to n - 2 do
    A.Network.constrain net i (i + 1) (A.of_list [ A.Before; A.Meets ])
  done;
  for i = 0 to (n / 4) - 1 do
    A.Network.constrain net (i * 4)
      (min (n - 1) ((i * 4) + 3))
      (A.singleton A.Before)
  done;
  net

(* JTMS: a ladder of [n] nodes, each justified by the previous two. *)
let jtms_ladder n =
  let module J = Tms.Jtms in
  let t = J.create () in
  let nodes = Array.init n (fun i -> J.node t (Printf.sprintf "L%d" i)) in
  ignore (J.premise t nodes.(0));
  if n > 1 then ignore (J.premise t nodes.(1));
  for i = 2 to n - 1 do
    ignore
      (J.justify t ~inlist:[ nodes.(i - 1); nodes.(i - 2) ]
         ~reason:(Printf.sprintf "step %d" i)
         nodes.(i))
  done;
  t

let atms_ladder n =
  let module A = Tms.Atms in
  let t = A.create () in
  let a = A.assumption t "base0" and b = A.assumption t "base1" in
  let prev = ref [ a; b ] in
  for i = 2 to n - 1 do
    let node = A.node t (Printf.sprintf "L%d" i) in
    A.justify t ~antecedents:!prev ~reason:(Printf.sprintf "step %d" i) node;
    prev := [ List.hd !prev; node ]
  done;
  t

(* A repository big enough that a full snapshot visibly costs more than
   one decision's delta: [n] text objects (each ~5 propositions). *)
let large_repo n =
  let repo = Repo.create () in
  Gkbms.Mapping.register_tools repo;
  for i = 0 to n - 1 do
    ignore
      (ok
         (Repo.new_object repo
            ~name:(Printf.sprintf "Obj%d" i)
            ~cls:Gkbms.Metamodel.dbpl_object
            (Repo.Text (Printf.sprintf "contents of object %d" i))))
  done;
  repo

(* store population for the index ablation *)
let store_prop i =
  Kernel.Prop.make
    ~id:(Symbol.intern (Printf.sprintf "sp%d" i))
    ~source:(Symbol.intern (Printf.sprintf "src%d" (i mod 50)))
    ~label:(Symbol.intern (Printf.sprintf "lab%d" (i mod 5)))
    ~dest:(Symbol.intern (Printf.sprintf "dst%d" (i mod 20)))
    ()

let fill_store n =
  let base = Store.Base.create () in
  for i = 0 to n - 1 do
    ignore (Store.Base.insert base (store_prop i))
  done;
  base
