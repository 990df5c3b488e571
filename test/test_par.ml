(* The multicore contract: pool primitives behave exactly like their
   sequential counterparts, the interner survives concurrent domains,
   and every parallel evaluation path (consistency, allen) produces
   output identical to the sequential code at 1, 2 and 4 domains. *)

open Kernel
module Pool = Par.Pool
module Allen = Temporal.Allen
module Kb = Cml.Kb
module Cons = Cml.Consistency

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* shared pools, reused by every test in the suite (joined at exit) *)
let pool1 = Pool.create ~domains:1
let pool2 = Pool.create ~domains:2
let pool4 = Pool.create ~domains:4
let pools = [ ("1", pool1); ("2", pool2); ("4", pool4) ]

(* pool primitives ------------------------------------------------------ *)

let test_map_array () =
  let arr = Array.init 1000 (fun i -> i) in
  let expect = Array.map (fun x -> (x * x) + 1) arr in
  List.iter
    (fun (name, pool) ->
      check bool
        ("map_array ≡ Array.map at " ^ name ^ " domains")
        true
        (Pool.map_array ~pool (fun x -> (x * x) + 1) arr = expect))
    pools;
  check bool "map_array without pool" true
    (Pool.map_array (fun x -> (x * x) + 1) arr = expect);
  check bool "map_array empty" true (Pool.map_array ~pool:pool4 succ [||] = [||]);
  check bool "map_list preserves order" true
    (Pool.map_list ~pool:pool4 succ [ 5; 1; 4; 1 ] = [ 6; 2; 5; 2 ])

let test_parallel_for () =
  List.iter
    (fun (name, pool) ->
      let n = 503 in
      let hits = Array.make n 0 in
      (* each index is written by exactly one chunk *)
      Pool.parallel_for ~pool n (fun i -> hits.(i) <- hits.(i) + 1);
      check bool
        ("parallel_for covers each index once at " ^ name ^ " domains")
        true
        (Array.for_all (fun c -> c = 1) hits))
    pools

exception Boom of int

let test_exceptions () =
  (try
     ignore
       (Pool.map_array ~pool:pool4
          (fun i -> if i mod 10 = 3 then raise (Boom i) else i)
          (Array.init 100 (fun i -> i)));
     Alcotest.fail "expected Boom"
   with Boom _ -> ());
  (* the pool survives a failed batch *)
  check bool "pool usable after exception" true
    (Pool.map_array ~pool:pool4 succ [| 1; 2; 3 |] = [| 2; 3; 4 |]);
  try
    ignore (Pool.run pool4 (fun () -> raise (Boom 42)));
    Alcotest.fail "expected Boom from run"
  with Boom i -> check int "run re-raises payload" 42 i

let test_run_and_stats () =
  let before = (Pool.stats pool2).Pool.tasks in
  check int "run returns value" 7 (Pool.run pool2 (fun () -> 3 + 4));
  check bool "run executes off the caller or sequentially" true
    (Pool.run pool2 (fun () -> 1 + 1) = 2);
  let after = (Pool.stats pool2).Pool.tasks in
  check bool "tasks counted" true (after > before);
  check int "pool size" 2 (Pool.size pool2);
  check int "degenerate pool clamps to 1" 1 (Pool.size (Pool.create ~domains:0))

let test_nested_fallback () =
  (* a parallel call inside a pool task degrades to sequential instead
     of deadlocking on the same pool *)
  let out =
    Pool.map_array ~pool:pool2
      (fun i ->
        (* checked on the caller: Alcotest's printer is not domain-safe *)
        ( Pool.in_worker (),
          Array.fold_left ( + ) 0
            (Pool.map_array ~pool:pool2 (fun x -> x * i) [| 1; 2; 3 |]) ))
      (Array.init 8 (fun i -> i))
  in
  check bool "inside task" true (Array.for_all fst out);
  check bool "nested results correct" true
    (Array.map snd out = Array.init 8 (fun i -> 6 * i));
  check bool "flag cleared outside tasks" false (Pool.in_worker ())

(* symbol interner under domains ---------------------------------------- *)

let test_symbol_stress () =
  (* 4 domains x 10k mixed intern/lookup over an overlapping word set:
     every domain must see one stable id per string and [name] must
     round-trip *)
  let iterations = 10_000 in
  let word k = "stress_word_" ^ string_of_int k in
  let worker seed () =
    let errs = ref 0 in
    for i = 0 to iterations - 1 do
      let w = word ((i * seed) mod 997) in
      let id = Symbol.intern w in
      if Symbol.name id <> w then incr errs;
      let id' = Symbol.intern w in
      if not (Symbol.equal id id') then incr errs
    done;
    !errs
  in
  let domains = List.init 4 (fun k -> Domain.spawn (worker (k + 1))) in
  let errs = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  check int "no intern/name mismatches across domains" 0 errs;
  (* distinct strings still map to distinct symbols *)
  let ids = List.init 997 (fun k -> Symbol.to_int (Symbol.intern (word k))) in
  check int "997 distinct ids" 997
    (List.length (List.sort_uniq compare ids))

let test_symbol_resize () =
  (* one domain interns 3x as many fresh strings as exist, so the probe
     table doubles at least twice, while three domains keep resolving
     words interned beforehand through the lock-free path *)
  let words = Array.init 512 (fun k -> "resize_old_" ^ string_of_int k) in
  let ids = Array.map Symbol.intern words in
  let before = Symbol.count () in
  (* the floor keeps two doublings when few symbols exist yet *)
  let fresh_n = max (3 * before) 16_384 in
  let fresh k = "resize_fresh_" ^ string_of_int k in
  let done_ = Atomic.make false in
  let reader seed () =
    let n = Array.length words in
    let errs = ref 0 and rounds = ref 0 in
    while not (Atomic.get done_) || !rounds < 2 do
      for i = 0 to n - 1 do
        let j = i * seed mod n in
        let id = Symbol.intern words.(j) in
        if not (Symbol.equal id ids.(j)) || Symbol.name id <> words.(j) then
          incr errs
      done;
      incr rounds
    done;
    !errs
  in
  let readers = List.init 3 (fun k -> Domain.spawn (reader (2 * k + 1))) in
  let writer =
    Domain.spawn (fun () ->
        let got = Array.init fresh_n (fun k -> Symbol.intern (fresh k)) in
        Atomic.set done_ true;
        got)
  in
  let got = Domain.join writer in
  let errs = List.fold_left (fun acc d -> acc + Domain.join d) 0 readers in
  check int "readers saw stable ids and names during resizes" 0 errs;
  check int "count grew by exactly the fresh strings" (before + fresh_n)
    (Symbol.count ());
  let bad = ref 0 in
  Array.iteri
    (fun k id ->
      let s = fresh k in
      if not (Symbol.equal (Symbol.intern s) id) || Symbol.name id <> s then incr bad)
    got;
  check int "fresh strings keep their ids" 0 !bad

(* mem-store index hygiene (satellite fix) ------------------------------- *)

let test_mem_store_bucket_drain () =
  let module Mem = Store.Mem_store in
  let st = Mem.create () in
  let n = 100 in
  let props =
    List.init n (fun i ->
        Prop.make ~id:(Prop.fresh_id ())
          ~source:(Symbol.intern ("src" ^ string_of_int (i mod 7)))
          ~label:(Symbol.intern ("lab" ^ string_of_int (i mod 5)))
          ~dest:(Symbol.intern ("dst" ^ string_of_int (i mod 3)))
          ())
  in
  List.iter (fun p -> check bool "inserted" true (Mem.insert st p)) props;
  List.iter (fun (p : Prop.t) -> ignore (Mem.remove st p.id)) props;
  check int "primary empty" 0 (Mem.cardinal st);
  check int "no chain key left" 0 (Mem.index_keys st)

(* consistency: parallel ≡ sequential ------------------------------------ *)

let violating_kb () =
  let kb = Kb.create () in
  List.iter
    (fun n -> ignore (ok (Kb.declare kb n)))
    [ "Doc"; "Person"; "Team"; "report"; "alice"; "bob" ];
  ignore (ok (Kb.add_instanceof kb ~inst:"report" ~cls:"Doc"));
  ignore (ok (Kb.add_instanceof kb ~inst:"alice" ~cls:"Person"));
  ignore (ok (Kb.add_isa kb ~sub:"Team" ~super:"Person"));
  ignore
    (ok (Kb.add_attribute kb ~source:"Doc" ~label:"author" ~dest:"Person"));
  (* inject violations past the axiom checks: dangling endpoints *)
  List.iter
    (fun (src, lab, dst) ->
      ignore
        (Store.Base.insert (Kb.base kb)
           (Prop.make ~id:(Prop.fresh_id ()) ~source:(Symbol.intern src)
              ~label:(Symbol.intern lab) ~dest:(Symbol.intern dst) ())))
    [
      ("report", "cites", "NoSuchDoc");
      ("Ghost", "haunts", "report");
      ("bob", "author", "report");
    ];
  kb

let test_consistency_differential () =
  let kb = violating_kb () in
  let expect = Cons.check_all kb in
  check bool "violating kb does violate" true (expect <> []);
  List.iter
    (fun (name, pool) ->
      let got = Cons.check_all ~pool kb in
      check bool
        ("check_all at " ^ name ^ " domains: same violations, same order")
        true (got = expect))
    pools;
  (* clean KB stays clean in parallel *)
  let clean = Kb.create () in
  List.iter
    (fun (name, pool) ->
      check bool ("bootstrap clean at " ^ name ^ " domains") true
        (Cons.check_all ~pool clean = []))
    pools

(* allen: parallel ≡ sequential ------------------------------------------ *)

let rand_set st =
  (* non-empty random relation set *)
  let set = ref Allen.empty in
  List.iter
    (fun r ->
      if QCheck.Gen.bool st then set := Allen.union !set (Allen.singleton r))
    Allen.all_relations;
  if Allen.is_empty !set then Allen.singleton Allen.Before else !set

let gen_network n =
  QCheck.Gen.(
    list_size (int_range 0 (2 * n))
      (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) rand_set))

let matrix net =
  let n = Allen.Network.size net in
  Array.init n (fun i -> Array.init n (fun j -> Allen.Network.get net i j))

let test_allen_differential =
  let n = 10 in
  QCheck.Test.make ~name:"allen: parallel path_consistency ≡ sequential"
    ~count:40
    (QCheck.make (gen_network n))
    (fun constraints ->
      let build () =
        let net = Allen.Network.create n in
        List.iter
          (fun (i, j, set) ->
            if i <> j then Allen.Network.constrain net i j set)
          constraints;
        net
      in
      let reference = build () in
      let ref_ok = Allen.Network.path_consistency reference in
      let expect = matrix reference in
      List.for_all
        (fun (_, pool) ->
          let net = build () in
          let got_ok = Allen.Network.path_consistency ~pool net in
          got_ok = ref_ok && matrix net = expect)
        pools
      &&
      (* the pass-based closure must agree with the PC-2 worklist on
         consistency, and on the matrix when consistent *)
      let pc2 = build () in
      let pc2_ok = Allen.Network.propagate pc2 in
      pc2_ok = ref_ok && ((not ref_ok) || matrix pc2 = expect))

let test_allen_known_chain () =
  (* a meets b meets c: path consistency must tighten a-c to Before *)
  let net = Allen.Network.create 3 in
  Allen.Network.constrain net 0 1 (Allen.singleton Allen.Meets);
  Allen.Network.constrain net 1 2 (Allen.singleton Allen.Meets);
  check bool "consistent" true (Allen.Network.path_consistency ~pool:pool4 net);
  check bool "a before c" true
    (Allen.equal_set (Allen.Network.get net 0 2) (Allen.singleton Allen.Before))

let suite =
  [
    ("pool map_array / map_list", `Quick, test_map_array);
    ("pool parallel_for", `Quick, test_parallel_for);
    ("pool exception re-raise", `Quick, test_exceptions);
    ("pool run and stats", `Quick, test_run_and_stats);
    ("pool nested call falls back", `Quick, test_nested_fallback);
    ("symbol intern 4-domain stress", `Quick, test_symbol_stress);
    ("symbol intern across table resizes", `Quick, test_symbol_resize);
    ("mem-store drained buckets removed", `Quick, test_mem_store_bucket_drain);
    ("consistency differential 1/2/4 domains", `Quick, test_consistency_differential);
    QCheck_alcotest.to_alcotest test_allen_differential;
    ("allen meets-chain tightening", `Quick, test_allen_known_chain);
  ]
