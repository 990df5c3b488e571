open Kernel

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string

(* Symbol ------------------------------------------------------------- *)

let test_symbol_intern () =
  let a = Symbol.intern "Invitation" and b = Symbol.intern "Invitation" in
  check bool "same string, same symbol" true (Symbol.equal a b);
  let c = Symbol.intern "Paper" in
  check bool "different strings differ" false (Symbol.equal a c);
  check string "name roundtrip" "Invitation" (Symbol.name a)

let test_symbol_codes () =
  let a = Symbol.intern "sym-code-a" and b = Symbol.intern "sym-code-b" in
  check bool "distinct codes" true (Symbol.to_int a <> Symbol.to_int b);
  check int "hash is code" (Symbol.to_int a) (Symbol.hash a)

let test_symbol_containers () =
  let s =
    Symbol.Set.of_list [ Symbol.intern "x"; Symbol.intern "y"; Symbol.intern "x" ]
  in
  check int "set dedups" 2 (Symbol.Set.cardinal s);
  let tbl = Symbol.Tbl.create 4 in
  Symbol.Tbl.replace tbl (Symbol.intern "x") 1;
  Symbol.Tbl.replace tbl (Symbol.intern "x") 2;
  check int "tbl replace" 2 (Symbol.Tbl.find tbl (Symbol.intern "x"))

(* serial symbols -------------------------------------------------------- *)

(* [p], then 1 to 18 digits without a leading 0, is a serial id: it
   interns nothing.  Anything else that looks like one is a name. *)
let test_symbol_serial_spellings () =
  let digits19 = "p" ^ String.make 19 '7' in
  List.iter
    (fun (s, n) ->
      let before = Symbol.count () in
      let sym = Symbol.intern s in
      check int (s ^ " serial number") n (Symbol.serial_number sym);
      check int (s ^ " interns nothing") before (Symbol.count ());
      check bool (s ^ " is serial n") true (Symbol.equal sym (Symbol.serial n));
      check int (s ^ " code") ((2 * n) + 1) (Symbol.to_int sym))
    [ ("p1", 1); ("p42", 42); ("p" ^ String.make 18 '9', 999_999_999_999_999_999) ];
  List.iter
    (fun s ->
      let sym = Symbol.intern s in
      check int (s ^ " is a name") 0 (Symbol.serial_number sym);
      check bool (s ^ " has an even code") true (Symbol.to_int sym land 1 = 0);
      check string (s ^ " round-trips") s (Symbol.name sym))
    [ "p"; "p0"; "p007"; "p12x"; "P5"; "p-3"; digits19 ];
  (* numbers past the serial range are interned under their spelling *)
  check string "serial of 10^18 is a name" ("p1" ^ String.make 18 '0')
    (Symbol.name (Symbol.serial 1_000_000_000_000_000_000));
  check int "serial of 0 is the name p0" (Symbol.to_int (Symbol.intern "p0"))
    (Symbol.to_int (Symbol.serial 0));
  check bool "serial ids keep their order" true
    (Symbol.compare (Symbol.serial 9) (Symbol.serial 10) < 0)

(* Spellings that are serial, nearly serial or plain names. *)
let gen_spelling =
  let open QCheck.Gen in
  let digit = char_range '0' '9' in
  oneof
    [
      map (fun n -> "p" ^ string_of_int n) (int_range 1 1_000_000);
      map (fun n -> "p" ^ string_of_int n) (int_range 1 max_int);
      map (fun d -> "p" ^ String.of_seq (List.to_seq d)) (list_size (int_range 0 20) digit);
      map (fun s -> "p" ^ s) (string_size ~gen:(oneof [ digit; printable ]) (int_range 0 6));
      string_size ~gen:printable (int_range 0 8);
    ]

(* [intern] and [name] are inverse over both kinds, [find_opt] agrees
   with [intern] without interning, and a name's bytes come out the
   same whether built or written straight into a buffer. *)
let prop_symbol_bijection =
  QCheck.Test.make ~count:2000 ~name:"symbol intern and name are inverse"
    (QCheck.make ~print:(Printf.sprintf "%S") gen_spelling)
    (fun x ->
      let before = Symbol.count () in
      let found = Symbol.find_opt x in
      let unchanged = Symbol.count () = before in
      let s = Symbol.intern x in
      let buf = Buffer.create 8 in
      Symbol.add_name buf s;
      unchanged
      && (found = None || found = Some s)
      && Symbol.name s = x
      && Symbol.equal (Symbol.intern (Symbol.name s)) s
      && Symbol.find_opt x = Some s
      && Buffer.contents buf = x
      && Symbol.name_length s = String.length x
      && Symbol.to_int s >= 0
      && (Symbol.serial_number s = 0 || Symbol.equal (Symbol.serial (Symbol.serial_number s)) s))

(* the interner under concurrent domains --------------------------------- *)

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

(* Time ---------------------------------------------------------------- *)

let test_time_validity () =
  check bool "always valid" true (Time.valid_at Time.always 42);
  check bool "at matches" true (Time.valid_at (Time.at 5) 5);
  check bool "at rejects" false (Time.valid_at (Time.at 5) 6);
  check bool "from open end" true (Time.valid_at (Time.from 3) max_int);
  check bool "from rejects earlier" false (Time.valid_at (Time.from 3) 2);
  check bool "between inclusive" true (Time.valid_at (Time.between 1 4) 4);
  check bool "named behaves as interval" true
    (Time.valid_at (Time.named "version17" 2 9) 5)

let test_time_relations () =
  let a = Time.between 1 3 and b = Time.between 5 9 in
  check bool "before" true (Time.before a b);
  check bool "not before (rev)" false (Time.before b a);
  check bool "no overlap" false (Time.overlaps a b);
  check bool "meets" true (Time.meets (Time.between 1 4) b);
  check bool "during reflexive" true (Time.during a a);
  check bool "during strict" true (Time.during (Time.between 2 3) (Time.between 1 4));
  check bool "not during" false (Time.during (Time.between 1 4) (Time.between 2 3))

let test_time_intersect () =
  (match Time.intersect (Time.between 1 5) (Time.between 3 9) with
  | Some t -> check bool "intersection" true (Time.equal t (Time.between 3 5))
  | None -> Alcotest.fail "expected intersection");
  check bool "disjoint" true
    (Time.intersect (Time.between 1 2) (Time.between 4 5) = None);
  match Time.intersect Time.always (Time.at 7) with
  | Some t -> check bool "always absorbs" true (Time.equal t (Time.at 7))
  | None -> Alcotest.fail "expected intersection with always"

let test_time_clip () =
  (match Time.clip_before (Time.between 2 9) 5 with
  | Some t -> check bool "clip" true (Time.equal t (Time.between 2 4))
  | None -> Alcotest.fail "expected clip");
  check bool "clip empties" true (Time.clip_before (Time.from 5) 5 = None)

let test_time_string_roundtrip () =
  let cases =
    [ Time.always; Time.at 7; Time.from 3; Time.between 2 9;
      Time.named "version17" 0 4 ]
  in
  List.iter
    (fun t ->
      match Time.of_string (Time.to_string t) with
      | Ok t' -> check bool (Time.to_string t) true (Time.equal t t')
      | Error e -> Alcotest.fail e)
    cases;
  check bool "garbage rejected" true
    (match Time.of_string "nonsense" with Error _ -> true | Ok _ -> false)

let test_time_invalid () =
  Alcotest.check_raises "between lo > hi"
    (Invalid_argument "Time.between: lo > hi") (fun () ->
      ignore (Time.between 5 2))

let test_clock () =
  Time.Clock.reset ();
  check int "reset" 0 (Time.Clock.now ());
  let t1 = Time.Clock.tick () in
  check int "tick advances" 1 t1;
  check int "now stable" 1 (Time.Clock.now ())

(* Prop ---------------------------------------------------------------- *)

let sym = Symbol.intern

let test_prop_make () =
  Time.Clock.reset ();
  let p =
    Prop.make ~id:(sym "p37") ~source:(sym "Invitation") ~label:(sym "isa")
      ~dest:(sym "Paper") ()
  in
  check string "pp form" "p37 = <Invitation, isa, Paper, Always>"
    (Prop.to_string p);
  check bool "belief stamped" true (p.Prop.belief = 0)

let test_prop_individual () =
  let p = Prop.individual (sym "Invitation") in
  check bool "individual recognized" true (Prop.is_individual p);
  let q =
    Prop.make ~id:(sym "q1") ~source:(sym "a") ~label:(sym "l") ~dest:(sym "b") ()
  in
  check bool "link not individual" false (Prop.is_individual q)

let test_prop_fresh_ids () =
  Prop.reset_ids ();
  let before = Symbol.count () in
  let a = Prop.fresh_id () in
  let b = Prop.fresh_id () in
  check bool "fresh ids distinct" false (Symbol.equal a b);
  check int "minted ids intern nothing" before (Symbol.count ());
  check string "spelt p<n>" "p1" (Symbol.name a);
  check bool "in mint order" true (Symbol.compare a b < 0);
  let c = Prop.fresh_id ~prefix:"dec" () in
  check bool "prefix used" true
    (String.length (Symbol.name c) > 3
    && String.sub (Symbol.name c) 0 3 = "dec")

let test_prop_equal_ignores_belief () =
  let mk belief =
    Prop.make ~belief ~id:(sym "px") ~source:(sym "a") ~label:(sym "l")
      ~dest:(sym "b") ()
  in
  check bool "belief-insensitive equality" true (Prop.equal (mk 1) (mk 99))

(* Symtab ------------------------------------------------------------- *)

(* The code-indexed table against a [Symbol.Map] model, over random
   [replace], [remove] and [find].  Keys: names interned here, serial
   ids spread over some 60 pages of their directory (so one write can
   land well past its end), and one serial past the directory's cap,
   which the fallback table holds.  [iter] must visit the keys in
   ascending code, the map's order, which puts the capped key last. *)
let prop_symtab_model =
  let names = List.init 12 (fun i -> Symbol.intern (Printf.sprintf "symtab-key-%d" i)) in
  let serials = List.init 24 (fun i -> Symbol.serial (1 + (i * 2_777))) in
  let keys = Array.of_list (names @ serials @ [ Symbol.serial 123_456_789_012 ]) in
  let op =
    QCheck.Gen.(triple (int_bound 2) (int_bound (Array.length keys - 1)) small_nat)
  in
  let print (o, k, v) =
    Printf.sprintf "%s %s %d" [| "replace"; "remove"; "find" |].(o) (Symbol.name keys.(k)) v
  in
  QCheck.Test.make ~count:300 ~name:"symtab agrees with a Symbol.Map model"
    (QCheck.make ~print:QCheck.Print.(list print) QCheck.Gen.(list_size (int_range 1 150) op))
    (fun ops ->
      let t = Symtab.create (-1) in
      let step (m, ok) (o, k, v) =
        let key = keys.(k) in
        match o with
        | 0 ->
          Symtab.replace t key v;
          (Symbol.Map.add key v m, ok)
        | 1 ->
          Symtab.remove t key;
          (Symbol.Map.remove key m, ok)
        | _ -> (m, ok && Symtab.find_opt t key = Symbol.Map.find_opt key m)
      in
      let m, ok = List.fold_left step (Symbol.Map.empty, true) ops in
      let visited = ref [] in
      Symtab.iter (fun k v -> visited := (k, v) :: !visited) t;
      ok
      && Array.for_all
           (fun k ->
             Symtab.find_opt t k = Symbol.Map.find_opt k m
             && Symtab.mem t k = Symbol.Map.mem k m
             && Symtab.find t k = Option.value (Symbol.Map.find_opt k m) ~default:(-1))
           keys
      && Symtab.length t = Symbol.Map.cardinal m
      && List.rev !visited = Symbol.Map.bindings m)

let suite =
  [
    ("symbol intern", `Quick, test_symbol_intern);
    ("symbol codes", `Quick, test_symbol_codes);
    ("symbol containers", `Quick, test_symbol_containers);
    ("symbol intern 4-domain stress", `Quick, test_symbol_stress);
    ("symbol intern across table resizes", `Quick, test_symbol_resize);
    ("symbol serial spellings", `Quick, test_symbol_serial_spellings);
    QCheck_alcotest.to_alcotest prop_symbol_bijection;
    QCheck_alcotest.to_alcotest prop_symtab_model;
    ("time validity", `Quick, test_time_validity);
    ("time relations", `Quick, test_time_relations);
    ("time intersect", `Quick, test_time_intersect);
    ("time clip", `Quick, test_time_clip);
    ("time string roundtrip", `Quick, test_time_string_roundtrip);
    ("time invalid interval", `Quick, test_time_invalid);
    ("clock", `Quick, test_clock);
    ("prop make", `Quick, test_prop_make);
    ("prop individual", `Quick, test_prop_individual);
    ("prop fresh ids", `Quick, test_prop_fresh_ids);
    ("prop equality ignores belief", `Quick, test_prop_equal_ignores_belief);
  ]
