(* Seeded, fixed-length operation streams.

   Everything a workload sends is a function of its seed and its size,
   so two runs of one commit perform the same work, and the expected
   answer of every request is known in advance: the generator tracks
   the version tip of every document as it emits edits. *)

let rng ~seed ~stream = Random.State.make [| seed; stream |]

(* One exponential inter-arrival gap of a Poisson process. *)
let exp_gap rng ~rate = -.Float.log1p (-.Random.State.float rng 1.) /. rate

(* [count] arrival times of a Poisson process of [rate], conditioned on
   the last one landing just before [count /. rate] seconds: normalized
   partial sums of exponential gaps are the order statistics of uniform
   draws, so the run length, and with it the offered rate, does not
   vary with the seed. *)
let poisson_schedule rng ~rate ~count =
  let gaps = Array.init (count + 1) (fun _ -> exp_gap rng ~rate) in
  let total = Array.fold_left ( +. ) 0. gaps in
  let span = float_of_int count /. rate in
  let acc = ref 0. in
  Array.init count (fun i ->
      acc := !acc +. gaps.(i);
      span *. !acc /. total)

(* ⌊n·u³⌋: index 0 is the hottest; the top 1% of [n] draws ~22%. *)
let skewed rng n =
  let u = Random.State.float rng 1. in
  min (n - 1) (int_of_float (float_of_int n *. u *. u *. u))

(* Document names end in a letter so the Editor's successor versions
   (base name plus a number) never collide with another document. *)
let doc_name i = Printf.sprintf "Doc%dx" i

let tip_name i edits = if edits = 0 then doc_name i else doc_name i ^ string_of_int (edits + 1)

let edit_line ~obj ~text =
  Printf.sprintf "run DecManualEdit Editor object=%s text=%s" obj text

(* What a correct answer looks like. *)
type expect =
  | Equals of string
  | Prefix of string
  | Contains of string
  | Lines of int * string  (** that many non-empty lines, the first with this prefix *)
  | Edited of string  (** a committed decision whose output is this version *)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check expect payload =
  match expect with
  | Equals s -> String.trim payload = s
  | Prefix p -> starts_with ~prefix:p payload
  | Contains s -> contains ~sub:s payload
  | Lines (n, first) -> (
    match List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' payload) with
    | l :: _ as ls -> List.length ls = n && starts_with ~prefix:first l
    | [] -> false)
  | Edited v ->
    starts_with ~prefix:"run executed: decision dec" payload
    && contains ~sub:(" -> " ^ v) payload

(* The decision id in an edit's answer, "run executed: decision decN -> X". *)
let decision_of_answer payload =
  match String.split_on_char ' ' payload with
  | "run" :: "executed:" :: "decision" :: d :: _ -> Some d
  | _ -> None

type op = {
  conn : int;  (** 0 or 1: every request about one document uses one connection *)
  line : string;
  expect : expect;
  write : bool;
}

(* The documents of a state and the edits applied to them so far. *)
type docs = { n : int; edits : int array; text : string array }

let fresh_docs n = { n; edits = Array.make n 0; text = Array.make n "v0" }

(* Apply one edit to a document's tip and return its request. *)
let edit_tip d i ~text =
  let obj = tip_name i d.edits.(i) in
  d.edits.(i) <- d.edits.(i) + 1;
  d.text.(i) <- text;
  {
    conn = i mod 2;
    line = edit_line ~obj ~text;
    expect = Edited (tip_name i d.edits.(i));
    write = true;
  }

(* Draws from a shuffled deck holding [n] cards numbered 0..n-1,
   reshuffled when empty: every [n] draws contain each number once, so
   a seed changes the order of a mix, never its proportions. *)
let deck r n =
  let cards = Array.init n Fun.id and next = ref n in
  fun () ->
    if !next = n then begin
      for j = n - 1 downto 1 do
        let k = Random.State.int r (j + 1) in
        let x = cards.(j) in
        cards.(j) <- cards.(k);
        cards.(k) <- x
      done;
      next := 0
    end;
    incr next;
    cards.(!next - 1)

(* The seeded set-up history: [edits] edits, dealt to the documents
   from a deck, so every document gets the same number of edits (±1)
   and a seed changes only their order.  With uniform draws, how many
   versions the hottest read targets had, and with it the read
   percentiles, changed with the seed.  [Workloads.build] replays exactly these ops in
   process. *)
let setup_edits ~seed ~docs ~edits =
  let r = rng ~seed ~stream:1 in
  let d = fresh_docs docs in
  let pick = deck r docs in
  let ops = Array.init edits (fun k -> edit_tip d (pick ()) ~text:(Printf.sprintf "s%d" k)) in
  (d, ops)

(* One read of the browse mix (weights in percent, [x] drawn from a
   deck of 100): focus 25, why 15, history 15, menu 10, source 10,
   derive in 10, derive edited 5, stats 4, config 3, deps 2, unmapped 1.
   The target is the version tip of document [i].  [decisions] pins
   the count [stats] must report when no write runs concurrently. *)
let read_op d ~i ~x ~k ~decisions =
  let t = tip_name i d.edits.(i) and c = d.edits.(i) in
  let on_doc line expect = { conn = i mod 2; line; expect; write = false } in
  let global line expect = { conn = k mod 2; line; expect; write = false } in
  if x < 25 then on_doc ("focus " ^ t) (Prefix ("focus: " ^ t ^ "\n"))
  else if x < 40 then on_doc ("why " ^ t) (Lines (c + 1, t ^ ":"))
  else if x < 55 then
    on_doc ("history " ^ t) (Lines (c + 1, doc_name i ^ " (decision -"))
  else if x < 65 then
    on_doc ("menu " ^ t) (Contains "DecManualEdit (role object) via Editor")
  else if x < 75 then on_doc ("source " ^ t) (Equals d.text.(i))
  else if x < 85 then
    on_doc (Printf.sprintf "derive in(%s,?C)" t) (Equals "{C := DBPL_Object}")
  else if x < 90 then
    on_doc
      (Printf.sprintf "derive attr(?D,edited,%s)" t)
      (if c = 0 then Equals "no." else Prefix "{D := dec")
  else if x < 94 then
    global "stats"
      (match decisions with
      | Some n -> Contains (Printf.sprintf "; decisions: %d" n)
      | None -> Prefix "propositions: ")
  else if x < 97 then global "config" (Prefix "configuration over DBPL_Object")
  else if x < 99 then on_doc ("deps " ^ t) (Prefix t)
  else global "unmapped" (Equals "")

(* [edit]: dependency-free edits of base documents, alternating
   connections; a document is only ever edited from one connection, so
   its version names are predictable. *)
let edit_stream ~seed ~count ~docs =
  let r = rng ~seed ~stream:2 in
  let edits = Array.make docs 0 in
  Array.init count (fun k ->
      let conn = k mod 2 in
      let i = (2 * Random.State.int r (docs / 2)) + conn in
      edits.(i) <- edits.(i) + 1;
      {
        conn;
        line = edit_line ~obj:(doc_name i) ~text:(Printf.sprintf "e%d" k);
        expect = Edited (tip_name i edits.(i));
        write = true;
      })

(* [browse]: reads only, over the set-up state [d]. *)
let browse_stream ~seed ~count d ~decisions =
  let r = rng ~seed ~stream:3 in
  let mix = deck r 100 in
  Array.init count (fun k ->
      read_op d ~i:(skewed r d.n) ~x:(mix ()) ~k ~decisions:(Some decisions))

(* [mixed]: 80% browse reads and 20% edits of tips dealt from a deck,
   due on a Poisson schedule.  Reads of a document follow the edits
   before them on the same connection, so the expected answers hold. *)
let mixed_stream ~seed ~count ~rate d =
  let r = rng ~seed ~stream:4 in
  let due = poisson_schedule r ~rate ~count in
  let kind = deck r 5 and mix = deck r 100 and target = deck r d.n in
  let ops =
    Array.init count (fun k ->
        if kind () = 0 then edit_tip d (target ()) ~text:(Printf.sprintf "m%d" k)
        else read_op d ~i:(skewed r d.n) ~x:(mix ()) ~k ~decisions:None)
  in
  (due, ops)

(* [evolve]: the length k ∈ [1,16] of each edit chain that is built and
   then retracted from its first decision.  Every run of 16 chains is a
   shuffle of 1..16, so seeds vary the order, not the amount of work. *)
let evolve_chains ~seed ~count =
  let chain = deck (rng ~seed ~stream:5) 16 in
  Array.init count (fun _ -> 1 + chain ())

(* [replicate]: edits of base documents due on a Poisson schedule. *)
let replicate_stream ~seed ~count ~rate ~docs =
  let r = rng ~seed ~stream:6 in
  let due = poisson_schedule r ~rate ~count in
  let edits = Array.make docs 0 in
  let ops =
    Array.init count (fun k ->
        let i = Random.State.int r docs in
        edits.(i) <- edits.(i) + 1;
        {
          conn = 0;
          line = edit_line ~obj:(doc_name i) ~text:(Printf.sprintf "r%d" k);
          expect = Edited (tip_name i edits.(i));
          write = true;
        })
  in
  (due, ops)
