(* Allocation growth with the length of the history.

   Each operation runs on a fixed target in two tip-edited histories,
   of H and 4H decisions, and is charged the words it allocates (minor
   plus those allocated directly in the major heap; the median of five
   calls after a warm-up).  Allocation is deterministic for one build,
   so the ratio of the two counts shows history-proportional work
   where wall time on a shared host cannot: an operation that costs
   its neighbourhood reads about 1, one that walks the history about
   4.

   The histories edit each document's tip, as gkbench's set-up does:
   H / 2 documents with two successive versions each, plus the fixed
   target, a document with three versions.

   [stats], [config] and [unmapped] read what a commit changes, so an
   edit precedes each of their calls, outside the measured window: a
   memo that a commit drops is charged to the read that rebuilds it. *)

module Repo = Gkbms.Repository
module Shell = Gkbms.Shell

type row = {
  op : string;
  words_h : float;
  words_4h : float;
  bound : float option;  (** the gate on [words_4h /. words_h], if any *)
  words_bound : float option;  (** the gate on [words_h] and [words_4h], if any *)
}

let ratio r = r.words_4h /. r.words_h

let passes r =
  (match r.bound with Some b -> ratio r <= b | None -> true)
  && match r.words_bound with Some w -> r.words_h <= w && r.words_4h <= w | None -> true

(* The verbs whose answer is the target's neighbourhood, [stats] and
   [unmapped], and the retraction of a fixed chain are gated at 1.5;
   [config] lists a whole level and [check] audits the whole history,
   so they are allowed linear growth (1.5 × 4).  The ratio of [edit]
   is reported only: an edit is gated in absolute terms instead, since
   it writes 24 propositions (fig 3-3's record of a decision), and
   recording them may cost at most [edit_bound] words.  An edit
   journaled to a WAL is gated both ways: its frame's words must not
   grow with the history, and stay within [durable_edit_bound], the
   same 1.2× headroom over what it measures (3,875 words). *)
let neighbourhood = 1.5
let whole_level = 1.5 *. 4.
let edit_bound = 4000.
let durable_edit_bound = 4650.

(* the smaller history; the larger is 4H *)
let h = 512

let target = "ScalingTarget"

(* [Gc.counters]'s minor count (OCaml 5.1) omits the words allocated
   since the last minor collection, so minor words come from
   [Gc.minor_words]; its major count, less what was promoted, is what
   was allocated in the major heap directly. *)
let words f =
  let minor0 = Gc.minor_words () in
  let _, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let _, promoted1, major1 = Gc.counters () in
  Gc.minor_words () -. minor0 +. (major1 -. major0 -. (promoted1 -. promoted0))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* one warm-up, then the median of five; [before] runs ahead of each
   call, unmeasured *)
let median_words ?(before = ignore) f =
  before ();
  ignore (f ());
  median
    (List.init 5 (fun _ ->
         before ();
         words f))

let fail fmt = Printf.ksprintf failwith fmt

let new_doc repo name =
  match
    Repo.new_object repo ~name ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")
  with
  | Ok _ -> ()
  | Error e -> fail "scaling: new document %s: %s" name e

(* edit [obj] and return the new tip *)
let edit sh obj text =
  let out =
    Shell.eval sh (Printf.sprintf "run DecManualEdit Editor object=%s text=%s" obj text)
  in
  match String.rindex_opt out '>' with
  | Some i when String.starts_with ~prefix:"run executed" out ->
    String.trim (String.sub out (i + 1) (String.length out - i - 1))
  | _ -> fail "scaling: edit of %s answered %S" obj out

(* A repository of [h] tip edits over [h / 2] documents, the target
   edited twice before them; returns a shell on it and the target's
   tip. *)
let build h =
  let repo = Repo.create () in
  Gkbms.Mapping.register_tools repo;
  let sh = Shell.session repo in
  new_doc repo target;
  let tip = edit sh (edit sh target "t1") "t2" in
  let docs = h / 2 in
  let tips = Array.init docs (fun i -> Printf.sprintf "ScalingDoc%dx" i) in
  Array.iter (new_doc repo) tips;
  for k = 0 to h - 1 do
    let i = k mod docs in
    tips.(i) <- edit sh tips.(i) (Printf.sprintf "s%d" k)
  done;
  (repo, sh, tip)

(* op, line, gate, and whether each call follows an edit *)
let reads tip =
  [
    ("focus", "focus " ^ tip, neighbourhood, false);
    ("deps", "deps " ^ tip, neighbourhood, false);
    ("why", "why " ^ tip, neighbourhood, false);
    ("history", "history " ^ tip, neighbourhood, false);
    ("menu", "menu " ^ tip, neighbourhood, false);
    ("source", "source " ^ tip, neighbourhood, false);
    ("stats", "stats", neighbourhood, true);
    ("config", "config", whole_level, true);
    ("unmapped", "unmapped", neighbourhood, true);
    ("check", "check", whole_level, false);
  ]

(* An edit of one document's tip, each call a new version of it. *)
let edit_words repo sh =
  let doc = ref "ScalingEdited" in
  new_doc repo !doc;
  median_words (fun () -> doc := edit sh !doc "e")

(* The same edit with the repository journaled, without fsync and with
   no checkpoint: what writing a decision's frame adds. *)
let durable_edit_words repo sh =
  let dir = Filename.temp_file "gkbms-scaling" "" in
  Sys.remove dir;
  let d =
    match Gkbms.Durable.attach ~checkpoint_every:max_int ~dir repo with
    | Ok d -> d
    | Error e -> fail "scaling: attach %s: %s" dir e
  in
  Fun.protect
    ~finally:(fun () ->
      Gkbms.Durable.close d;
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
  @@ fun () ->
  let doc = ref "ScalingJournaled" in
  new_doc repo !doc;
  median_words (fun () -> doc := edit sh !doc "e")

(* Four chained edits of the [n]th chain document: the first edit's
   decision, whose retraction takes all four back. *)
let edit_chain repo sh n =
  let doc = Printf.sprintf "ScalingChain%dx" n in
  new_doc repo doc;
  let first = edit sh doc "c1" in
  ignore (edit sh (edit sh (edit sh first "c2") "c3") "c4");
  Option.get (Gkbms.Decision.justifying_decision repo (Kernel.Symbol.intern first))

(* The retraction of the first of four chained edits, each call on a
   chain of its own; only the retraction is charged. *)
let retract_words repo sh =
  let n = ref 0 in
  let chain () =
    incr n;
    edit_chain repo sh !n
  in
  let retract dec () =
    match Gkbms.Backtrack.retract repo dec () with
    | Ok report -> report
    | Error e -> fail "scaling: retract: %s" e
  in
  ignore (retract (chain ()) ());
  median (List.init 5 (fun _ -> words (retract (chain ()))))

let measure h =
  let repo, sh, tip = build h in
  (* a document of its own per history: a version name interned by an
     earlier history would not be the newest instance of its level *)
  let written = ref (Printf.sprintf "ScalingWritten%dx" h) in
  new_doc repo !written;
  let commit () = written := edit sh !written "w" in
  let read =
    List.map
      (fun (op, line, bound, after_commit) ->
        let before = if after_commit then commit else ignore in
        (op, Some bound, median_words ~before (fun () -> Shell.eval sh line)))
      (reads tip)
  in
  (* the writes last: they change the state the reads measured *)
  let edit = edit_words repo sh in
  let retract = retract_words repo sh in
  let durable_edit = durable_edit_words repo sh in
  List.map (fun (op, bound, words) -> (op, bound, None, words)) read
  @ [
      ("edit", None, Some edit_bound, edit);
      ("retract", Some neighbourhood, None, retract);
      ("durable_edit", Some neighbourhood, Some durable_edit_bound, durable_edit);
    ]

let run () =
  let small = measure h in
  let large = measure (4 * h) in
  List.map2
    (fun (op, bound, words_bound, words_h) (_, _, _, words_4h) ->
      { op; words_h; words_4h; bound; words_bound })
    small large

let pp_row ppf r =
  let verdict = if passes r then "ok" else "FAIL" in
  Format.fprintf ppf "%-12s %12.0f %12.0f %7.2f  %s" r.op r.words_h r.words_4h (ratio r)
    (match (r.bound, r.words_bound) with
    | Some b, Some w -> Printf.sprintf "<= %.1f, words <= %.0f %s" b w verdict
    | Some b, None -> Printf.sprintf "<= %.1f %s" b verdict
    | None, Some w -> Printf.sprintf "words <= %.0f %s" w verdict
    | None, None -> "(reported)")
