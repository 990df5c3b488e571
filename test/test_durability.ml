open Kernel
module Crc32 = Durability.Crc32
module Wal = Durability.Wal
module Fault = Durability.Fault
module Journal = Durability.Journal
module Repo = Gkbms.Repository
module Scn = Gkbms.Scenario
module Durable = Gkbms.Durable

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int
let string = Alcotest.string
let sym = Symbol.intern

open Helpers

let mk ?(time = Time.always) id source label dest =
  Prop.make ~time ~id:(sym id) ~source:(sym source) ~label:(sym label)
    ~dest:(sym dest) ()

let canon base =
  List.sort compare (String.split_on_char '\n' (Store.Base.to_serialized base))

let encoded rs = List.map Wal.encode rs

(* crc32 ------------------------------------------------------------------ *)

let test_crc_vectors () =
  check string "check value" "cbf43926" (Crc32.to_hex (Crc32.of_string "123456789"));
  check string "empty" "00000000" (Crc32.to_hex (Crc32.of_string ""));
  check string "single byte" "d202ef8d" (Crc32.to_hex (Crc32.of_string "\x00"))

let test_crc_incremental () =
  let s = "the quick brown fox jumps over the lazy dog" in
  let whole = Crc32.of_string s in
  let split =
    Crc32.update (Crc32.update Crc32.empty s 0 10) s 10 (String.length s - 10)
  in
  check string "incremental = whole" (Crc32.to_hex whole) (Crc32.to_hex split)

(* framing ---------------------------------------------------------------- *)

let sample_records =
  [
    Wal.Put (mk "p1" "Invitation" "isa" "Paper");
    Wal.Put (mk ~time:(Time.between 3 9) "p2" "weird id\twith\ttabs" "l" "d");
    Wal.Tomb (sym "p1");
    Wal.Decision_begin "DecMapMoveDown";
    Wal.Decision_commit "dec1";
    Wal.Decision_abort "tool failed";
    Wal.Artifact ("obj", "(text \"multi\nline\")");
    Wal.Note ("unlog", "dec1");
  ]

let write_sample () =
  let buf = Buffer.create 256 in
  let w = Wal.writer (Wal.buffer_sink buf) in
  List.iter (Wal.append w) sample_records;
  (Buffer.contents buf, Wal.bytes_written w)

let test_roundtrip () =
  let data, bytes = write_sample () in
  check int "bytes accounted" bytes (String.length data);
  let scan = Wal.scan data in
  check bool "clean tail" true (scan.Wal.truncated = None);
  check int "all bytes valid" (String.length data) scan.Wal.valid_bytes;
  check Alcotest.(list Alcotest.string) "records survive"
    (encoded sample_records)
    (encoded scan.Wal.records)

let test_codec_rejects_garbage () =
  (match Wal.decode "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty payload decoded");
  (match Wal.decode "Zjunk" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag decoded");
  (match Wal.decode (Wal.encode (Wal.Decision_commit "x") ^ "extra") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted");
  (* the compact [Put]: a multi-byte belief, so a cut lands in a varint *)
  let put =
    Wal.encode
      (Wal.Put
         (Prop.make ~belief:300 ~id:(sym "x") ~source:(sym "x")
            ~label:(sym "x") ~dest:(sym "x") ()))
  in
  let rejects what payload =
    match Wal.decode payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "compact Put: %s accepted" what
  in
  List.iter
    (fun bit ->
      let b = Bytes.of_string put in
      Bytes.set b 1 (Char.chr (Char.code put.[1] lor (1 lsl bit)));
      rejects (Printf.sprintf "reserved flag bit %d" bit) (Bytes.to_string b))
    [ 4; 5; 6; 7 ];
  rejects "truncated belief varint" (String.sub put 0 (String.length put - 1));
  rejects "truncated length varint" "p\x00\x80";
  rejects "overlong varint" ("p\x0f\x01x" ^ String.make 9 '\xff' ^ "\x01");
  rejects "missing flags byte" "p";
  rejects "trailing bytes" (put ^ "\x00")

let test_torn_tail () =
  let data, _ = write_sample () in
  let cut = String.sub data 0 (String.length data - 3) in
  let scan = Wal.scan cut in
  check bool "tail reported" true (scan.Wal.truncated <> None);
  check Alcotest.(list Alcotest.string) "all but last survive"
    (encoded
       (List.filteri
          (fun i _ -> i < List.length sample_records - 1)
          sample_records))
    (encoded scan.Wal.records);
  (* replay boundary sits exactly after the last full frame *)
  check bool "valid prefix rescans clean" true
    ((Wal.scan (String.sub cut 0 scan.Wal.valid_bytes)).Wal.truncated = None)

let test_bit_flip_detected () =
  let data, _ = write_sample () in
  (* flip one payload bit in the middle of the log *)
  let off = String.length data / 2 in
  let corrupted =
    Fault.corrupt (Fault.script ~flips:[ (off, 3) ] ()) data
  in
  let scan = Wal.scan corrupted in
  check bool "corruption reported" true (scan.Wal.truncated <> None);
  check bool "valid prefix shorter" true (scan.Wal.valid_bytes < String.length data);
  (* the surviving records are a prefix of the originals *)
  List.iteri
    (fun i r ->
      check string
        (Printf.sprintf "record %d intact" i)
        (Wal.encode (List.nth sample_records i))
        (Wal.encode r))
    scan.Wal.records

let test_bad_header () =
  let scan = Wal.scan "NOTAWAL0rest" in
  check bool "rejected" true (scan.Wal.truncated <> None);
  check int "nothing valid" 0 scan.Wal.valid_bytes

let test_implausible_length () =
  let buf = Buffer.create 64 in
  Buffer.add_string buf Wal.magic;
  (* a length field claiming 2^31 bytes *)
  Buffer.add_string buf "\xff\xff\xff\x7f\x00\x00\x00\x00payload";
  let scan = Wal.scan (Buffer.contents buf) in
  check bool "cut at bad length" true (scan.Wal.truncated <> None);
  check int "only header valid" (String.length Wal.magic) scan.Wal.valid_bytes

(* fault sink ------------------------------------------------------------- *)

let test_fault_sink_crash () =
  let inner = Buffer.create 64 in
  let sink =
    Fault.wrap
      (Fault.script ~crash_after:20 ~drop_syncs:true ())
      (Wal.buffer_sink inner)
  in
  let w = Wal.writer sink in
  List.iter (Wal.append w) sample_records;
  Wal.sync w;
  check int "everything past the crash point is lost" 20 (Buffer.length inner);
  let full, _ = write_sample () in
  check string "prefix is what a crash would leave" (String.sub full 0 20)
    (Buffer.contents inner)

(* frame resolution ------------------------------------------------------- *)

let put id = Wal.Put (mk id "s" "l" "d")

(* A log read through the replayer, one record at a time: the committed
   stream flattened (each decision's records, then its commit record),
   the committed decisions in commit order, the abort records that
   closed a frame, and the frames still open at the end. *)
type resolved = {
  ops : Wal.record list;
  decisions : string list;
  aborted : string list;
  dangling : int;
}

let resolve records =
  let rp = Journal.Replayer.create () in
  let rec flat = function
    | Journal.Record r -> [ r ]
    | Journal.Decision { id; items; _ } ->
      List.concat_map flat items @ [ Wal.Decision_commit id ]
  in
  let ops = ref [] and aborted = ref [] in
  List.iter
    (fun r ->
      let depth = Journal.Replayer.depth rp in
      let items = Journal.Replayer.feed rp r in
      (match r with
      | Wal.Decision_abort reason when Journal.Replayer.depth rp < depth ->
        aborted := reason :: !aborted
      | _ -> ());
      ops := List.rev_append (List.concat_map flat items) !ops)
    records;
  let ops = List.rev !ops in
  {
    ops;
    decisions =
      List.filter_map (function Wal.Decision_commit d -> Some d | _ -> None) ops;
    aborted = List.rev !aborted;
    dangling = Journal.Replayer.depth rp;
  }

(* the store operations that changed the base *)
let replay_into base ops =
  List.fold_left
    (fun acc r ->
      Result.bind acc (fun n ->
          Result.map (fun changed -> if changed then n + 1 else n)
            (Journal.apply base r)))
    (Ok 0) ops

let test_resolve_commit_and_abort () =
  let r =
    resolve
      [
        put "a";
        Wal.Decision_begin "D1";
        put "b";
        Wal.Decision_commit "dec1";
        Wal.Decision_begin "D2";
        put "c";
        Wal.Decision_abort "failed";
        Wal.Decision_begin "D3";
        put "d";
      ]
  in
  check Alcotest.(list Alcotest.string) "committed decisions" [ "dec1" ]
    r.decisions;
  check Alcotest.(list Alcotest.string) "aborted" [ "failed" ] r.aborted;
  check int "dangling frame" 1 r.dangling;
  (* ops: the unframed put, then the committed frame; c and d discarded *)
  check Alcotest.(list Alcotest.string) "committed ops"
    (encoded [ put "a"; put "b"; Wal.Decision_commit "dec1" ])
    (encoded r.ops)

let test_resolve_nested () =
  let r =
    resolve
      [
        Wal.Decision_begin "outer";
        put "a";
        Wal.Decision_begin "inner";
        put "b";
        Wal.Decision_commit "dec-in";
        put "c";
        Wal.Decision_commit "dec-out";
      ]
  in
  check Alcotest.(list Alcotest.string) "inner commits with outer"
    [ "dec-in"; "dec-out" ] r.decisions;
  check Alcotest.(list Alcotest.string) "ops in log order"
    (encoded
       [ put "a"; put "b"; Wal.Decision_commit "dec-in"; put "c";
         Wal.Decision_commit "dec-out" ])
    (encoded r.ops)

let test_resolve_nested_dangling_outer () =
  let r =
    resolve
      [
        Wal.Decision_begin "outer";
        Wal.Decision_begin "inner";
        put "b";
        Wal.Decision_commit "dec-in";
      ]
  in
  (* the inner commit is staged in the outer frame, which never commits *)
  check Alcotest.(list Alcotest.string) "nothing durable" [] r.decisions;
  check int "outer dangles" 1 r.dangling;
  check int "no ops" 0 (List.length r.ops)

let batch_begin = Wal.Note (Journal.batch_begin_key, "1")
let batch_end = Wal.Note (Journal.batch_end_key, "1")

(* a crash before the end marker: the batch's committed decision was
   never acknowledged, so it stays held *)
let test_replayer_torn_batch () =
  let torn =
    [ batch_begin; Wal.Decision_begin "D1"; put "a"; Wal.Decision_commit "dec1" ]
  in
  let r = resolve torn in
  check Alcotest.(list Alcotest.string) "nothing committed" [] r.decisions;
  check int "no ops" 0 (List.length r.ops);
  check int "the batch stays open" 1 r.dangling;
  let whole = resolve (torn @ [ batch_end ]) in
  check Alcotest.(list Alcotest.string) "the end marker commits it" [ "dec1" ]
    whole.decisions;
  check int "at a frame edge" 0 whole.dangling

let test_replayer_abort_in_batch () =
  let r =
    resolve
      [
        batch_begin;
        Wal.Decision_begin "D1";
        put "a";
        Wal.Decision_commit "dec1";
        Wal.Decision_begin "D2";
        put "b";
        Wal.Decision_abort "failed";
        Wal.Decision_begin "D3";
        put "c";
        Wal.Decision_commit "dec3";
        batch_end;
      ]
  in
  check Alcotest.(list Alcotest.string) "the batch's other decisions commit"
    [ "dec1"; "dec3" ] r.decisions;
  check Alcotest.(list Alcotest.string) "aborted" [ "failed" ] r.aborted;
  check Alcotest.(list Alcotest.string) "only b discarded"
    (encoded
       [ put "a"; Wal.Decision_commit "dec1"; put "c"; Wal.Decision_commit "dec3" ])
    (encoded r.ops);
  check int "at a frame edge" 0 r.dangling

let test_replay_idempotent () =
  let resolved =
    resolve
      [ put "a"; put "b"; Wal.Tomb (sym "b"); Wal.Tomb (sym "zz") ]
  in
  let base = Store.Base.create () in
  let n1 = ok (replay_into base resolved.ops) in
  check int "tomb of absent id skipped" 3 n1;
  let snapshot = canon base in
  (* replaying the same stream again must be a no-op *)
  let n2 = ok (replay_into base resolved.ops) in
  check int "second replay applies only the remove+reinsert pair" 2 n2;
  check bool "state unchanged" true (canon base = snapshot)

(* differential crash-recovery property ----------------------------------- *)

(* Drive a store + journal through random operations with nested decision
   frames (mirroring Decision.execute: rollback re-emits compensating
   deltas into the open frame), recording a watermark of the durable
   state at every frame-depth-0 point.  Then crash at a random byte
   (optionally flipping a bit inside the kept prefix), recover, and
   require the recovered store and decision list to equal the greatest
   watermark at or below the surviving log prefix. *)

type watermark = { wm_bytes : int; wm_state : string list; wm_decs : string list }

let run_random_ops ops =
  let buf = Buffer.create 1024 in
  let w = Wal.writer (Wal.buffer_sink buf) in
  let base = Store.Base.create () in
  let journal = Journal.attach w base in
  let committed = ref [] (* chronological *) in
  let frames = ref [] (* (name, inner committed chronological) stack *) in
  let wms = ref [ { wm_bytes = 0; wm_state = canon base; wm_decs = [] } ] in
  let watermark () =
    if Journal.depth journal = 0 then
      wms :=
        {
          wm_bytes = Wal.bytes_written w;
          wm_state = canon base;
          wm_decs = !committed;
        }
        :: !wms
  in
  let ctr = ref 0 in
  List.iter
    (fun n ->
      (match n mod 100 with
      | op when op < 45 ->
        let id = "x" ^ string_of_int (n mod 17) in
        ignore (Store.Base.insert base (mk id ("s" ^ string_of_int (n mod 3)) "l" "d"))
      | op when op < 70 ->
        ignore (Store.Base.remove base (sym ("x" ^ string_of_int (n mod 17))))
      | op when op < 80 ->
        if Journal.depth journal < 3 then begin
          incr ctr;
          let name = "dec" ^ string_of_int !ctr in
          Journal.begin_decision journal name;
          Store.Base.begin_tx base;
          frames := (name, []) :: !frames
        end
      | op when op < 93 -> (
        match !frames with
        | [] -> ()
        | (name, inner) :: rest ->
          ignore (Store.Base.commit base);
          Journal.commit_decision journal name;
          (match rest with
          | [] -> committed := !committed @ inner @ [ name ]
          | (pname, pinner) :: rest' ->
            frames := (pname, pinner @ inner @ [ name ]) :: rest');
          (match rest with [] -> frames := [] | _ -> ()))
      | _ -> (
        match !frames with
        | [] -> ()
        | (_, _) :: rest ->
          (* rollback re-emits compensations into the open frame *)
          ignore (Store.Base.rollback base);
          Journal.abort_decision journal "aborted";
          frames := rest));
      watermark ())
    ops;
  (Buffer.contents buf, List.rev !wms)

let check_crash data wms ~crash ~flip =
  let flips = match flip with None -> [] | Some f -> [ f ] in
  let corrupted = Fault.corrupt (Fault.script ~crash_after:crash ~flips ()) data in
  let scan = Wal.scan corrupted in
  let resolved = resolve scan.Wal.records in
  let base = Store.Base.create () in
  match replay_into base resolved.ops with
  | Error e -> QCheck.Test.fail_reportf "replay failed: %s" e
  | Ok _ ->
    let expected =
      List.fold_left
        (fun best wm -> if wm.wm_bytes <= scan.Wal.valid_bytes then wm else best)
        (List.hd wms) wms
    in
    if canon base <> expected.wm_state then
      QCheck.Test.fail_reportf
        "state mismatch at crash=%d valid=%d: got %d lines, want %d" crash
        scan.Wal.valid_bytes
        (List.length (canon base))
        (List.length expected.wm_state)
    else if resolved.decisions <> expected.wm_decs then
      QCheck.Test.fail_reportf
        "decision list mismatch at crash=%d: got [%s], want [%s]" crash
        (String.concat ";" resolved.decisions)
        (String.concat ";" expected.wm_decs)
    else true

let ops_gen = QCheck.(list_of_size (Gen.int_range 5 60) (int_range 0 9999))

let prop_crash_recovery_torn =
  QCheck.Test.make ~name:"recovery = committed prefix (torn tail)" ~count:400
    QCheck.(pair ops_gen (int_range 0 99999))
    (fun (ops, seed) ->
      let data, wms = run_random_ops ops in
      let crash = seed mod (String.length data + 1) in
      check_crash data wms ~crash ~flip:None)

let prop_crash_recovery_bitflip =
  QCheck.Test.make ~name:"recovery = committed prefix (bit flip)" ~count:200
    QCheck.(triple ops_gen (int_range 0 99999) (pair (int_range 0 99999) (int_range 0 7)))
    (fun (ops, seed, (off_seed, bit)) ->
      let data, wms = run_random_ops ops in
      let crash = seed mod (String.length data + 1) in
      let flip = if crash = 0 then None else Some (off_seed mod crash, bit) in
      check_crash data wms ~crash ~flip)

(* compact Put encoding ----------------------------------------------------- *)

(* The [Put] layout logs carried before the compact one: tag 'P', then
   id, source, label, dest, time and the decimal belief, each a u32le
   length and its bytes. *)
let old_put_payload (p : Prop.t) =
  let buf = Buffer.create 64 in
  Buffer.add_char buf 'P';
  List.iter
    (fun s ->
      Buffer.add_int32_le buf (Int32.of_int (String.length s));
      Buffer.add_string buf s)
    [
      Symbol.name p.id; Symbol.name p.source; Symbol.name p.label;
      Symbol.name p.dest; Time.to_string p.time; string_of_int p.belief;
    ];
  Buffer.contents buf

(* a log as written before the compact layout: the same magic and
   length + CRC-32 framing, with every [Put] in the old layout *)
let old_layout_log records =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf Wal.magic;
  List.iter
    (fun r ->
      let payload =
        match r with Wal.Put p -> old_put_payload p | r -> Wal.encode r
      in
      Buffer.add_int32_le buf (Int32.of_int (String.length payload));
      Buffer.add_int32_le buf (Crc32.of_string payload);
      Buffer.add_string buf payload)
    records;
  Buffer.contents buf

(* names: empty, short, ≥128 bytes (two-byte varint length), ≥16,384
   bytes (three bytes), and any bytes at all: tabs, newlines, non-ASCII *)
let name_gen =
  QCheck.Gen.(
    frequency
      [
        (1, return "");
        (4, string_size ~gen:printable (int_range 1 12));
        ( 2,
          map
            (fun s -> "tab\there\nnl\xc3\xa9\xff" ^ s)
            (string_size (int_range 0 8)) );
        (2, string_size (int_range 128 300));
        (1, string_size (int_range 16_384 16_500));
      ])

let point_gen =
  QCheck.Gen.(oneof [ int_range (-1000) 1000; oneofl [ min_int; max_int; 0 ] ])

(* [Time.of_string] reads an interval name up to its first '[', and an
   '@' in front as [At]: such names do not round-trip in either layout *)
let interval_name_gen =
  QCheck.Gen.(
    map
      (fun s -> "v" ^ String.map (fun c -> if c = '[' then '_' else c) s)
      (string_size (int_range 0 10)))

let time_gen =
  QCheck.Gen.(
    oneof
      [
        return Time.always;
        map Time.at point_gen;
        map Time.from point_gen;
        map2 (fun a b -> Time.between (min a b) (max a b)) point_gen point_gen;
        map3
          (fun n a b -> Time.named n (min a b) (max a b))
          interval_name_gen point_gen point_gen;
      ])

let belief_gen =
  QCheck.Gen.(
    oneof [ return 0; int_range (-1000) (-1); oneofl [ min_int; max_int ]; int ])

(* [same] picks which of source, label and dest equal the id *)
let prop_gen =
  QCheck.Gen.(
    map
      (fun ((id, source, label, dest), (same, time, belief)) ->
        let id = sym id in
        let pick bit name = if same land bit <> 0 then id else sym name in
        Prop.make ~time ~belief ~id ~source:(pick 1 source)
          ~label:(pick 2 label) ~dest:(pick 4 dest) ())
      (pair
         (quad name_gen name_gen name_gen name_gen)
         (triple (int_range 0 7) time_gen belief_gen)))

let print_prop (p : Prop.t) =
  let short s =
    let s = Symbol.name s in
    if String.length s <= 24 then Printf.sprintf "%S" s
    else Printf.sprintf "%S…(%d bytes)" (String.sub s 0 24) (String.length s)
  in
  Printf.sprintf "<%s, %s, %s, %s, %s> belief %d" (short p.id) (short p.source)
    (short p.label) (short p.dest) (Time.to_string p.time) p.belief

let prop_put_codec =
  QCheck.Test.make ~name:"compact Put round-trips, never longer than 'P'"
    ~count:500 (QCheck.make ~print:print_prop prop_gen) (fun p ->
      let payload = Wal.encode (Wal.Put p) in
      if String.length payload > String.length (old_put_payload p) then
        QCheck.Test.fail_reportf "%d bytes compact, %d in the old layout"
          (String.length payload)
          (String.length (old_put_payload p));
      (* [Prop.equal] ignores the belief: compare it on its own *)
      match Wal.decode payload with
      | Ok (Wal.Put q) -> Prop.equal p q && q.belief = p.belief
      | Ok _ -> QCheck.Test.fail_report "decoded to another record"
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let replay_log data =
  let scan = Wal.scan data in
  let resolved = resolve scan.Wal.records in
  let base = Store.Base.create () in
  ignore (ok (replay_into base resolved.ops));
  (scan, canon base, resolved.decisions)

let prop_old_layout_replays =
  QCheck.Test.make ~name:"an old-layout log replays like the compact one"
    ~count:100 ops_gen (fun ops ->
      let data, _ = run_random_ops ops in
      let scan, state, decisions = replay_log data in
      let old = old_layout_log scan.Wal.records in
      let old_scan, old_state, old_decisions = replay_log old in
      old_scan.Wal.truncated = None
      && old_scan.Wal.valid_bytes = String.length old
      (* the frame lengths, not a re-encoding, walk the old records *)
      && List.fold_left
           (fun off _ -> Wal.frame_end old off)
           Wal.header_bytes old_scan.Wal.records
         = String.length old
      && encoded old_scan.Wal.records = encoded scan.Wal.records
      && old_state = state && old_decisions = decisions)

(* whole-repository durability -------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc data

(* the §2.1 scenario's first two decisions, journaled under [dir] *)
let two_decisions dir =
  let st = ok (Scn.setup ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  Durable.close d;
  st.Scn.repo

let test_durable_roundtrip () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.setup ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  Durable.close d;
  let repo2, report = ok (Durable.recover ~dir ()) in
  check bool "checkpoint loaded" true report.Durable.checkpoint_loaded;
  check Alcotest.(list Alcotest.string) "both decisions recovered"
    (List.map Symbol.name (Repo.decision_log st.Scn.repo))
    (List.map Symbol.name (Repo.decision_log repo2));
  check Alcotest.(list Alcotest.string) "same propositions"
    (canon (Cml.Kb.base (Repo.kb st.Scn.repo)))
    (canon (Cml.Kb.base (Repo.kb repo2)));
  (* artifacts replayed from the log, not just the checkpoint *)
  List.iter
    (fun obj ->
      check bool (Symbol.name obj ^ " artifact recovered") true
        (Repo.source_text st.Scn.repo obj = Repo.source_text repo2 obj))
    (Repo.all_design_objects st.Scn.repo)

let test_durable_crash_prefix () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.setup ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  ignore (ok (Scn.map_move_down st));
  let state_after_first = canon (Cml.Kb.base (Repo.kb st.Scn.repo)) in
  ignore (ok (Scn.normalize_invitations st));
  Durable.close d;
  (* crash mid-commit of the second decision: tear its commit record *)
  let wal = Durable.wal_path dir in
  let ic = open_in_bin wal in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let last_commit_off =
    List.fold_left
      (fun (off, found) r ->
        let next = off + String.length (Wal.frame r) in
        match r with
        | Wal.Decision_commit _ -> (next, Some off)
        | _ -> (next, found))
      (String.length Wal.magic, None)
      (Wal.scan data).Wal.records
    |> snd |> Option.get
  in
  let oc = open_out_bin wal in
  output_string oc (String.sub data 0 (last_commit_off + 3));
  close_out oc;
  let repo2, report = ok (Durable.recover ~dir ()) in
  check bool "tail was cut" true (report.Durable.truncated <> None);
  check Alcotest.(list Alcotest.string) "first decision survives" [ "dec1" ]
    (List.map Symbol.name (Repo.decision_log repo2));
  (* the torn second decision left no partial state: its frame dangled *)
  check int "in-flight decision rolled back" 1 report.Durable.dangling_frames;
  check Alcotest.(list Alcotest.string) "state is the committed prefix"
    state_after_first
    (canon (Cml.Kb.base (Repo.kb repo2)))

let test_durable_open_continues () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.setup ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  ignore (ok (Scn.map_move_down st));
  let rel = st.Scn.invitation_rel in
  Durable.close d;
  (* reopen: recover, re-checkpoint, and keep working durably *)
  let d2, _report = ok (Durable.open_ ~dir ()) in
  let repo2 = Durable.repo d2 in
  let executed =
    ok
      (Gkbms.Decision.execute repo2
         ~decision_class:Gkbms.Metamodel.dec_manual_edit
         ~tool:Gkbms.Mapping.editor_tool
         ~inputs:[ ("object", rel) ]
         ~params:[ ("text", "patched after recovery") ]
         ())
  in
  Durable.close d2;
  let repo3, _ = ok (Durable.recover ~dir ()) in
  check int "both generations of decisions" 2
    (List.length (Repo.decision_log repo3));
  check bool "second-generation decision present" true
    (List.exists
       (Symbol.equal executed.Gkbms.Decision.decision)
       (Repo.decision_log repo3))

let test_durable_aborted_not_resurrected () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.setup ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  ignore (ok (Scn.map_move_down st));
  (* a failing decision: the editor aborts without its text parameter,
     after the frame has opened *)
  (match
     Gkbms.Decision.execute st.Scn.repo
       ~decision_class:Gkbms.Metamodel.dec_manual_edit
       ~tool:Gkbms.Mapping.editor_tool
       ~inputs:[ ("object", st.Scn.invitation_rel) ]
       ~params:[] ()
   with
  | Ok _ -> ()
  | Error _ -> ());
  Durable.close d;
  let repo2, _report = ok (Durable.recover ~dir ()) in
  check Alcotest.(list Alcotest.string) "recovered log = live log"
    (List.map Symbol.name (Repo.decision_log st.Scn.repo))
    (List.map Symbol.name (Repo.decision_log repo2));
  check Alcotest.(list Alcotest.string) "recovered state = live state"
    (canon (Cml.Kb.base (Repo.kb st.Scn.repo)))
    (canon (Cml.Kb.base (Repo.kb repo2)))

let test_durable_checkpoint_truncates () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.setup ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  ignore (ok (Scn.map_move_down st));
  check bool "log grew" true (Durable.wal_records d > 0);
  ok (Durable.checkpoint d);
  check int "log truncated" 0 (Durable.wal_records d);
  ignore (ok (Scn.normalize_invitations st));
  Durable.close d;
  let repo2, report = ok (Durable.recover ~dir ()) in
  check bool "suffix replayed over checkpoint" true
    (report.Durable.replayed_ops > 0);
  check Alcotest.(list Alcotest.string) "nothing lost"
    (List.map Symbol.name (Repo.decision_log st.Scn.repo))
    (List.map Symbol.name (Repo.decision_log repo2))

let test_durable_retraction_survives () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.run_through_conflict ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  ignore (ok (Scn.resolve_conflict st));
  Durable.close d;
  let repo2, _ = ok (Durable.recover ~dir ()) in
  check Alcotest.(list Alcotest.string) "retraction survives recovery"
    (List.map Symbol.name (Repo.decision_log st.Scn.repo))
    (List.map Symbol.name (Repo.decision_log repo2))

let test_durable_recovers_old_layout () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let repo = two_decisions dir in
  let wal = Durable.wal_path dir in
  write_file wal (old_layout_log (Wal.scan (read_file wal)).Wal.records);
  let repo2, report = ok (Durable.recover ~dir ()) in
  check bool "clean tail" true (report.Durable.truncated = None);
  check Alcotest.(list Alcotest.string) "every decision recovered"
    (List.map Symbol.name (Repo.decision_log repo))
    report.Durable.recovered_decisions;
  check Alcotest.(list Alcotest.string) "same propositions"
    (canon (Cml.Kb.base (Repo.kb repo)))
    (canon (Cml.Kb.base (Repo.kb repo2)))

(* [Wal.scan] reads a log with a bad magic as holding no records;
   recovery must refuse it rather than let [open_] archive and truncate
   the frames behind the header *)
let test_durable_refuses_damaged_header () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  ignore (two_decisions dir : Repo.t);
  let wal = Durable.wal_path dir in
  let damaged =
    Fault.corrupt (Fault.script ~flips:[ (3, 0) ] ()) (read_file wal)
  in
  write_file wal damaged;
  let names_log e = String.starts_with ~prefix:wal e in
  (match Durable.recover ~dir () with
  | Ok _ -> Alcotest.fail "recover read a damaged header as an empty log"
  | Error e -> check bool "recover names the log" true (names_log e));
  (match Durable.open_ ~dir () with
  | Ok (d, _) ->
    Durable.close d;
    Alcotest.fail "open_ read a damaged header as an empty log"
  | Error e -> check bool "open_ names the log" true (names_log e));
  check bool "log left as it was" true (read_file wal = damaged);
  (* an empty log, or a creation torn inside the magic, holds no records *)
  List.iter
    (fun data ->
      write_file wal data;
      let _, report = ok (Durable.recover ~dir ()) in
      check int
        (Printf.sprintf "%d-byte log recovers empty" (String.length data))
        0 report.Durable.wal_records)
    [ ""; String.sub Wal.magic 0 3 ]

(* checkpoint durability ------------------------------------------------- *)

let live_canonical repo = Gkbms.Persist.save_repository_canonical repo

let dir_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         (f, if Sys.is_directory path then "<dir>" else read_file path))

(* a flipped byte in the checkpoint is refused, naming the file, and no
   file is touched: on the text layout a flipped letter inside a name
   still parsed, and recovery went on with a different repository *)
let test_damaged_checkpoint_refused () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  ignore (two_decisions dir : Repo.t);
  let cp = Durable.checkpoint_path dir in
  let data = read_file cp in
  let b = Bytes.of_string data in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x20));
  write_file cp (Bytes.to_string b);
  let before = dir_files dir in
  let names_checkpoint e = String.starts_with ~prefix:cp e in
  (match Durable.recover ~dir () with
  | Ok _ -> Alcotest.fail "recover read a damaged checkpoint"
  | Error e ->
    check bool ("recover names the checkpoint: " ^ e) true (names_checkpoint e));
  (match Durable.open_ ~dir () with
  | Ok (d, _) ->
    Durable.close d;
    Alcotest.fail "open_ read a damaged checkpoint"
  | Error e -> check bool "open_ names the checkpoint" true (names_checkpoint e));
  check bool "every file left as it was" true (dir_files dir = before)

let manual_edit repo obj text =
  ignore
    (ok
       (Gkbms.Decision.execute repo
          ~decision_class:Gkbms.Metamodel.dec_manual_edit
          ~tool:Gkbms.Mapping.editor_tool
          ~inputs:[ ("object", sym obj) ]
          ~params:[ ("text", text) ]
          ()))

(* a checkpoint that cannot land fails, and changes nothing: the log,
   its generation and the archives stay, and journaling goes on *)
let test_checkpoint_that_cannot_land () =
  let dir = Scratch.temp_dir () in
  let tmp = Durable.checkpoint_path dir ^ ".tmp" in
  Fun.protect ~finally:(fun () ->
      (try Unix.rmdir tmp with Unix.Unix_error _ -> ());
      Scratch.rm_rf dir)
  @@ fun () ->
  let st = ok (Scn.setup ()) in
  let d = ok (Durable.attach ~fsync:true ~dir st.Scn.repo) in
  ignore (ok (Scn.map_move_down st));
  Durable.sync d;
  Unix.mkdir tmp 0o755;
  let gen = Durable.generation d in
  let before = dir_files dir in
  (match Durable.checkpoint d with
  | Ok () -> Alcotest.fail "a checkpoint over a directory landed"
  | Error _ -> ());
  check int "generation unchanged" gen (Durable.generation d);
  check bool "log, archives and checkpoint as they were" true
    (dir_files dir = before);
  ignore (ok (Scn.normalize_invitations st));
  Durable.close d;
  let repo2, _ = ok (Durable.recover ~dir ()) in
  check string "journaling went on" (live_canonical st.Scn.repo)
    (live_canonical repo2);
  (* with the obstacle gone, the next checkpoint lands and rotates *)
  Unix.rmdir tmp;
  let d = ok (Durable.attach ~fsync:true ~dir repo2) in
  let gen = Durable.generation d in
  ok (Durable.checkpoint d);
  check int "rotated" (gen + 1) (Durable.generation d);
  Durable.close d

(* a crash after the snapshot's rename but before the log's rotation
   leaves the new checkpoint beside the whole old log: replaying it over
   the snapshot must give the live state *)
let test_crash_between_rename_and_rotation () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.run_through_conflict ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  ignore (ok (Scn.resolve_conflict st));
  manual_edit st.Scn.repo "InvitationRel" "after the retraction";
  Durable.sync d;
  let old_log = read_file (Durable.wal_path dir) in
  let gen = Durable.generation d in
  ok (Durable.checkpoint d);
  Durable.close d;
  Sys.remove (Durable.archived_wal_path dir gen);
  write_file (Durable.wal_path dir) old_log;
  let repo2, report = ok (Durable.recover ~dir ()) in
  check bool "the old log replayed" true (report.Durable.replayed_ops > 0);
  check string "live state recovered" (live_canonical st.Scn.repo)
    (live_canonical repo2)

(* a checkpoint cut before its rename leaves a torn temp file, which
   recovery ignores and the next checkpoint replaces *)
let test_torn_checkpoint_tmp_ignored () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let repo = two_decisions dir in
  let cp = Durable.checkpoint_path dir in
  let data = read_file cp in
  write_file (cp ^ ".tmp") (String.sub data 0 (String.length data / 2));
  let repo2, _ = ok (Durable.recover ~dir ()) in
  check string "recovered past the torn temp file" (live_canonical repo)
    (live_canonical repo2);
  let d, _ = ok (Durable.open_ ~dir ()) in
  Durable.close d;
  check bool "temp file replaced by the checkpoint" false
    (Sys.file_exists (cp ^ ".tmp"));
  let repo3, _ = ok (Durable.recover ~dir ()) in
  check string "and the new checkpoint loads" (live_canonical repo)
    (live_canonical repo3)

(* a warm restart is a fresh process: the global proposition id counter
   restarts at zero, and recovery must re-align it so the first
   post-restart decision does not mint ids colliding with recovered
   propositions (seen as "proposition id p1 already present" on a
   restarted replication leader's first write) *)
let test_recover_realigns_prop_ids () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.setup ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  ignore (ok (Scn.map_move_down st));
  Durable.close d;
  Kernel.Prop.reset_ids ();
  let repo2, _ = ok (Durable.recover ~dir ()) in
  (match
     Repo.new_object repo2 ~name:"FreshAfterRestart"
       ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "post-restart insert refused: %s" e);
  check bool "object landed" true
    (List.exists
       (fun o -> Symbol.name o = "FreshAfterRestart")
       (Repo.all_design_objects repo2))

(* a retraction leaves a gap in the dec<n> sequence; recovery must park
   the decision counter past the maximum, not in the gap, or the first
   post-restart commit re-issues a live decision's id (and replication
   followers then skip its frame as an already-applied overlap) *)
let test_recover_realigns_decision_counter () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.run_through_conflict ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  ignore (ok (Scn.resolve_conflict st));
  Durable.close d;
  let next_live = Repo.fresh_decision_id st.Scn.repo in
  let repo2, _ = ok (Durable.recover ~dir ()) in
  check string "fresh decision id skips the retraction gap" next_live
    (Repo.fresh_decision_id repo2)

(* memory per proposition ---------------------------------------------- *)

(* The §2.1 scenario through the key decision plus [docs] documents,
   with a shell session that edits them. *)
let docs = 256

let documents_repo () =
  let st = ok (Scn.setup ()) in
  ignore (ok (Scn.map_move_down st));
  ignore (ok (Scn.normalize_invitations st));
  ignore (ok (Scn.substitute_key st));
  let repo = st.Scn.repo in
  for i = 0 to docs - 1 do
    ignore
      (ok
         (Repo.new_object repo ~name:(Printf.sprintf "Doc%dx" i)
            ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")))
  done;
  (repo, Gkbms.Shell.session repo)

let edit sh i =
  ignore
    (Gkbms.Shell.eval sh
       (Printf.sprintf "run DecManualEdit Editor object=Doc%dx text=e%d"
          (i mod docs) i))

(* The repository the memory bounds are measured on: 2,000 manual edits
   of the documents, ~49k propositions, most of them version objects. *)
let edited_repo () =
  let repo, sh = documents_repo () in
  for i = 0 to 1999 do
    edit sh i
  done;
  check bool "edits committed" true (List.length (Repo.decision_log repo) > 2000);
  check bool "~49k propositions" true
    (Store.Base.cardinal (Cml.Kb.base (Repo.kb repo)) > 40_000);
  repo

(* a checkpoint streams the snapshot to its file: the major heap must not
   grow with the snapshot's size.  Building the whole snapshot as one
   string (plus its copies) allocated ~15x the file size there. *)
let test_checkpoint_memory_bound () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let repo = edited_repo () in
  let d = ok (Durable.attach ~dir repo) in
  Fun.protect ~finally:(fun () -> Durable.close d) @@ fun () ->
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.major_words in
  ok (Durable.checkpoint d);
  let major_bytes = ((Gc.quick_stat ()).Gc.major_words -. before) *. 8. in
  let file_bytes = float (Unix.stat (Durable.checkpoint_path dir)).Unix.st_size in
  if major_bytes >= file_bytes then
    Alcotest.failf "checkpoint allocated %.0f major-heap bytes for a %.0f-byte file"
      major_bytes file_bytes

(* The binary checkpoint spells each name once: at most 0.6 of the
   canonical text form of the same state (the text checkpoint was the
   same size as that form). *)
let test_checkpoint_size () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let repo = edited_repo () in
  let d = ok (Durable.attach ~dir repo) in
  Durable.close d;
  let file_bytes = (Unix.stat (Durable.checkpoint_path dir)).Unix.st_size in
  let text_bytes = String.length (Gkbms.Persist.save_repository_canonical repo) in
  if float file_bytes > 0.6 *. float text_bytes then
    Alcotest.failf "checkpoint %d bytes, %.2f of the %d-byte canonical form"
      file_bytes
      (float file_bytes /. float text_bytes)
      text_bytes

(* The side tables Kb keeps next to the store must not cost a table
   entry per proposition: the closure memos hold class-level entries
   only. *)
let test_side_tables_per_prop () =
  let kb = Repo.kb (edited_repo ()) in
  let classes =
    Store.Base.fold (Cml.Kb.base kb)
      (fun acc (p : Prop.t) ->
        if Symbol.equal p.label Cml.Axioms.isa then
          Symbol.Set.add p.source (Symbol.Set.add p.dest acc)
        else if Symbol.equal p.label Cml.Axioms.instanceof then Symbol.Set.add p.dest acc
        else acc)
      Symbol.Set.empty
  in
  let entries = (Cml.Kb.cache_stats kb).Cml.Kb.entries in
  if entries > Symbol.Set.cardinal classes then
    Alcotest.failf "closure memos hold %d entries for %d classes" entries
      (Symbol.Set.cardinal classes)

(* A write pays for no absent reader: with no class constraint in the
   KB, an edit allocates ~7.5k minor words.  Feeding the (since
   deleted) query-planner statistics on every write and classifying
   every endpoint of the delta to find class constraints took ~14.3k. *)
let test_edit_allocation () =
  let repo, sh = documents_repo () in
  for i = 0 to 511 do
    edit sh i
  done;
  let decisions = List.length (Repo.decision_log repo) in
  let words =
    Array.init 16 (fun k ->
        let before = Gc.minor_words () in
        edit sh (512 + k);
        Gc.minor_words () -. before)
  in
  check int "every edit committed" (decisions + 16)
    (List.length (Repo.decision_log repo));
  Array.sort compare words;
  let median = (words.(7) +. words.(8)) /. 2. in
  if median > 10_000. then
    Alcotest.failf "an edit allocates %.0f minor words" median

(* An edit journals 32 records: 24 [Put]s (six individuals and
   eighteen links), five artifacts, the trace note and the decision
   bracket.  The compact [Put] writes an individual's name once and
   implies the default time: ~1,400 bytes per edit, where spelling out
   every field took ~2,280. *)
let test_edit_journal_bytes () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let repo, sh = documents_repo () in
  let d = ok (Durable.attach ~checkpoint_every:max_int ~dir repo) in
  Fun.protect ~finally:(fun () -> Durable.close d) @@ fun () ->
  for i = 0 to 511 do
    edit sh i
  done;
  for k = 0 to 15 do
    let bytes = Durable.wal_bytes d and records = Durable.wal_records d in
    edit sh (512 + k);
    check int "records per edit" 32 (Durable.wal_records d - records);
    let journaled = Durable.wal_bytes d - bytes in
    if journaled > 1_600 then
      Alcotest.failf "edit %d journaled %d bytes" k journaled
  done

(* The default store keeps one node per proposition on three intrusive
   chains: ~24 words per proposition, [Prop.t] records included.  List
   buckets behind a [ref] cell per key, plus a (source, label) table
   with boxed pair keys, hold ~39. *)
let test_store_words_per_prop () =
  let base = Cml.Kb.base (Repo.kb (edited_repo ())) in
  let st = Store.Mem_store.create () in
  Store.Base.iter base (fun p -> ignore (Store.Mem_store.insert st p));
  let props = Store.Mem_store.cardinal st in
  check int "every proposition stored" (Store.Base.cardinal base) props;
  let per_prop =
    float_of_int (Obj.reachable_words (Obj.repr st)) /. float_of_int props
  in
  if per_prop > 28. then
    Alcotest.failf "the mem store holds %.1f words per proposition" per_prop

(* mid-log offset reading (replication frame shipping) -------------------- *)

(* every frame-start offset of [data]'s valid prefix, plus the end
   boundary (so the last entry is exactly [valid_bytes]) *)
let frame_boundaries data =
  let scan = Wal.scan data in
  let offs, last =
    List.fold_left
      (fun (offs, off) _ -> (off :: offs, Wal.frame_end data off))
      ([], Wal.header_bytes) scan.Wal.records
  in
  List.rev (last :: offs)

let test_scan_from_every_boundary () =
  let data, _ = write_sample () in
  let bounds = frame_boundaries data in
  check int "one boundary per frame plus the end"
    (List.length sample_records + 1)
    (List.length bounds);
  List.iteri
    (fun i off ->
      let scan = Wal.scan_from data ~offset:off in
      check bool (Printf.sprintf "clean at boundary %d" i) true
        (scan.Wal.truncated = None);
      check Alcotest.(list Alcotest.string)
        (Printf.sprintf "suffix from boundary %d" i)
        (encoded (List.filteri (fun j _ -> j >= i) sample_records))
        (encoded scan.Wal.records);
      check int
        (Printf.sprintf "valid to the end from boundary %d" i)
        (String.length data) scan.Wal.valid_bytes)
    bounds

let test_scan_from_headerless_chunk () =
  (* shipped chunks carry no header: scan them with expect_header off *)
  let data, _ = write_sample () in
  let chunk =
    String.sub data Wal.header_bytes (String.length data - Wal.header_bytes)
  in
  let scan = Wal.scan_from ~expect_header:false chunk ~offset:0 in
  check bool "clean" true (scan.Wal.truncated = None);
  check Alcotest.(list Alcotest.string) "all records"
    (encoded sample_records) (encoded scan.Wal.records);
  check int "all bytes consumed" (String.length chunk) scan.Wal.valid_bytes;
  (* with the header expected, the same bytes are rejected *)
  let rejected = Wal.scan_from chunk ~offset:0 in
  check bool "headerless bytes rejected when header expected" true
    (rejected.Wal.truncated <> None && rejected.Wal.records = [])

let test_scan_from_torn_final_frame () =
  let data, _ = write_sample () in
  let bounds = frame_boundaries data in
  let mid = List.nth bounds (List.length bounds / 2) in
  let last_start = List.nth bounds (List.length bounds - 2) in
  let cut = String.sub data 0 (String.length data - 2) in
  let scan = Wal.scan_from cut ~offset:mid in
  check bool "torn tail reported" true (scan.Wal.truncated <> None);
  check Alcotest.(list Alcotest.string) "mid-log suffix minus the torn frame"
    (encoded
       (List.filteri
          (fun j _ ->
            j >= List.length bounds / 2 && j < List.length sample_records - 1)
          sample_records))
    (encoded scan.Wal.records);
  check int "scan boundary before the torn frame" last_start
    scan.Wal.valid_bytes;
  (* once the frame's bytes complete, resuming at the boundary reads
     exactly the one remaining record — the follower resume path *)
  let resumed = Wal.scan_from data ~offset:scan.Wal.valid_bytes in
  check bool "resume is clean" true (resumed.Wal.truncated = None);
  check Alcotest.(list Alcotest.string) "resume reads the final record"
    (encoded [ List.nth sample_records (List.length sample_records - 1) ])
    (encoded resumed.Wal.records)

(* randomized extension of the crash suite: at any frame boundary of any
   crashed log, scan_from agrees with the full scan's suffix *)
let prop_scan_from_is_suffix =
  QCheck.Test.make ~name:"scan_from = scan suffix (random crashes and offsets)"
    ~count:200
    QCheck.(triple ops_gen (int_range 0 99999) (int_range 0 99999))
    (fun (ops, crash_seed, idx_seed) ->
      let data, _ = run_random_ops ops in
      let crash = crash_seed mod (String.length data + 1) in
      let cut = String.sub data 0 crash in
      let full = Wal.scan cut in
      if String.length cut < Wal.header_bytes then
        (* no header survived: scan_from must reject like scan does *)
        let s = Wal.scan_from cut ~offset:0 in
        s.Wal.records = [] && s.Wal.valid_bytes = 0
      else begin
        let bounds = frame_boundaries cut in
        let idx = idx_seed mod List.length bounds in
        let s = Wal.scan_from cut ~offset:(List.nth bounds idx) in
        encoded s.Wal.records
        = List.filteri (fun j _ -> j >= idx) (encoded full.Wal.records)
        && s.Wal.valid_bytes = full.Wal.valid_bytes
      end)

(* group commit: a batch is one crash-atomic unit ------------------------- *)

let test_group_commit_batch_recovery () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.setup ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  (* an ordinary synchronous commit, then a committed batch: both are
     the acknowledged history *)
  ignore (ok (Scn.map_move_down st));
  Durable.sync d;
  Durable.begin_batch d;
  ignore (ok (Scn.normalize_invitations st));
  Durable.commit_batch d;
  let acked = List.map Symbol.name (Repo.decision_log st.Scn.repo) in
  let state_acked = canon (Cml.Kb.base (Repo.kb st.Scn.repo)) in
  (* a torn batch: its decision frames reach the disk, but the crash
     comes before the end-of-batch marker — exactly the window in which
     no client has been acked yet *)
  Durable.begin_batch d;
  ignore (ok (Scn.substitute_key st));
  Durable.sync d;
  let repo2, report = ok (Durable.recover ~dir ()) in
  check
    Alcotest.(list string)
    "acked decisions survive, torn batch rolled back" acked
    (List.map Symbol.name (Repo.decision_log repo2));
  check bool "torn batch counted as dangling" true
    (report.Durable.dangling_frames >= 1);
  check
    Alcotest.(list string)
    "state is exactly the acknowledged history" state_acked
    (canon (Cml.Kb.base (Repo.kb repo2)))

let test_group_commit_empty_and_errors () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.setup ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  (* an empty batch is legal and recovers to nothing extra *)
  Durable.begin_batch d;
  Durable.commit_batch d;
  (* unbalanced batch calls are programming errors, not silent no-ops *)
  Durable.begin_batch d;
  (match Durable.begin_batch d with
  | () -> Alcotest.fail "nested begin_batch accepted"
  | exception Invalid_argument _ -> ());
  Durable.commit_batch d;
  (* commit without an open batch is ignored (idempotent shutdown) *)
  Durable.commit_batch d;
  Durable.close d;
  let repo2, _ = ok (Durable.recover ~dir ()) in
  check int "no phantom decisions" 0 (List.length (Repo.decision_log repo2))

let suite =
  [
    ("crc32 vectors", `Quick, test_crc_vectors);
    ("crc32 incremental", `Quick, test_crc_incremental);
    ("frame roundtrip", `Quick, test_roundtrip);
    ("codec rejects garbage", `Quick, test_codec_rejects_garbage);
    ("torn tail truncated", `Quick, test_torn_tail);
    ("bit flip detected", `Quick, test_bit_flip_detected);
    ("bad header rejected", `Quick, test_bad_header);
    ("implausible length rejected", `Quick, test_implausible_length);
    ("fault sink drops bytes at crash point", `Quick, test_fault_sink_crash);
    ("resolve commit and abort", `Quick, test_resolve_commit_and_abort);
    ("resolve nested frames", `Quick, test_resolve_nested);
    ("resolve dangling outer frame", `Quick, test_resolve_nested_dangling_outer);
    ("replayer holds a torn batch", `Quick, test_replayer_torn_batch);
    ("replayer drops an abort inside a batch", `Quick, test_replayer_abort_in_batch);
    ("replay idempotent", `Quick, test_replay_idempotent);
    QCheck_alcotest.to_alcotest prop_crash_recovery_torn;
    QCheck_alcotest.to_alcotest prop_crash_recovery_bitflip;
    QCheck_alcotest.to_alcotest prop_put_codec;
    QCheck_alcotest.to_alcotest prop_old_layout_replays;
    ("scan_from at every frame boundary", `Quick, test_scan_from_every_boundary);
    ("scan_from headerless chunk", `Quick, test_scan_from_headerless_chunk);
    ("scan_from torn final frame", `Quick, test_scan_from_torn_final_frame);
    QCheck_alcotest.to_alcotest prop_scan_from_is_suffix;
    ("durable repository roundtrip", `Quick, test_durable_roundtrip);
    ("durable crash keeps committed prefix", `Quick, test_durable_crash_prefix);
    ("durable reopen continues", `Quick, test_durable_open_continues);
    ("aborted decision not resurrected", `Quick, test_durable_aborted_not_resurrected);
    ("checkpoint truncates log", `Quick, test_durable_checkpoint_truncates);
    ("retraction survives recovery", `Quick, test_durable_retraction_survives);
    ("durable recovers an old-layout log", `Quick, test_durable_recovers_old_layout);
    ("durable refuses a damaged log header", `Quick, test_durable_refuses_damaged_header);
    ("recovery realigns prop id counter", `Quick, test_recover_realigns_prop_ids);
    ("recovery realigns decision counter", `Quick, test_recover_realigns_decision_counter);
    ("checkpoint major allocation below file size", `Quick, test_checkpoint_memory_bound);
    ("checkpoint at most 0.6 of the canonical text", `Quick, test_checkpoint_size);
    ("damaged checkpoint refused, files untouched", `Quick, test_damaged_checkpoint_refused);
    ("checkpoint that cannot land changes nothing", `Quick, test_checkpoint_that_cannot_land);
    ("crash between checkpoint rename and rotation", `Quick,
     test_crash_between_rename_and_rotation);
    ("torn checkpoint temp file ignored", `Quick, test_torn_checkpoint_tmp_ignored);
    ("kb side tables hold no entry per proposition", `Quick, test_side_tables_per_prop);
    ("edit allocation pays for no absent reader", `Quick, test_edit_allocation);
    ("edit journals at most 1,600 bytes", `Quick, test_edit_journal_bytes);
    ("mem store words per proposition", `Quick, test_store_words_per_prop);
    ("group-commit batch is crash-atomic", `Quick, test_group_commit_batch_recovery);
    ("group-commit batch edge cases", `Quick, test_group_commit_empty_and_errors);
  ]
