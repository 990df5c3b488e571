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

(* each record as the payload of a frame of its own, for comparison *)
let encoded rs = List.map (fun r -> Wal.encode [ r ]) rs

(* a frame around any payload: its length, its CRC-32 and its bytes *)
let raw_frame payload =
  let buf = Buffer.create (8 + String.length payload) in
  Buffer.add_int32_le buf (Int32.of_int (String.length payload));
  Buffer.add_int32_le buf (Crc32.of_string payload);
  Buffer.add_string buf payload;
  Buffer.contents buf

(* A record as logs carried it before a frame held a decision, which
   this build reads and no longer writes: one record per frame, a
   [Put]'s symbols each a [vstr] name, every other string a u32le
   length and its bytes. *)
let one_record_payload r =
  let buf = Buffer.create 64 in
  let str s =
    Buffer.add_int32_le buf (Int32.of_int (String.length s));
    Buffer.add_string buf s
  in
  (match r with
  | Wal.Put p ->
    Buffer.add_char buf 'p';
    Durability.Codec.add_prop Durability.Codec.add_name buf p
  | Wal.Tomb id ->
    Buffer.add_char buf 'T';
    str (Symbol.name id)
  | Wal.Decision_begin cls ->
    Buffer.add_char buf 'B';
    str cls
  | Wal.Decision_commit id ->
    Buffer.add_char buf 'C';
    str id
  | Wal.Decision_abort reason ->
    Buffer.add_char buf 'A';
    str reason
  | Wal.Artifact (name, text) ->
    Buffer.add_char buf 'R';
    str name;
    str text
  | Wal.Note (k, v) ->
    Buffer.add_char buf 'N';
    str k;
    str v);
  Buffer.contents buf

(* the bytes of [records] as a headerless run of this build's frames *)
let frames_of records =
  let buf = Buffer.create 1024 in
  let w = Wal.writer ~header:false (Wal.buffer_sink buf) in
  List.iter (Wal.append w) records;
  Wal.close w;
  Buffer.contents buf

(* where each frame of a scan starts: the scan's first offset, then
   each frame's end but the last *)
let frame_starts first (frames : Wal.frame list) =
  List.rev
    (snd
       (List.fold_left
          (fun (at, starts) (f : Wal.frame) -> (f.stop, at :: starts))
          (first, []) frames))

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
    (* a name an earlier frame spelt: each frame spells it again *)
    Wal.Put (mk "p3" "Paper" "isa" "Document");
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
  let scan = ok (Wal.scan data) in
  check bool "clean tail" true (scan.Wal.truncated = None);
  check int "all bytes valid" (String.length data) scan.Wal.valid_bytes;
  check Alcotest.(list Alcotest.string) "records survive"
    (encoded sample_records)
    (encoded (Wal.records scan));
  (* a frame per decision, and one per record outside every decision *)
  check Alcotest.(list int) "records per frame" [ 1; 1; 1; 3; 1; 1; 1 ]
    (List.map (fun (f : Wal.frame) -> List.length f.records) scan.Wal.frames)

let test_codec_rejects_garbage () =
  (match Wal.decode "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty payload decoded");
  (match Wal.decode "Zjunk" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag decoded");
  (match Wal.decode (Wal.encode [ Wal.Decision_commit "x" ] ^ "extra") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted");
  (match Wal.decode (one_record_payload (Wal.Decision_commit "x") ^ "extra") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted in a one-record frame");
  (* the compact [Put]: a multi-byte belief, so a cut lands in a varint *)
  let put =
    Wal.encode
      [
        Wal.Put
          (Prop.make ~belief:300 ~id:(sym "x") ~source:(sym "x")
             ~label:(sym "x") ~dest:(sym "x") ());
      ]
  in
  let rejects what payload =
    match Wal.decode payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "compact Put: %s accepted" what
  in
  (* the flags follow the frame tag and the record tag *)
  List.iter
    (fun bit ->
      let b = Bytes.of_string put in
      Bytes.set b 2 (Char.chr (Char.code put.[2] lor (1 lsl bit)));
      rejects (Printf.sprintf "reserved flag bit %d" bit) (Bytes.to_string b))
    [ 4; 5; 6; 7 ];
  rejects "truncated belief varint" (String.sub put 0 (String.length put - 1));
  rejects "truncated length varint" "Fp\x00\x00\x80";
  rejects "truncated length varint, one-record frame" "p\x00\x80";
  rejects "overlong varint" ("Fp\x0f\x00\x01x" ^ String.make 9 '\xff' ^ "\x01");
  rejects "overlong varint, one-record frame" ("p\x0f\x01x" ^ String.make 9 '\xff' ^ "\x01");
  rejects "missing flags byte" "Fp";
  rejects "missing flags byte, one-record frame" "p";
  rejects "trailing bytes" (put ^ "\x00");
  rejects "a frame of no records" "F";
  rejects "a name used before it is spelt" "FT\x02";
  rejects "serial number 0" "FT\x01";
  let serial n =
    let b = Buffer.create 16 in
    Buffer.add_string b "FT";
    Durability.Codec.add_varint b ((n lsl 1) lor 1);
    Buffer.contents b
  in
  rejects "a serial number past the range" (serial Symbol.serial_limit);
  (match Wal.decode (serial (Symbol.serial_limit - 1)) with
  | Ok [ Wal.Tomb id ] ->
    check int "the range's last serial" (Symbol.serial_limit - 1) (Symbol.serial_number id)
  | _ -> Alcotest.fail "the range's last serial number refused")

let test_torn_tail () =
  let data, _ = write_sample () in
  let cut = String.sub data 0 (String.length data - 3) in
  let scan = ok (Wal.scan cut) in
  check bool "tail reported" true (scan.Wal.truncated <> None);
  check Alcotest.(list Alcotest.string) "all but last survive"
    (encoded
       (List.filteri
          (fun i _ -> i < List.length sample_records - 1)
          sample_records))
    (encoded (Wal.records scan));
  (* replay boundary sits exactly after the last full frame *)
  check bool "valid prefix rescans clean" true
    ((ok (Wal.scan (String.sub cut 0 scan.Wal.valid_bytes))).Wal.truncated
    = None)

let test_bit_flip_detected () =
  let data, _ = write_sample () in
  (* flip one payload bit in the middle of the log *)
  let off = String.length data / 2 in
  let corrupted =
    Fault.corrupt (Fault.script ~flips:[ (off, 3) ] ()) data
  in
  let scan = ok (Wal.scan corrupted) in
  check bool "corruption reported" true (scan.Wal.truncated <> None);
  check bool "valid prefix shorter" true (scan.Wal.valid_bytes < String.length data);
  (* the surviving records are a prefix of the originals *)
  List.iteri
    (fun i r ->
      check string
        (Printf.sprintf "record %d intact" i)
        (Wal.encode [ List.nth sample_records i ])
        (Wal.encode [ r ]))
    (Wal.records scan)

let test_bad_header () =
  let scan = ok (Wal.scan "NOTAWAL0rest") in
  check bool "rejected" true (scan.Wal.truncated <> None);
  check int "nothing valid" 0 scan.Wal.valid_bytes

let test_implausible_length () =
  let buf = Buffer.create 64 in
  Buffer.add_string buf Wal.magic;
  (* a length field claiming 2^31 bytes *)
  Buffer.add_string buf "\xff\xff\xff\x7f\x00\x00\x00\x00payload";
  let scan = ok (Wal.scan (Buffer.contents buf)) in
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

(* A sync that fails is never taken for durable: the decision's commit
   raises, and the writer refuses every later append and sync with the
   same error, since a retried fsync can report success after the
   kernel dropped the pages. *)
let test_failed_sync_refuses () =
  let w =
    Wal.writer
      (Fault.wrap (Fault.script ~fail_syncs:true ()) (Wal.buffer_sink (Buffer.create 64)))
  in
  let journal = Journal.attach w (Store.Base.create ()) in
  Journal.begin_decision journal "D1";
  Journal.note journal "k" "v";
  let first =
    match Journal.commit_decision journal "dec1" with
    | () -> Alcotest.fail "a commit whose sync failed returned"
    | exception (Unix.Unix_error (Unix.EIO, _, _) as e) -> e
  in
  let refused what f =
    match f () with
    | () -> Alcotest.failf "%s after a failed sync went through" what
    | exception e -> check bool (what ^ " refused with the same error") true (e == first)
  in
  refused "an append" (fun () -> Journal.note journal "k" "v");
  refused "a decision" (fun () -> Journal.begin_decision journal "D2");
  refused "a sync" (fun () -> Journal.sync journal);
  Wal.close w

(* A decision larger than a frame goes out in several frames, each
   under 512 KiB and each spelling its names again, so each decodes
   alone; the replayer joins them into the one decision. *)
let test_large_decision_splits () =
  let text = String.make 200_000 'x' in
  let records =
    (Wal.Decision_begin "Big"
    :: List.concat
         (List.init 6 (fun i ->
              [
                Wal.Put (mk (Printf.sprintf "big%d" i) "SharedName" "l" "d");
                Wal.Artifact ("SharedName", text);
              ])))
    @ [ Wal.Decision_commit "bigdec" ]
  in
  let buf = Buffer.create 1024 in
  let w = Wal.writer (Wal.buffer_sink buf) in
  List.iter (Wal.append w) records;
  Wal.close w;
  let data = Buffer.contents buf in
  let scan = ok (Wal.scan data) in
  check bool "several frames" true (List.length scan.Wal.frames > 1);
  List.iter2
    (fun at (f : Wal.frame) ->
      check bool "a frame under 512 KiB" true (f.stop - at - 8 <= 1 lsl 19);
      check bool "each frame decodes alone" true
        ((ok (Wal.scan_from data ~offset:at)).Wal.truncated = None))
    (frame_starts Wal.header_bytes scan.Wal.frames)
    scan.Wal.frames;
  check bool "every record read back" true (Wal.records scan = records);
  let rp = Journal.Replayer.create () in
  let committed = List.concat_map (Journal.Replayer.feed rp) (Wal.records scan) in
  match committed with
  | [ Journal.Decision { id = "bigdec"; items; _ } ] ->
    check int "the one decision, whole" (List.length records - 2) (List.length items)
  | _ -> Alcotest.fail "the split decision did not commit as one"

(* A frame of many names: the writer's dictionary grows while earlier
   names are still referred to, and every name reads back. *)
let test_frame_of_many_names () =
  let name i = Printf.sprintf "many%d" i in
  let records =
    (Wal.Decision_begin "Many"
    :: List.init 1000 (fun i -> Wal.Put (mk (name i) (name (i / 2)) "l" (name (i / 3)))))
    @ [ Wal.Decision_commit "manydec" ]
  in
  let data = frames_of records in
  match Wal.scan_from ~expect_header:false data ~offset:0 with
  | Ok { Wal.frames = [ f ]; _ } -> check bool "one frame, every record" true (f.records = records)
  | Ok _ -> Alcotest.fail "not one frame"
  | Error e -> Alcotest.fail e

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
  let scan = ok (Wal.scan corrupted) in
  let resolved = resolve (Wal.records scan) in
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
   length + CRC-32 framing, one record per frame, with every [Put] in
   the old layout *)
let old_layout_log records =
  String.concat ""
    (Wal.magic
    :: List.map
         (function
           | Wal.Put p -> raw_frame (old_put_payload p)
           | r -> raw_frame (one_record_payload r))
         records)

(* [data] with the payload of the frame at [at] retagged 'Z' and the
   frame resealed: a whole frame whose record no build decodes *)
let retag data at =
  let next = at + 8 + Int32.to_int (String.get_int32_le data at) in
  String.concat ""
    [
      String.sub data 0 at;
      raw_frame ("Z" ^ String.sub data (at + 9) (next - at - 9));
      String.sub data next (String.length data - next);
    ]

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
      let payload = Wal.encode [ Wal.Put p ] in
      if String.length payload > String.length (old_put_payload p) then
        QCheck.Test.fail_reportf "%d bytes compact, %d in the old layout"
          (String.length payload)
          (String.length (old_put_payload p));
      (* [Prop.equal] ignores the belief: compare it on its own; the
         one-record layout must still read back too *)
      let same what = function
        | Ok [ Wal.Put q ] -> Prop.equal p q && q.belief = p.belief
        | Ok _ -> QCheck.Test.fail_reportf "%s: decoded to another record" what
        | Error e -> QCheck.Test.fail_reportf "%s: decode failed: %s" what e
      in
      same "frame" (Wal.decode payload)
      && same "one-record frame" (Wal.decode (one_record_payload (Wal.Put p))))

(* symbols of every kind: names from [name_gen] (a canonical [p<n>]
   among them interns nothing), and serial ids at both ends of their
   range and in between *)
let sym_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map sym name_gen);
        ( 2,
          map Symbol.serial
            (oneofl [ 1; 2; Symbol.serial_limit - 2; Symbol.serial_limit - 1 ]) );
        (1, map Symbol.serial (int_range 1 1_000_000));
      ])

(* a name field: a symbol's name, or a string that may name none *)
let named_gen = QCheck.Gen.(oneof [ map Symbol.name sym_gen; name_gen ])

let loose_record_gen =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun ((id, source, label, dest), (time, belief)) ->
              Wal.Put (Prop.make ~time ~belief ~id ~source ~label ~dest ()))
            (pair (quad sym_gen sym_gen sym_gen sym_gen) (pair time_gen belief_gen)) );
        (1, map (fun id -> Wal.Tomb id) sym_gen);
        (1, map2 (fun n t -> Wal.Artifact (n, t)) named_gen name_gen);
        (1, map2 (fun k v -> Wal.Note (k, v)) name_gen name_gen);
      ])

(* loose records and decisions, a decision's records between its begin
   and its commit or abort *)
let log_gen =
  QCheck.Gen.(
    map List.concat
      (list_size (int_range 1 6)
         (frequency
            [
              (1, map (fun r -> [ r ]) loose_record_gen);
              ( 2,
                map3
                  (fun cls body close -> (Wal.Decision_begin cls :: body) @ [ close ])
                  named_gen
                  (list_size (int_range 0 8) loose_record_gen)
                  (oneof
                     [
                       map (fun id -> Wal.Decision_commit id) named_gen;
                       map (fun why -> Wal.Decision_abort why) name_gen;
                     ]) );
            ])))

let print_log rs = Printf.sprintf "%d records" (List.length rs)

let scans_to what records data =
  match Wal.scan data with
  | Error e -> QCheck.Test.fail_reportf "%s: %s" what e
  | Ok scan when scan.Wal.truncated <> None || scan.Wal.valid_bytes <> String.length data ->
    QCheck.Test.fail_reportf "%s: cut at %d of %d bytes" what scan.Wal.valid_bytes
      (String.length data)
  | Ok scan -> Wal.records scan = records || QCheck.Test.fail_reportf "%s: records differ" what

(* a writer's frames read back as the records it was given: names of
   any bytes and length, serial numbers at the ends of their range,
   names a frame spells twice and names no symbol has *)
let prop_frames_roundtrip =
  QCheck.Test.make ~name:"frames round-trip names and serial numbers" ~count:200
    (QCheck.make ~print:print_log log_gen) (fun records ->
      let buf = Buffer.create 1024 in
      let w = Wal.writer (Wal.buffer_sink buf) in
      List.iter (Wal.append w) records;
      Wal.close w;
      scans_to "frames" records (Buffer.contents buf))

(* A log some of whose runs of records a build before frames held
   decisions wrote, one record per frame, and the rest this build's
   frames: one scan reads it all, and so does a scan from every frame
   boundary. *)
let prop_mixed_layouts =
  QCheck.Test.make ~name:"a log mixing both frame layouts scans to its records"
    ~count:200
    QCheck.(
      make
        ~print:(fun runs -> print_log (List.concat_map snd runs))
        Gen.(list_size (int_range 1 5) (pair bool log_gen)))
    (fun runs ->
      let records = List.concat_map snd runs in
      let data =
        String.concat ""
          (Wal.magic
          :: List.map
               (fun (old, run) ->
                 if old then String.concat "" (List.map (fun r -> raw_frame (one_record_payload r)) run)
                 else frames_of run)
               runs)
      in
      scans_to "mixed" records data
      &&
      let frames = (ok (Wal.scan data)).Wal.frames in
      List.for_all
        (fun (i, at) ->
          let from = ok (Wal.scan_from data ~offset:at) in
          Wal.records from
          = List.concat_map (fun (f : Wal.frame) -> f.records) (List.filteri (fun j _ -> j >= i) frames)
          || QCheck.Test.fail_reportf "scan_from frame %d at byte %d differs" i at)
        (List.mapi (fun i at -> (i, at)) (frame_starts Wal.header_bytes frames)))

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
  (* crash mid-commit of the second decision: tear the frame that holds
     it, commit record and all *)
  let wal = Durable.wal_path dir in
  let data = read_file wal in
  let frames = (ok (Wal.scan data)).Wal.frames in
  let last_commit_off =
    List.fold_left2
      (fun found at (f : Wal.frame) ->
        if List.exists (function Wal.Decision_commit _ -> true | _ -> false) f.records
        then Some at
        else found)
      None (frame_starts Wal.header_bytes frames) frames
    |> Option.get
  in
  write_file wal (String.sub data 0 (last_commit_off + 3));
  let repo2, report = ok (Durable.recover ~dir ()) in
  check bool "tail was cut" true (report.Durable.truncated <> None);
  check Alcotest.(list Alcotest.string) "first decision survives" [ "dec1" ]
    (List.map Symbol.name (Repo.decision_log repo2));
  (* the torn second decision left no partial state: its whole frame,
     begin record included, was cut, so no frame dangles *)
  check int "in-flight decision rolled back" 0 report.Durable.dangling_frames;
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

let dir_files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         (f, if Sys.is_directory path then "<dir>" else read_file path))

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

(* [recover] and [open_] both refuse [dir]'s log with an error that
   names it and says [why], and neither touches a file *)
let check_log_refused dir why =
  let wal = Durable.wal_path dir and before = dir_files dir in
  let refused what = function
    | Ok () -> Alcotest.failf "%s accepted the log" what
    | Error e ->
      check bool (what ^ " names the log") true
        (String.starts_with ~prefix:wal e);
      check bool (Printf.sprintf "%s says %S: %s" what why e) true
        (contains why e)
  in
  refused "recover" (Result.map ignore (Durable.recover ~dir ()));
  refused "open_"
    (Result.map (fun (d, _) -> Durable.close d) (Durable.open_ ~dir ()));
  check bool "no file touched" true (dir_files dir = before)

(* A whole frame that passes its checksum was not torn; when its record
   does not decode, another build wrote it, and cutting the log there
   would drop every decision after it *)
let test_durable_refuses_undecodable_record () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  ignore (two_decisions dir : Repo.t);
  let wal = Durable.wal_path dir in
  let data = read_file wal in
  (* the frame that holds the last decision *)
  let frames = (ok (Wal.scan data)).Wal.frames in
  let at =
    List.fold_left2
      (fun found at (f : Wal.frame) ->
        match f.records with Wal.Decision_begin _ :: _ -> at | _ -> found)
      0 (frame_starts Wal.header_bytes frames) frames
  in
  write_file wal (retag data at);
  check_log_refused dir
    (Printf.sprintf
       "frame at byte %d passes its checksum but its record does not \
        decode (unknown record tag 'Z')"
       at)

(* a log with its [Put]s in the layout before the compact one *)
let test_durable_refuses_old_layout () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  ignore (two_decisions dir : Repo.t);
  let wal = Durable.wal_path dir in
  write_file wal (old_layout_log (Wal.records (ok (Wal.scan (read_file wal)))));
  check_log_refused dir "old-layout 'P' record"

(* A zero-filled tail reads as empty frames, length 0 with CRC 0 (the
   CRC-32 of ""): a torn tail, cut after the last decision *)
let test_durable_zero_filled_tail () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let repo = two_decisions dir in
  let wal = Durable.wal_path dir in
  write_file wal (read_file wal ^ String.make 4096 '\000');
  let repo2, report = ok (Durable.recover ~dir ()) in
  check (Alcotest.option string) "tail cut"
    (Some "undecodable payload: empty payload") report.Durable.truncated;
  check Alcotest.(list Alcotest.string) "every decision recovered"
    (List.map Symbol.name (Repo.decision_log repo))
    report.Durable.recovered_decisions;
  check Alcotest.(list Alcotest.string) "same propositions"
    (canon (Cml.Kb.base (Repo.kb repo)))
    (canon (Cml.Kb.base (Repo.kb repo2)))

(* checkpoint durability ------------------------------------------------- *)

let live_canonical repo = Gkbms.Persist.save_repository_canonical repo

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
  check bool "the rotation kept no archive" false
    (Sys.file_exists (Durable.archived_wal_path dir gen));
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

(* generations and retention ------------------------------------------ *)

(* A new directory holding [files], as (name, bytes): a crash window is
   the files a step has written so far, and a copy of them is what a
   killed process leaves on disk. *)
let write_dir dir files =
  Unix.mkdir dir 0o755;
  List.iter (fun (f, data) -> write_file (Filename.concat dir f) data) files

let archives dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f -> Scanf.sscanf_opt f "wal.%d.log%!" Fun.id)
  |> List.sort compare

let wal_file = Filename.basename (Durable.wal_path ".")
let checkpoint_file = Filename.basename (Durable.checkpoint_path ".")
let archive_file g = Filename.basename (Durable.archived_wal_path "." g)
let with_file name data files = (name, data) :: List.remove_assoc name files

(* The directory after each step of a checkpoint that took [pre] to
   [post], rotating generation [g]: the snapshot's rename, the log's
   rename, the prune and the fresh log. *)
let checkpoint_windows ~g pre post =
  let snapshot = with_file checkpoint_file (List.assoc checkpoint_file post) pre in
  [
    ("the snapshot's rename", snapshot);
    ( "the log's rename",
      with_file (archive_file g) (List.assoc wal_file pre)
        (List.remove_assoc wal_file snapshot) );
    ("the prune", List.remove_assoc wal_file post);
    ("the fresh log", post);
  ]

(* The directory after each step of an attach that took [pre] to
   [post], archiving the leftover log as [g]: the checkpoint, the
   log's truncation, its rename and the fresh log. *)
let attach_windows ~g pre post =
  let snapshot = with_file checkpoint_file (List.assoc checkpoint_file post) pre in
  [
    ("the checkpoint", snapshot);
    ("the truncate", with_file wal_file (List.assoc (archive_file g) post) snapshot);
    ("the rename", List.remove_assoc wal_file post);
    ("the fresh log", post);
  ]

(* A copy of a crash window recovers to the watermark state, and
   reopens at a generation past every one served before the crash; a
   rotation then keeps the archives a leader keeps, and none without
   one. *)
let check_window ~leader ~served ~watermark (what, files) =
  let copy = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf copy) @@ fun () ->
  write_dir copy files;
  let repo, _ = ok (Durable.recover ~dir:copy ()) in
  check string ("after " ^ what ^ ": the watermark state") watermark (live_canonical repo);
  let d, _ = ok (Durable.open_ ~dir:copy ()) in
  Fun.protect ~finally:(fun () -> Durable.close d) @@ fun () ->
  if leader then Durable.set_retention d Replication.Leader.retained_generations;
  if Durable.generation d <= served then
    Alcotest.failf "after %s: reopened at generation %d, served %d" what
      (Durable.generation d) served;
  check string ("after " ^ what ^ ": reopened at the watermark state") watermark
    (live_canonical (Durable.repo d));
  ok (Durable.checkpoint d);
  let g = Durable.generation d in
  let kept = if leader then Replication.Leader.retained_generations else 0 in
  if List.exists (fun a -> a < g - kept) (archives copy) then
    Alcotest.failf "after %s: a rotation to %d left archives %s" what g
      (String.concat "," (List.map string_of_int (archives copy)))

(* an append cut inside its length field *)
let torn_tail = "\007\000\000"

(* [open_] on a directory whose log has a torn tail writes the
   checkpoint, cuts the log at its valid prefix, renames it into its
   archive and opens a fresh log.  A crash after each step recovers to
   the watermark state and reopens past the generation served. *)
let test_attach_crash_points () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let st = ok (Scn.run_through_conflict ()) in
  let d = ok (Durable.attach ~dir st.Scn.repo) in
  ignore (ok (Scn.resolve_conflict st));
  manual_edit st.Scn.repo "InvitationRel" "before the restart";
  let served = Durable.generation d in
  Durable.close d;
  let watermark = live_canonical st.Scn.repo in
  let log = read_file (Durable.wal_path dir) in
  write_file (Durable.wal_path dir) (log ^ torn_tail);
  let pre = dir_files dir in
  let d, report = ok (Durable.open_ ~dir ()) in
  check bool "the torn tail was cut" true (report.Durable.truncated <> None);
  check int "the fresh log follows the leftover's generation" (served + 1)
    (Durable.generation d);
  Durable.close d;
  let post = dir_files dir in
  check string "the archive is the leftover's valid prefix" log
    (List.assoc (archive_file served) post);
  List.iter (check_window ~leader:false ~served ~watermark) (attach_windows ~g:served pre post)

(* The generation of a reopened handle comes from the checkpoint's
   header once no archive is left to number it, and a leftover log's
   archive survives the attach until the first rotation. *)
let test_generation_from_the_header () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let repo = two_decisions dir in
  let d, _ = ok (Durable.open_ ~dir ()) in
  for _ = 1 to 3 do
    ok (Durable.checkpoint d)
  done;
  let g = Durable.generation d in
  check int "the header hands on the live generation" g
    (Gkbms.Persist.generation_of_file (Durable.checkpoint_path dir));
  check (Alcotest.list int) "no archive without a leader" [] (archives dir);
  Durable.close d;
  let d, _ = ok (Durable.open_ ~dir ()) in
  check int "past the header" (g + 1) (Durable.generation d);
  check (Alcotest.list int) "the leftover's archive stays until a rotation" [ g ] (archives dir);
  ok (Durable.checkpoint d);
  check (Alcotest.list int) "and goes with it" [] (archives dir);
  Durable.close d;
  let repo2, _ = ok (Durable.recover ~dir ()) in
  check string "nothing lost" (live_canonical repo) (live_canonical repo2)

type gen_step = Edit | Checkpoint | Reopen | Crash_checkpoint | Crash_reopen

let print_gen_steps (leader, steps) =
  Printf.sprintf "%s: %s"
    (if leader then "leader" else "no leader")
    (String.concat " "
       (List.map
          (function
            | Edit -> "edit"
            | Checkpoint -> "checkpoint"
            | Reopen -> "reopen"
            | Crash_checkpoint -> "crash-checkpoint"
            | Crash_reopen -> "crash-reopen")
          steps))

(* Random edits, checkpoints, re-attachments and crash copies, with and
   without a leader's retention.  The generation grows strictly across
   checkpoints and re-attachments, crashed ones included; after a
   rotation a handle with no leader holds no archive and a leader its
   last [Leader.retained_generations]; and [ship] at any earlier
   generation answers either the bytes that generation's log held when
   it was retired or [`Resync] once its archive is gone, never another
   generation's. *)
let prop_generations_and_retention =
  QCheck.Test.make ~name:"generations grow, and only a leader keeps archives"
    ~count:16
    QCheck.(
      make ~print:print_gen_steps
        Gen.(
          pair bool
            (list_size (int_range 1 12)
               (frequency
                  [
                    (4, return Edit);
                    (2, return Checkpoint);
                    (1, return Reopen);
                    (1, return Crash_checkpoint);
                    (1, return Crash_reopen);
                  ]))))
    (fun (leader, steps) ->
      let dir = Scratch.temp_dir () in
      Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
      let st = ok (Scn.setup ()) in
      ignore
        (ok
           (Repo.new_object st.Scn.repo ~name:"GenDoc" ~cls:Gkbms.Metamodel.dbpl_object
              (Repo.Text "v0")));
      let kept = if leader then Replication.Leader.retained_generations else 0 in
      let attached d =
        Durable.set_retention d kept;
        d
      in
      let d = ref (attached (ok (Durable.attach ~checkpoint_every:max_int ~dir st.Scn.repo))) in
      Fun.protect ~finally:(fun () -> Durable.close !d) @@ fun () ->
      let served = ref (Durable.generation !d) and edits = ref 0 in
      (* each retired generation's log, as it was retired *)
      let retired = Hashtbl.create 8 in
      let wal = Durable.wal_path dir in
      let watermark () = live_canonical (Durable.repo !d) in
      let ship_answers () =
        for g = 0 to Durable.generation !d - 1 do
          let archived = Sys.file_exists (Durable.archived_wal_path dir g) in
          match (Durable.ship !d ~gen:g ~offset:0 ~max_bytes:(1 lsl 30), Hashtbl.find_opt retired g) with
          | Error `Resync, _ when not archived -> ()
          | Ok s, Some log when archived ->
            let body = String.sub log Wal.header_bytes (String.length log - Wal.header_bytes) in
            if s.Durable.chunk <> body then
              QCheck.Test.fail_reportf "generation %d shipped %d bytes, not its own %d" g
                (String.length s.Durable.chunk) (String.length body)
          | Ok _, _ -> QCheck.Test.fail_reportf "generation %d shipped without its archive" g
          | Error `Resync, _ -> QCheck.Test.fail_reportf "generation %d archived but unservable" g
          | Error (`Failure e), _ -> QCheck.Test.fail_reportf "generation %d: %s" g e
        done
      in
      let rotate () =
        let g = Durable.generation !d in
        Durable.sync !d;
        Hashtbl.replace retired g (read_file wal);
        ok (Durable.checkpoint !d);
        Durable.sync !d;
        if Durable.generation !d <> g + 1 then
          QCheck.Test.fail_reportf "a checkpoint moved generation %d to %d" g (Durable.generation !d);
        served := g + 1;
        let want = List.init (min kept (g + 1)) (fun i -> g + 1 - min kept (g + 1) + i) in
        if archives dir <> want then
          QCheck.Test.fail_reportf "after the rotation to %d: archives %s" (g + 1)
            (String.concat "," (List.map string_of_int (archives dir)))
      in
      let reopen ~torn crashes =
        let g = Durable.generation !d and watermark = watermark () in
        Durable.close !d;
        let log = read_file wal in
        Hashtbl.replace retired g log;
        if torn then write_file wal (log ^ torn_tail);
        let pre = dir_files dir in
        let before = !served in
        d := attached (fst (ok (Durable.open_ ~checkpoint_every:max_int ~dir ())));
        Durable.sync !d;
        if Durable.generation !d <= !served then
          QCheck.Test.fail_reportf "reopened at %d after serving %d" (Durable.generation !d) !served;
        served := Durable.generation !d;
        if live_canonical (Durable.repo !d) <> watermark then
          QCheck.Test.fail_report "reopened away from the watermark state";
        if not (List.mem g (archives dir)) then
          QCheck.Test.fail_reportf "the leftover of %d was not archived" g;
        crashes ~served:before ~watermark ~g pre (dir_files dir)
      in
      let windows of_steps ~served ~watermark ~g pre post =
        List.iter (check_window ~leader ~served ~watermark) (of_steps ~g pre post)
      in
      List.iter
        (fun step ->
          (match step with
          | Edit ->
            incr edits;
            manual_edit (Durable.repo !d) "GenDoc" (Printf.sprintf "edit %d" !edits)
          | Checkpoint -> rotate ()
          | Reopen -> reopen ~torn:false (fun ~served:_ ~watermark:_ ~g:_ _ _ -> ())
          | Crash_checkpoint ->
            let served = !served and watermark = watermark () in
            let g = Durable.generation !d in
            Durable.sync !d;
            let pre = dir_files dir in
            rotate ();
            windows checkpoint_windows ~served ~watermark ~g pre (dir_files dir)
          | Crash_reopen -> reopen ~torn:true (windows attach_windows));
          ship_answers ())
        steps;
      true)

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

(* An edit writes 24 propositions (fig 3-3), but 18 of them are links,
   whose minted [p<n>] ids are serial symbols.  It interns only the 6
   names it coins: the decision, its three texts, the new version and
   the version's source text.  Interning every id took 24.  Names are
   interned once per process, so the decisions and documents here are
   numbered past any other test's. *)
let test_edit_interns_its_names () =
  let repo, sh = documents_repo () in
  Repo.advance_decision_counter repo 1_000_000;
  let doc k =
    let name = Printf.sprintf "InternDoc%dx" k in
    ignore (ok (Repo.new_object repo ~name ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")));
    name
  in
  let edit name =
    let out =
      Gkbms.Shell.eval sh (Printf.sprintf "run DecManualEdit Editor object=%s text=e" name)
    in
    check bool ("edited " ^ name) true (String.starts_with ~prefix:"run executed" out)
  in
  edit (doc 0);
  for k = 1 to 8 do
    let name = doc k in
    let before = Symbol.count () in
    edit name;
    check int "names one edit interns" 6 (Symbol.count () - before)
  done

(* An edit journals 32 records: 24 [Put]s (six individuals and
   eighteen links), five artifacts, the trace note and the decision
   bracket.  They go out as one frame, which spells each name once and
   each minted id as its number: ~600 bytes per edit, where a frame
   per record spelling every name took ~1,400, and spelling out every
   field ~2,280.  The records and bytes of 16 edits after 512 are
   measured once and checked against the bound of that older layout,
   1,600, and against this one's, 660.  A checkpoint of the state they
   end in is measured with them. *)
let edit_journal =
  lazy
    (let dir = Scratch.temp_dir () in
     Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
     let repo, sh = documents_repo () in
     let d = ok (Durable.attach ~checkpoint_every:max_int ~dir repo) in
     Fun.protect ~finally:(fun () -> Durable.close d) @@ fun () ->
     for i = 0 to 511 do
       edit sh i
     done;
     let edits =
       List.init 16 (fun k ->
           let bytes = Durable.wal_bytes d and records = Durable.wal_records d in
           edit sh (512 + k);
           (Durable.wal_records d - records, Durable.wal_bytes d - bytes))
     in
     ok (Durable.checkpoint d);
     let checkpoint = (Unix.stat (Durable.checkpoint_path dir)).Unix.st_size in
     (edits, checkpoint, Store.Base.cardinal (Cml.Kb.base (Repo.kb repo))))

let test_edit_journal_bytes limit () =
  let edits, _, _ = Lazy.force edit_journal in
  List.iteri
    (fun k (records, journaled) ->
      check int "records per edit" 32 records;
      if journaled > limit then
        Alcotest.failf "edit %d journaled %d bytes" k journaled)
    edits

(* A checkpoint spells a minted id as its number, and each name once:
   on the state above (14,246 propositions) it reads 20.6 bytes per
   proposition, where spelling every [p<n>] at its first use took
   26.5.  A name's reference grows with its interning index, so the
   names earlier tests intern cost both layouts a byte more each than
   in a fresh process (17.8 against 22.5 there). *)
let test_checkpoint_bytes_per_prop limit () =
  let _, bytes, props = Lazy.force edit_journal in
  if float bytes > limit *. float props then
    Alcotest.failf "a checkpoint of %d propositions took %d bytes, %.2f each" props bytes
      (float bytes /. float props)

(* A retraction is one decision, written as one frame and synced once:
   the [unlog] note of each decision it takes back adds no sync.  The
   first of four chained edits takes the other three with it. *)
let test_retraction_syncs_once () =
  let dir = Scratch.temp_dir () in
  Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) @@ fun () ->
  let repo, sh = documents_repo () in
  let d = ok (Durable.attach ~checkpoint_every:max_int ~dir repo) in
  Fun.protect ~finally:(fun () -> Durable.close d) @@ fun () ->
  let doc = "SyncOnceChainDoc" in
  ignore (ok (Repo.new_object repo ~name:doc ~cls:Gkbms.Metamodel.dbpl_object (Repo.Text "v0")));
  let first = Scaling.edit sh doc "c1" in
  ignore (Scaling.edit sh (Scaling.edit sh (Scaling.edit sh first "c2") "c3") "c4");
  let dec = Option.get (Gkbms.Decision.justifying_decision repo (sym first)) in
  let fsyncs () =
    match Obs.Registry.find Obs.Registry.default "gkbms_wal_fsyncs_total" with
    | Some { Obs.Registry.value = Obs.Registry.Counter_v n; _ } -> n
    | _ -> Alcotest.fail "gkbms_wal_fsyncs_total not registered"
  in
  let before = fsyncs () in
  let report = ok (Gkbms.Backtrack.retract repo dec ()) in
  check int "the chain retracted" 4 (List.length report.Gkbms.Backtrack.retracted_decisions);
  check int "one sync for the retraction" 1 (fsyncs () - before)

(* The default store keeps one node per proposition on three intrusive
   chains, found by id through one code-indexed slot: ~19 words per
   proposition, [Prop.t] records included.  The bound must hold inside
   the whole suite, where names interned by earlier tests spread the
   name pages; a hashed id table reads ~22 there. *)
let test_store_words_per_prop () =
  let base = Cml.Kb.base (Repo.kb (edited_repo ())) in
  let st = Store.Mem_store.create () in
  Store.Base.iter base (fun p -> ignore (Store.Mem_store.insert st p));
  let props = Store.Mem_store.cardinal st in
  check int "every proposition stored" (Store.Base.cardinal base) props;
  let per_prop =
    float_of_int (Obj.reachable_words (Obj.repr st)) /. float_of_int props
  in
  if per_prop > 21. then
    Alcotest.failf "the mem store holds %.1f words per proposition" per_prop

(* A cold design-object count folds the [instanceof] chains of the
   counting classes once and marks each source in a code-indexed table:
   it allocates the table's pages and no list, at most 4 words per
   design object.  A listing adds its list and that list's reversal: at
   most 16.  Listing, concatenating and re-sorting every class's
   instances three times took ~140 words per object for the cold count
   and ~44 for a listing after it.  The repository is reloaded, so its
   count is unknown and no instance set is memoized. *)
let test_design_object_census_words () =
  let edited = edited_repo () in
  let repo = ok (Gkbms.Persist.load_repository (Gkbms.Persist.save_repository edited)) in
  let count_words = Scaling.words (fun () -> Repo.design_object_count repo) in
  let objects = Repo.design_object_count repo in
  let list_words = Scaling.words (fun () -> Repo.all_design_objects repo) in
  check int "the listing has the count's length" objects
    (List.length (Repo.all_design_objects repo));
  check int "the reload keeps the count" (Repo.design_object_count edited) objects;
  let per_object words = words /. float_of_int objects in
  if per_object count_words > 4. then
    Alcotest.failf "a cold count of %d design objects allocates %.1f words each" objects
      (per_object count_words);
  if per_object list_words > 16. then
    Alcotest.failf "a listing of %d design objects allocates %.1f words each" objects
      (per_object list_words)

(* mid-log offset reading (replication frame shipping) -------------------- *)

(* every frame-start offset of [data]'s valid prefix, plus the end
   boundary (so the last entry is exactly [valid_bytes]) *)
let frame_boundaries data =
  let scan = ok (Wal.scan data) in
  frame_starts Wal.header_bytes scan.Wal.frames @ [ scan.Wal.valid_bytes ]

(* the records of the frames of [data] numbered [from] up to [until]
   (excluded) *)
let frames_records ?(until = max_int) data from =
  List.concat_map
    (fun (f : Wal.frame) -> f.records)
    (List.filteri (fun j _ -> j >= from && j < until) (ok (Wal.scan data)).Wal.frames)

let test_scan_from_every_boundary () =
  let data, _ = write_sample () in
  let bounds = frame_boundaries data in
  check int "one boundary per frame plus the end"
    (List.length (ok (Wal.scan data)).Wal.frames + 1)
    (List.length bounds);
  List.iteri
    (fun i off ->
      let scan = ok (Wal.scan_from data ~offset:off) in
      check bool (Printf.sprintf "clean at boundary %d" i) true
        (scan.Wal.truncated = None);
      let skipped = List.length sample_records - List.length (frames_records data i) in
      check Alcotest.(list Alcotest.string)
        (Printf.sprintf "suffix from boundary %d" i)
        (encoded (List.filteri (fun j _ -> j >= skipped) sample_records))
        (encoded (Wal.records scan));
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
  let scan = ok (Wal.scan_from ~expect_header:false chunk ~offset:0) in
  check bool "clean" true (scan.Wal.truncated = None);
  check Alcotest.(list Alcotest.string) "all records"
    (encoded sample_records) (encoded (Wal.records scan));
  check int "all bytes consumed" (String.length chunk) scan.Wal.valid_bytes;
  (* with the header expected, the same bytes are rejected *)
  let rejected = ok (Wal.scan_from chunk ~offset:0) in
  check bool "headerless bytes rejected when header expected" true
    (rejected.Wal.truncated <> None && rejected.Wal.frames = [])

let test_scan_from_torn_final_frame () =
  let data, _ = write_sample () in
  let bounds = frame_boundaries data in
  let frames = List.length bounds - 1 in
  let mid = List.nth bounds (List.length bounds / 2) in
  let last_start = List.nth bounds (List.length bounds - 2) in
  let cut = String.sub data 0 (String.length data - 2) in
  let scan = ok (Wal.scan_from cut ~offset:mid) in
  check bool "torn tail reported" true (scan.Wal.truncated <> None);
  check Alcotest.(list Alcotest.string) "mid-log suffix minus the torn frame"
    (encoded (frames_records data (List.length bounds / 2) ~until:(frames - 1)))
    (encoded (Wal.records scan));
  check int "scan boundary before the torn frame" last_start
    scan.Wal.valid_bytes;
  (* once the frame's bytes complete, resuming at the boundary reads
     exactly the one remaining frame — the follower resume path *)
  let resumed = ok (Wal.scan_from data ~offset:scan.Wal.valid_bytes) in
  check bool "resume is clean" true (resumed.Wal.truncated = None);
  check Alcotest.(list Alcotest.string) "resume reads the final frame"
    (encoded (frames_records data (frames - 1)))
    (encoded (Wal.records resumed));
  check Alcotest.(list Alcotest.string) "which holds the final record"
    (encoded [ List.nth sample_records (List.length sample_records - 1) ])
    (encoded (Wal.records resumed))

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
      let full = ok (Wal.scan cut) in
      if String.length cut < Wal.header_bytes then
        (* no header survived: scan_from must reject like scan does *)
        let s = ok (Wal.scan_from cut ~offset:0) in
        s.Wal.frames = [] && s.Wal.valid_bytes = 0
      else begin
        let bounds = frame_boundaries cut in
        let idx = idx_seed mod List.length bounds in
        let s = ok (Wal.scan_from cut ~offset:(List.nth bounds idx)) in
        encoded (Wal.records s) = encoded (frames_records cut idx)
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

(* A test's cleanup that cannot remove its directory reports that and
   lets the test's own failure through: a directory entry [Sys.remove]
   cannot take stands in for a file a live daemon keeps writing. *)
let test_cleanup_keeps_the_failure () =
  let dir = Scratch.temp_dir () in
  let busy = Filename.concat dir "busy" in
  Unix.mkdir dir 0o755;
  Unix.mkdir busy 0o755;
  Fun.protect ~finally:(fun () -> Unix.rmdir busy; Unix.rmdir dir) @@ fun () ->
  match Fun.protect ~finally:(fun () -> Scratch.rm_rf dir) (fun () -> failwith "the body's failure") with
  | () -> Alcotest.fail "the body returned"
  | exception Failure m -> check string "the body's failure is reported" "the body's failure" m

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
    ("a failed sync refuses every later write", `Quick, test_failed_sync_refuses);
    ("a decision larger than a frame splits", `Quick, test_large_decision_splits);
    ("a frame of many names", `Quick, test_frame_of_many_names);
    ("resolve commit and abort", `Quick, test_resolve_commit_and_abort);
    ("resolve nested frames", `Quick, test_resolve_nested);
    ("resolve dangling outer frame", `Quick, test_resolve_nested_dangling_outer);
    ("replayer holds a torn batch", `Quick, test_replayer_torn_batch);
    ("replayer drops an abort inside a batch", `Quick, test_replayer_abort_in_batch);
    ("replay idempotent", `Quick, test_replay_idempotent);
    QCheck_alcotest.to_alcotest prop_crash_recovery_torn;
    QCheck_alcotest.to_alcotest prop_crash_recovery_bitflip;
    QCheck_alcotest.to_alcotest prop_put_codec;
    QCheck_alcotest.to_alcotest prop_frames_roundtrip;
    QCheck_alcotest.to_alcotest prop_mixed_layouts;
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
    ("durable refuses a damaged log header", `Quick, test_durable_refuses_damaged_header);
    ("durable refuses a record it cannot decode", `Quick,
     test_durable_refuses_undecodable_record);
    ("durable refuses an old-layout log", `Quick, test_durable_refuses_old_layout);
    ("durable reads a zero-filled tail as torn", `Quick, test_durable_zero_filled_tail);
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
    ("edit journals at most 1,600 bytes", `Quick, test_edit_journal_bytes 1_600);
    ("edit journals at most 660 bytes", `Quick, test_edit_journal_bytes 660);
    ("an edit interns only the names it coins", `Quick, test_edit_interns_its_names);
    ("a retraction syncs once", `Quick, test_retraction_syncs_once);
    ("mem store words per proposition", `Quick, test_store_words_per_prop);
    ("design-object count and listing words per object", `Quick,
     test_design_object_census_words);
    ("group-commit batch is crash-atomic", `Quick, test_group_commit_batch_recovery);
    ("group-commit batch edge cases", `Quick, test_group_commit_empty_and_errors);
    ("cleanup keeps the test's own failure", `Quick, test_cleanup_keeps_the_failure);
    ("crash points inside attach recover", `Quick, test_attach_crash_points);
    ("generation from the checkpoint header", `Quick, test_generation_from_the_header);
    QCheck_alcotest.to_alcotest prop_generations_and_retention;
    ("a checkpoint of the edit state costs at most 23 bytes per proposition", `Quick,
     test_checkpoint_bytes_per_prop 23.);
  ]
