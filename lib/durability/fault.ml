type script = {
  crash_after : int option;
  flips : (int * int) list;
  drop_syncs : bool;
  fail_syncs : bool;
}

let script ?crash_after ?(flips = []) ?(drop_syncs = false) ?(fail_syncs = false) () =
  { crash_after; flips; drop_syncs; fail_syncs }

let flip_in flips ~base bytes =
  List.iter
    (fun (off, bit) ->
      let i = off - base in
      if i >= 0 && i < Bytes.length bytes && bit >= 0 && bit < 8 then
        Bytes.set bytes i
          (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl bit))))
    flips

let wrap script inner =
  let written = ref 0 in
  let write s pos len =
    let keep =
      match script.crash_after with
      | None -> len
      | Some limit -> max 0 (min len (limit - !written))
    in
    if keep > 0 then begin
      let chunk = Bytes.sub (Bytes.unsafe_of_string s) pos keep in
      flip_in script.flips ~base:!written chunk;
      inner.Wal.write (Bytes.unsafe_to_string chunk) 0 keep
    end;
    written := !written + len
  in
  let sync () =
    if script.fail_syncs then
      raise (Unix.Unix_error (Unix.EIO, "fsync", "fault script"))
    else if not script.drop_syncs then inner.Wal.sync ()
  in
  { Wal.write; sync; close = inner.Wal.close }

let corrupt script data =
  let cut =
    match script.crash_after with
    | None -> String.length data
    | Some limit -> max 0 (min limit (String.length data))
  in
  let kept = Bytes.of_string (String.sub data 0 cut) in
  flip_in script.flips ~base:0 kept;
  Bytes.to_string kept
