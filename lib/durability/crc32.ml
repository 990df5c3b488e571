type t = int32

(* the table and the running value are native ints holding 32 bits:
   boxed [Int32] elements cost a pointer load per byte *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let empty = 0l
let mask = 0xffffffff

let update crc s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.update";
  let c = ref (Int32.to_int crc land mask lxor mask) in
  (* [pos, pos + len) was checked above *)
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor mask)

let of_string s = update empty s 0 (String.length s)
let to_hex c = Printf.sprintf "%08lx" c
