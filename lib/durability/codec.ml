open Kernel

let ( let* ) = Result.bind

let rec add_varint buf n =
  if n land lnot 0x7f = 0 then Buffer.add_char buf (Char.chr n)
  else begin
    Buffer.add_char buf (Char.chr ((n land 0x7f) lor 0x80));
    add_varint buf (n lsr 7)
  end

let add_vstr buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

let add_name buf sym =
  add_varint buf (Symbol.name_length sym);
  Symbol.add_name buf sym

let read_varint s pos =
  let rec go acc shift pos =
    if pos >= String.length s then Error "short varint"
    else
      let b = Char.code s.[pos] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then Ok (acc, pos + 1)
      else if shift + 7 >= Sys.int_size then Error "varint too long"
      else go acc (shift + 7) (pos + 1)
  in
  go 0 0 pos

let read_vstr s pos =
  let* len, pos = read_varint s pos in
  if len < 0 || len > String.length s - pos then Error "short string"
  else Ok (String.sub s pos len, pos + len)

let add_serial buf n = add_varint buf ((n lsl 1) lor 1)

let read_serial v pos =
  let n = v lsr 1 in
  if n >= 1 && n < Symbol.serial_limit then Ok (Symbol.serial n, pos)
  else Error (Printf.sprintf "serial number %d out of range" n)

let zigzag n = (n lsl 1) lxor (n asr (Sys.int_size - 1))
let unzigzag z = (z lsr 1) lxor -(z land 1)

let source_is_id = 1
let label_is_id = 2
let dest_is_id = 4
let time_is_always = 8

(* top-level helpers rather than local closures: the encoder runs for
   every journaled or checkpointed proposition, and a closure is an
   allocation *)
let omit_if_id id bit field = if Symbol.equal field id then bit else 0

let flags (p : Prop.t) =
  omit_if_id p.id source_is_id p.source
  lor omit_if_id p.id label_is_id p.label
  lor omit_if_id p.id dest_is_id p.dest
  lor match p.time with Time.Always -> time_is_always | _ -> 0

let add_prop add_sym buf (p : Prop.t) =
  let flags = flags p in
  Buffer.add_char buf (Char.chr flags);
  add_sym buf p.id;
  if flags land source_is_id = 0 then add_sym buf p.source;
  if flags land label_is_id = 0 then add_sym buf p.label;
  if flags land dest_is_id = 0 then add_sym buf p.dest;
  if flags land time_is_always = 0 then add_vstr buf (Time.to_string p.time);
  add_varint buf (zigzag p.belief)

let read_prop read_sym s pos =
  if pos >= String.length s then Error "short flags"
  else
    let flags = Char.code s.[pos] in
    if flags land 0xf0 <> 0 then Error "reserved flag bits set"
    else
      let* id, pos = read_sym s (pos + 1) in
      let field bit pos =
        if flags land bit <> 0 then Ok (id, pos) else read_sym s pos
      in
      let* source, pos = field source_is_id pos in
      let* label, pos = field label_is_id pos in
      let* dest, pos = field dest_is_id pos in
      let* time, pos =
        if flags land time_is_always <> 0 then Ok (Time.Always, pos)
        else
          let* t, pos = read_vstr s pos in
          let* time = Time.of_string t in
          Ok (time, pos)
      in
      let* belief, pos = read_varint s pos in
      Ok
        ( Prop.make ~time ~belief:(unzigzag belief) ~id ~source ~label ~dest (),
          pos )
