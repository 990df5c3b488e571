(** The byte codec the write-ahead log and the binary checkpoint share.

    A [varint] is LEB128: 7 bits per byte, low group first, the high bit
    set on every byte but the last.  It is read as unsigned, so a
    negative int takes the full nine or ten bytes; {!zigzag} first maps
    a signed value to a small unsigned one.  A [vstr] is a varint length
    and the bytes.

    A compact proposition record is

    {v
    flags:u8 id:sym [source:sym] [label:sym] [dest:sym] [time:vstr]
    belief:varint
    v}

    where each set bit of [flags] omits a field: {!source_is_id},
    {!label_is_id} and {!dest_is_id} mean that field equals the id, and
    {!time_is_always} that the time is [Always]; bits 4–7 must be zero.
    An individual [<x, x, x, Always>] thus spells only its id.  [time]
    is {!Kernel.Time.to_string}; [belief] is zigzag-encoded.  How a
    [sym] is spelt is the caller's: the log writes its name as a
    [vstr], the checkpoint its name once and a reference after that. *)

open Kernel

val add_varint : Buffer.t -> int -> unit
val add_vstr : Buffer.t -> string -> unit

val add_name : Buffer.t -> Symbol.t -> unit
(** The [vstr] of a symbol's name; a serial symbol's [p<n>] is written
    digit by digit, without building the string. *)

val read_varint : string -> int -> (int * int, string) result
(** [read_varint s pos] is the value at [pos] and the position after
    it.  Fails on a varint cut by the end of [s], or longer than an
    int. *)

val read_vstr : string -> int -> (string * int, string) result

val add_serial : Buffer.t -> int -> unit
(** [add_serial buf n] writes serial id [n] ({!Kernel.Symbol.serial})
    as the varint [2n + 1], its number: how a WAL frame and a GKBSNP2
    checkpoint spell a minted id.  Their other references are even. *)

val read_serial : int -> int -> (Symbol.t * int, string) result
(** [read_serial v pos] is the serial id that an odd reference [v]
    names, paired with [pos]; a number outside
    [\[1, Symbol.serial_limit)] is an error. *)

val zigzag : int -> int
(** 0, -1, 1, -2 … to 0, 1, 2, 3 …, so a small value of either sign
    takes one varint byte. *)

val unzigzag : int -> int

(** {1 Compact proposition records} *)

val source_is_id : int
val label_is_id : int
val dest_is_id : int
val time_is_always : int

val add_prop : (Buffer.t -> Symbol.t -> unit) -> Buffer.t -> Prop.t -> unit
(** [add_prop add_sym buf p] appends [p]'s record, spelling each symbol
    with [add_sym]. *)

val read_prop :
  (string -> int -> (Symbol.t * int, string) result) -> string -> int ->
  (Prop.t * int, string) result
(** The inverse of {!add_prop}: fails on reserved flag bits, a bad time
    or any field cut by the end of the string. *)
