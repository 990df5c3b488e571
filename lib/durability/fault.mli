(** Fault injection for the durability layer.

    A scripted crash model over {!Wal.sink}s and raw log bytes: stop
    persisting after an arbitrary byte (a torn write), flip bits
    (media corruption), and drop syncs (a caching controller losing
    its cache) or fail them (a device error).  Drives the differential
    crash-recovery suite: for any scripted crash, recovery must restore
    exactly the committed prefix. *)

type script = {
  crash_after : int option;
      (** every byte past this write offset is lost (torn tail) *)
  flips : (int * int) list;
      (** (byte offset, bit 0..7) pairs corrupted in place *)
  drop_syncs : bool;  (** sync requests are silently ignored *)
  fail_syncs : bool;
      (** every sync raises [Unix.Unix_error (EIO, "fsync", _)], as a
          device that lost the bytes does *)
}

val script :
  ?crash_after:int -> ?flips:(int * int) list -> ?drop_syncs:bool ->
  ?fail_syncs:bool -> unit -> script

val wrap : script -> Wal.sink -> Wal.sink
(** A sink that forwards writes to the inner sink with the script
    applied: bytes past [crash_after] are dropped, scripted bits are
    flipped as they stream through, and syncs are swallowed when
    [drop_syncs] is set or fail when [fail_syncs] is.  The inner sink sees exactly what a crashed
    process would have made durable. *)

val corrupt : script -> string -> string
(** Apply the script to completed log bytes: flip the scripted bits
    that fall inside the kept prefix, then cut at [crash_after]. *)
