type t = int

(* Interning must be domain-safe: one process can run the GKBMS on
   several domains (the E18 and E22 benches give each client, and the
   daemon thread that serves its socket pair, a domain of its own), and
   every one of them interns and resolves symbols.  The hot path —
   looking up an already-interned string — is lock-free: an
   open-addressed table of plain ints, each slot [id + 1] or 0 for
   empty, published as a whole through [table] so it can be resized.
   Inserts take [write_m], re-probe, and only then allocate a fresh
   id.

   Slots and [names] entries are only ever written under the mutex, but
   a lock-free reader is racing those writes: it may see a slot before
   the name it points at, or through a [names] array published before
   the id existed.  So the probe trusts a slot only after checking
   [names.(id) = s] in the array it read; anything else (an empty slot,
   an id past the end, a name still [unset]) falls through to the
   locked slow path, which sees every completed insert.  A stale read
   costs one lock, never a wrong id.

   Publication order matters for [name]: the string is stored into the
   names array (and the grown array is published through [names])
   before the slot for the new id is written, so an id handed out by
   the slow path always resolves. *)

type table = { mask : int; slots : int array }

(* the filler of [names] entries not written yet; compared physically,
   so a racing reader never takes it for an interned [""] *)
let unset = String.make 0 ' '
let mk_table cap = { mask = cap - 1; slots = Array.make cap 0 }
let table = Atomic.make (mk_table 4096)
let names : string array Atomic.t = Atomic.make (Array.make 4096 unset)
let next = Atomic.make 0
let write_m = Mutex.create ()

let is_name n s = n != unset && String.equal n s

(* linear probing from slot [idx], [j] slots in; -1 means [s] was not
   found (or not yet visible) in [tbl].  Top-level, so the lock-free
   lookup allocates nothing. *)
let rec probe_from tbl names s j idx =
  let v = tbl.slots.(idx) in
  if v = 0 then -1
  else
    let i = v - 1 in
    if i < Array.length names && is_name names.(i) s then i
    else if j = tbl.mask then -1
    else probe_from tbl names s (j + 1) ((idx + 1) land tbl.mask)

let probe tbl names s = probe_from tbl names s 0 (Hashtbl.hash s land tbl.mask)

(* writers only (under [write_m]) *)
let insert tbl s i =
  let rec go idx =
    if tbl.slots.(idx) = 0 then tbl.slots.(idx) <- i + 1
    else go ((idx + 1) land tbl.mask)
  in
  go (Hashtbl.hash s land tbl.mask)

(* build the doubled table offline from [names], publish it in one
   atomic store *)
let resize () =
  let fresh = mk_table (2 * ((Atomic.get table).mask + 1)) in
  let arr = Atomic.get names in
  for i = 0 to Atomic.get next - 1 do
    insert fresh arr.(i) i
  done;
  Atomic.set table fresh

let intern_slow s =
  Mutex.lock write_m;
  let i = probe (Atomic.get table) (Atomic.get names) s in
  let i =
    if i >= 0 then i (* another domain interned [s] since our fast path *)
    else
      let i = Atomic.get next in
      let arr = Atomic.get names in
      (if i >= Array.length arr then begin
         let bigger = Array.make (2 * Array.length arr) unset in
         Array.blit arr 0 bigger 0 (Array.length arr);
         bigger.(i) <- s;
         Atomic.set names bigger
       end
       else arr.(i) <- s);
      (* keep occupancy under half so probes stay short and always
         terminate on an empty slot *)
      if 2 * (i + 1) > (Atomic.get table).mask + 1 then resize ();
      insert (Atomic.get table) s i;
      Atomic.set next (i + 1);
      i
  in
  Mutex.unlock write_m;
  i

let intern s =
  let i = probe (Atomic.get table) (Atomic.get names) s in
  if i >= 0 then i else intern_slow s

(* A miss on the lock-free probe may be a stale read, so it is
   confirmed under [write_m]; neither path allocates an id. *)
let find_opt s =
  let i = probe (Atomic.get table) (Atomic.get names) s in
  if i >= 0 then Some i
  else begin
    Mutex.lock write_m;
    let i = probe (Atomic.get table) (Atomic.get names) s in
    Mutex.unlock write_m;
    if i >= 0 then Some i else None
  end

let name i = (Atomic.get names).(i)
let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (i : t) = i
let to_int i = i
let of_int i = i
let count () = Atomic.get next
let pp ppf i = Format.pp_print_string ppf (name i)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
