type t = int

(* Two kinds of symbol share one code space, told apart by the low bit.
   A name the interner holds is [2 * id], [id] its index in [names] (the
   id the interner below deals in).  A serial id, the [p<n>] that
   {!Prop.fresh_id} mints, is [2 * n + 1]: its name is rendered from [n]
   when asked for, and interning its canonical spelling computes the
   same code, so the interner holds nothing for it.  Both kinds stay
   non-negative (stores use -1 as a placeholder), serial ids keep their
   mint order, and the two kinds fall on different slots of a table
   indexed by the code's low bits. *)

(* [p] then 1 to 18 digits, the first not 0: [p0], [p007] and a [p]
   with 19 digits are names, and [2 * n + 1] cannot overflow *)
let serial_limit = 1_000_000_000_000_000_000

(* [n] when [s] is the canonical spelling of serial id [n], else 0 *)
let serial_of_name s =
  let len = String.length s in
  if len < 2 || len > 19 || String.unsafe_get s 0 <> 'p' || String.unsafe_get s 1 = '0'
  then 0
  else
    let rec digits n i =
      if i = len then n
      else
        match String.unsafe_get s i with
        | '0' .. '9' as c -> digits ((10 * n) + Char.code c - 48) (i + 1)
        | _ -> 0
    in
    digits 0 1

(* Interning must be domain-safe: one process can run the GKBMS on
   several domains (the E18 and E22 benches give each client, and the
   daemon thread that serves its socket pair, a domain of its own), and
   every one of them interns and resolves symbols.  The hot path —
   looking up an already-interned string — is lock-free: an
   open-addressed table of plain ints, each slot an id with its name's
   hash or 0 for empty, published as a whole through [table] so it can
   be resized.
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

(* A slot is 0 when empty, else [(hash lsl id_bits) lor (id + 1)]
   ([Hashtbl.hash] is below 2^30 and ids stay below 2^31 - 1 long
   before memory runs out): a probe compares the stored hash of [s]
   before it reads a name, so passing the other names in a cluster
   touches the slot array alone, and a resize re-slots without hashing
   a name again. *)
let id_bits = 31
let id_mask = (1 lsl id_bits) - 1
let slot h i = (h lsl id_bits) lor (i + 1)

(* the filler of [names] entries not written yet; compared physically,
   so a racing reader never takes it for an interned [""] *)
let unset = String.make 0 ' '
let mk_table cap = { mask = cap - 1; slots = Array.make cap 0 }
let table = Atomic.make (mk_table 4096)
let names : string array Atomic.t = Atomic.make (Array.make 4096 unset)
let next = Atomic.make 0
let write_m = Mutex.create ()

let is_name n s = n != unset && String.equal n s

(* linear probing from slot [idx], [j] slots in, for [s] of hash [h];
   -1 means [s] was not found (or not yet visible) in [tbl].
   Top-level, so the lock-free lookup allocates nothing. *)
let rec probe_from tbl names s h j idx =
  let v = tbl.slots.(idx) in
  if v = 0 then -1
  else
    let i = (v land id_mask) - 1 in
    if v lsr id_bits = h && i < Array.length names && is_name names.(i) s then i
    else if j = tbl.mask then -1
    else probe_from tbl names s h (j + 1) ((idx + 1) land tbl.mask)

let probe tbl names s h = probe_from tbl names s h 0 (h land tbl.mask)

(* writers only (under [write_m]): put a slot value in the first empty
   slot from its hash's *)
let insert tbl v =
  let rec go idx =
    if tbl.slots.(idx) = 0 then tbl.slots.(idx) <- v
    else go ((idx + 1) land tbl.mask)
  in
  go ((v lsr id_bits) land tbl.mask)

(* build the doubled table offline from the old one's slots, publish
   it in one atomic store *)
let resize () =
  let old = Atomic.get table in
  let fresh = mk_table (2 * (old.mask + 1)) in
  Array.iter (fun v -> if v <> 0 then insert fresh v) old.slots;
  Atomic.set table fresh

let intern_slow s h =
  Mutex.lock write_m;
  let i = probe (Atomic.get table) (Atomic.get names) s h in
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
      insert (Atomic.get table) (slot h i);
      Atomic.set next (i + 1);
      i
  in
  Mutex.unlock write_m;
  i

let intern s =
  match serial_of_name s with
  | 0 ->
    let h = Hashtbl.hash s in
    let i = probe (Atomic.get table) (Atomic.get names) s h in
    2 * (if i >= 0 then i else intern_slow s h)
  | n -> (2 * n) + 1

(* A miss on the lock-free probe may be a stale read, so it is
   confirmed under [write_m]; neither path allocates an id. *)
let find_opt s =
  match serial_of_name s with
  | 0 ->
    let h = Hashtbl.hash s in
    let i = probe (Atomic.get table) (Atomic.get names) s h in
    if i >= 0 then Some (2 * i)
    else begin
      Mutex.lock write_m;
      let i = probe (Atomic.get table) (Atomic.get names) s h in
      Mutex.unlock write_m;
      if i >= 0 then Some (2 * i) else None
    end
  | n -> Some ((2 * n) + 1)

let serial n =
  if n > 0 && n < serial_limit then (2 * n) + 1 else intern ("p" ^ string_of_int n)

let serial_number t = if t land 1 = 1 then t asr 1 else 0

let rec digits n = if n < 10 then 1 else 1 + digits (n / 10)

let rec add_digits buf n =
  if n >= 10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

let name t =
  if t land 1 = 1 then "p" ^ string_of_int (t asr 1) else (Atomic.get names).(t asr 1)

let name_length t =
  if t land 1 = 1 then 1 + digits (t asr 1) else String.length (name t)

let add_name buf t =
  if t land 1 = 1 then begin
    Buffer.add_char buf 'p';
    add_digits buf (t asr 1)
  end
  else Buffer.add_string buf (name t)

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
