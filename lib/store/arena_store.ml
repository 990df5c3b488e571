(** Columnar physical representation: a struct-of-arrays proposition
    arena.

    Every proposition is one row of fixed-width integer columns held in
    off-heap Bigarrays: the four {!Kernel.Symbol} codes (id, source,
    label, dest), an encoded time value (tag + two bounds + an interned
    name code) and the belief stamp.  [Symbol.to_int] codes are dense
    and stable, which is what makes the flat columns possible: a symbol
    is a row-sized integer, a [Time.Named] name interns to one more.

    The GC never scans a row — all per-proposition state lives outside
    the OCaml heap, so major-collection pause time is independent of
    how many propositions are stored, and a full scan is a sequential
    sweep over contiguous memory.

    Indexing: one open-addressed integer hash table maps id codes to
    rows; four more (source, (source,label), dest, label) map key codes
    to the head of an intrusive singly-linked chain threaded through
    per-row "next" columns.  Removal tombstones the row (id code [-1]),
    pushes it on a free list for reuse, and unlinks it from each chain;
    hash slots of drained chains are tombstoned.  When more than half of
    the allocated row prefix is dead the arena is rebuilt densely
    (columns and indexes), mirroring {!Log_store}'s compaction
    threshold.

    Concurrency: mutations must be externally serialized (the proposition
    base serializes writes in decision-log order); read-only access from
    several domains at once is safe — reads touch only plain Bigarray
    loads and immutable interner state. *)

open Kernel

module A = Bigarray.Array1

type col = (int, Bigarray.int_elt, Bigarray.c_layout) A.t

let col n : col = A.create Bigarray.int Bigarray.c_layout n

(* Time encoding: tag column + two bound columns + interned-name column.
   Only the fields the constructor carries are stored, so decoding
   rebuilds the exact value ([Prop.equal] and serialization both see
   the original, [Named] included). *)
let tag_always = 0

and tag_at = 1

and tag_from = 2

and tag_between = 3

and tag_named = 4

let no_name = -1
let no_row = -1
let dead_id = -1

(* Open-addressed integer hash table: keys are non-negative symbol (or
   packed pair) codes, values are row numbers.  Linear probing over a
   power-of-two capacity; [empty] marks a never-used slot, [tomb] a
   deleted one.  Kept under half full (tombstones included) so probes
   stay short and always terminate. *)
module Itbl = struct
  let empty = -1
  let tomb = -2

  type t = {
    mutable keys : col;
    mutable vals : col;
    mutable mask : int;
    mutable count : int;  (** live keys *)
    mutable used : int;  (** live keys + tombstones *)
  }

  let alloc cap =
    let keys = col cap in
    A.fill keys empty;
    (keys, col cap)

  let create cap =
    let cap = max 8 cap in
    let keys, vals = alloc cap in
    { keys; vals; mask = cap - 1; count = 0; used = 0 }

  let reset t =
    A.fill t.keys empty;
    t.count <- 0;
    t.used <- 0

  (* mixer: probe sequences of packed pair keys must not cluster *)
  let hash k = (k * 0x9e3779b1) lxor (k lsr 16)

  let find t k =
    let mask = t.mask in
    let rec go i =
      let slot = A.unsafe_get t.keys i in
      if slot = k then A.unsafe_get t.vals i
      else if slot = empty then no_row
      else go ((i + 1) land mask)
    in
    go (hash k land mask)

  let rec grow t cap =
    let old_keys = t.keys and old_vals = t.vals and old_cap = t.mask + 1 in
    let keys, vals = alloc cap in
    t.keys <- keys;
    t.vals <- vals;
    t.mask <- cap - 1;
    t.count <- 0;
    t.used <- 0;
    for i = 0 to old_cap - 1 do
      let k = A.unsafe_get old_keys i in
      if k >= 0 then set t k (A.unsafe_get old_vals i)
    done

  and set t k v =
    let mask = t.mask in
    let rec go i first_tomb =
      let slot = A.unsafe_get t.keys i in
      if slot = k then A.unsafe_set t.vals i v
      else if slot = empty then begin
        let i, reused = if first_tomb >= 0 then (first_tomb, true) else (i, false) in
        A.unsafe_set t.keys i k;
        A.unsafe_set t.vals i v;
        t.count <- t.count + 1;
        if not reused then t.used <- t.used + 1;
        if 2 * (t.used + 1) > t.mask + 1 then
          grow t (2 * (t.mask + 1))
      end
      else if slot = tomb then
        go ((i + 1) land mask) (if first_tomb >= 0 then first_tomb else i)
      else go ((i + 1) land mask) first_tomb
    in
    go (hash k land mask) (-1)

  let remove t k =
    let mask = t.mask in
    let rec go i =
      let slot = A.unsafe_get t.keys i in
      if slot = k then begin
        A.unsafe_set t.keys i tomb;
        t.count <- t.count - 1
      end
      else if slot = empty then ()
      else go ((i + 1) land mask)
    in
    go (hash k land mask)

  (* presize so [n] further keys fit without intermediate grows *)
  let reserve t n =
    let need = t.used + n + 1 in
    let cap = ref (t.mask + 1) in
    while 2 * need > !cap do
      cap := 2 * !cap
    done;
    if !cap > t.mask + 1 then grow t !cap
end

(* (source, label) composite keys are packed into one integer.  Symbol
   codes are dense interner indices, far below 2^31 in any realistic
   knowledge base, so the pack is collision-free on 64-bit hosts. *)
let pack_pair s l = (s lsl 31) lor l

type t = {
  mutable cap : int;  (** allocated rows per column *)
  mutable len : int;  (** high-water mark of ever-used rows *)
  mutable live : int;
  (* data columns *)
  mutable c_id : col;
  mutable c_src : col;
  mutable c_lbl : col;
  mutable c_dst : col;
  mutable c_ttag : col;
  mutable c_tlo : col;
  mutable c_thi : col;
  mutable c_tname : col;
  mutable c_belief : col;
  (* intrusive index chains (next row with the same key, or [no_row]) *)
  mutable n_src : col;
  mutable n_sl : col;
  mutable n_dst : col;
  mutable n_lbl : col;
  (* indexes *)
  idx_id : Itbl.t;
  idx_src : Itbl.t;
  idx_sl : Itbl.t;
  idx_dst : Itbl.t;
  idx_lbl : Itbl.t;
  (* free list of tombstoned rows, reused before extending [len] *)
  mutable free : int array;
  mutable free_len : int;
  mutable compactions : int;
}

let name = "arena"

(* process-wide gauge: total live arena rows (summed over instances) —
   the observable CI greps to prove the columnar backend is actually
   the one running *)
let g_rows =
  Obs.Registry.gauge Obs.Registry.default "gkbms_store_arena_rows"
    ~help:"Live proposition rows across all columnar arena stores"

let g_compactions =
  Obs.Registry.counter Obs.Registry.default "gkbms_store_arena_compactions_total"
    ~help:"Arena rebuild-on-threshold compactions"

let initial_cap = 256

let make_cols cap =
  ( col cap, col cap, col cap, col cap, col cap, col cap, col cap, col cap,
    col cap, col cap, col cap, col cap, col cap )

let create () =
  let ( c_id, c_src, c_lbl, c_dst, c_ttag, c_tlo, c_thi, c_tname, c_belief,
        n_src, n_sl, n_dst, n_lbl ) =
    make_cols initial_cap
  in
  {
    cap = initial_cap;
    len = 0;
    live = 0;
    c_id; c_src; c_lbl; c_dst; c_ttag; c_tlo; c_thi; c_tname; c_belief;
    n_src; n_sl; n_dst; n_lbl;
    idx_id = Itbl.create 1024;
    idx_src = Itbl.create 1024;
    idx_sl = Itbl.create 1024;
    idx_dst = Itbl.create 1024;
    idx_lbl = Itbl.create 256;
    free = Array.make 16 0;
    free_len = 0;
    compactions = 0;
  }

let cardinal t = t.live

let clear t =
  Obs.Registry.Gauge.add g_rows (-.float_of_int t.live);
  t.len <- 0;
  t.live <- 0;
  t.free_len <- 0;
  Itbl.reset t.idx_id;
  Itbl.reset t.idx_src;
  Itbl.reset t.idx_sl;
  Itbl.reset t.idx_dst;
  Itbl.reset t.idx_lbl

(* -- row encoding ------------------------------------------------------- *)

let encode_time time =
  match (time : Time.t) with
  | Time.Always -> (tag_always, 0, 0, no_name)
  | Time.At p -> (tag_at, p, 0, no_name)
  | Time.From p -> (tag_from, p, 0, no_name)
  | Time.Between (lo, hi) -> (tag_between, lo, hi, no_name)
  | Time.Named (nm, lo, hi) ->
    (tag_named, lo, hi, Symbol.to_int (Symbol.intern nm))

let decode_time tag lo hi nm =
  if tag = tag_always then Time.Always
  else if tag = tag_at then Time.At lo
  else if tag = tag_from then Time.From lo
  else if tag = tag_between then Time.Between (lo, hi)
  else Time.Named (Symbol.name (Symbol.of_int nm), lo, hi)

let decode t row : Prop.t =
  {
    Prop.id = Symbol.of_int (A.unsafe_get t.c_id row);
    source = Symbol.of_int (A.unsafe_get t.c_src row);
    label = Symbol.of_int (A.unsafe_get t.c_lbl row);
    dest = Symbol.of_int (A.unsafe_get t.c_dst row);
    time =
      decode_time (A.unsafe_get t.c_ttag row) (A.unsafe_get t.c_tlo row)
        (A.unsafe_get t.c_thi row) (A.unsafe_get t.c_tname row);
    belief = A.unsafe_get t.c_belief row;
  }

(* -- capacity ----------------------------------------------------------- *)

let copy_col (src : col) cap len =
  let dst = col cap in
  A.blit (A.sub src 0 len) (A.sub dst 0 len);
  dst

let grow_to t cap =
  if cap > t.cap then begin
    let len = t.len in
    t.c_id <- copy_col t.c_id cap len;
    t.c_src <- copy_col t.c_src cap len;
    t.c_lbl <- copy_col t.c_lbl cap len;
    t.c_dst <- copy_col t.c_dst cap len;
    t.c_ttag <- copy_col t.c_ttag cap len;
    t.c_tlo <- copy_col t.c_tlo cap len;
    t.c_thi <- copy_col t.c_thi cap len;
    t.c_tname <- copy_col t.c_tname cap len;
    t.c_belief <- copy_col t.c_belief cap len;
    t.n_src <- copy_col t.n_src cap len;
    t.n_sl <- copy_col t.n_sl cap len;
    t.n_dst <- copy_col t.n_dst cap len;
    t.n_lbl <- copy_col t.n_lbl cap len;
    t.cap <- cap
  end

let alloc_row t =
  if t.free_len > 0 then begin
    t.free_len <- t.free_len - 1;
    t.free.(t.free_len)
  end
  else begin
    if t.len = t.cap then grow_to t (2 * t.cap);
    let row = t.len in
    t.len <- t.len + 1;
    row
  end

let push_free t row =
  if t.free_len = Array.length t.free then begin
    let bigger = Array.make (2 * t.free_len) 0 in
    Array.blit t.free 0 bigger 0 t.free_len;
    t.free <- bigger
  end;
  t.free.(t.free_len) <- row;
  t.free_len <- t.free_len + 1

(* -- chains ------------------------------------------------------------- *)

let chain_link idx (next : col) key row =
  A.unsafe_set next row (Itbl.find idx key);
  Itbl.set idx key row

(* O(position in the chain): the chains are singly linked, unlike
   {!Mem_store}'s O(1) doubly-linked ones; drained chains tombstone
   their hash slot *)
let chain_unlink idx (next : col) key row =
  let head = Itbl.find idx key in
  if head = row then begin
    let rest = A.unsafe_get next row in
    if rest = no_row then Itbl.remove idx key else Itbl.set idx key rest
  end
  else begin
    let rec splice prev =
      let cur = A.unsafe_get next prev in
      if cur = row then A.unsafe_set next prev (A.unsafe_get next cur)
      else if cur <> no_row then splice cur
    in
    splice head
  end

(* -- row writing -------------------------------------------------------- *)

(* thread [row] into the four chains and the id table, reading its codes
   back off the (already written) columns *)
let link_row t row =
  let id = A.unsafe_get t.c_id row in
  let src = A.unsafe_get t.c_src row in
  let lbl = A.unsafe_get t.c_lbl row in
  let dst = A.unsafe_get t.c_dst row in
  chain_link t.idx_src t.n_src src row;
  chain_link t.idx_sl t.n_sl (pack_pair src lbl) row;
  chain_link t.idx_dst t.n_dst dst row;
  chain_link t.idx_lbl t.n_lbl lbl row;
  Itbl.set t.idx_id id row

let store_row t row (p : Prop.t) =
  let ttag, tlo, thi, tname = encode_time p.time in
  A.unsafe_set t.c_id row (Symbol.to_int p.id);
  A.unsafe_set t.c_src row (Symbol.to_int p.source);
  A.unsafe_set t.c_lbl row (Symbol.to_int p.label);
  A.unsafe_set t.c_dst row (Symbol.to_int p.dest);
  A.unsafe_set t.c_ttag row ttag;
  A.unsafe_set t.c_tlo row tlo;
  A.unsafe_set t.c_thi row thi;
  A.unsafe_set t.c_tname row tname;
  A.unsafe_set t.c_belief row p.belief;
  link_row t row

(* -- compaction --------------------------------------------------------- *)

let next_pow2 n =
  let c = ref initial_cap in
  while !c < n do
    c := 2 * !c
  done;
  !c

(* Rebuild columns densely in row order and re-derive every index; runs
   when more than half the allocated prefix is tombstones.  Pure column
   copies — no [Prop.t] is materialized. *)
let compact t =
  let old_len = t.len in
  let o_id = t.c_id and o_src = t.c_src and o_lbl = t.c_lbl
  and o_dst = t.c_dst and o_ttag = t.c_ttag and o_tlo = t.c_tlo
  and o_thi = t.c_thi and o_tname = t.c_tname and o_belief = t.c_belief in
  let cap = next_pow2 (max initial_cap (2 * t.live)) in
  let ( c_id, c_src, c_lbl, c_dst, c_ttag, c_tlo, c_thi, c_tname, c_belief,
        n_src, n_sl, n_dst, n_lbl ) =
    make_cols cap
  in
  t.cap <- cap;
  t.len <- 0;
  t.free_len <- 0;
  t.c_id <- c_id; t.c_src <- c_src; t.c_lbl <- c_lbl; t.c_dst <- c_dst;
  t.c_ttag <- c_ttag; t.c_tlo <- c_tlo; t.c_thi <- c_thi;
  t.c_tname <- c_tname; t.c_belief <- c_belief;
  t.n_src <- n_src; t.n_sl <- n_sl; t.n_dst <- n_dst; t.n_lbl <- n_lbl;
  Itbl.reset t.idx_id;
  Itbl.reset t.idx_src;
  Itbl.reset t.idx_sl;
  Itbl.reset t.idx_dst;
  Itbl.reset t.idx_lbl;
  for row = 0 to old_len - 1 do
    if A.unsafe_get o_id row >= 0 then begin
      let nrow = t.len in
      t.len <- nrow + 1;
      A.unsafe_set c_id nrow (A.unsafe_get o_id row);
      A.unsafe_set c_src nrow (A.unsafe_get o_src row);
      A.unsafe_set c_lbl nrow (A.unsafe_get o_lbl row);
      A.unsafe_set c_dst nrow (A.unsafe_get o_dst row);
      A.unsafe_set c_ttag nrow (A.unsafe_get o_ttag row);
      A.unsafe_set c_tlo nrow (A.unsafe_get o_tlo row);
      A.unsafe_set c_thi nrow (A.unsafe_get o_thi row);
      A.unsafe_set c_tname nrow (A.unsafe_get o_tname row);
      A.unsafe_set c_belief nrow (A.unsafe_get o_belief row);
      link_row t nrow
    end
  done;
  t.compactions <- t.compactions + 1;
  Obs.Registry.Counter.inc g_compactions

let maybe_compact t =
  if t.len >= 1024 && 2 * t.live < t.len then compact t

(* -- the Storage.S operations ------------------------------------------ *)

let find_row t id = Itbl.find t.idx_id (Symbol.to_int id)
let mem t id = find_row t id >= 0

let insert t (p : Prop.t) =
  if mem t p.id then false
  else begin
    let row = alloc_row t in
    store_row t row p;
    t.live <- t.live + 1;
    Obs.Registry.Gauge.add g_rows 1.;
    true
  end

let find t id =
  let row = find_row t id in
  if row < 0 then None else Some (decode t row)

let remove t id =
  let row = find_row t id in
  if row < 0 then None
  else begin
    let p = decode t row in
    Itbl.remove t.idx_id (Symbol.to_int id);
    let src = A.unsafe_get t.c_src row in
    let lbl = A.unsafe_get t.c_lbl row in
    let dst = A.unsafe_get t.c_dst row in
    chain_unlink t.idx_src t.n_src src row;
    chain_unlink t.idx_sl t.n_sl (pack_pair src lbl) row;
    chain_unlink t.idx_dst t.n_dst dst row;
    chain_unlink t.idx_lbl t.n_lbl lbl row;
    A.unsafe_set t.c_id row dead_id;
    push_free t row;
    t.live <- t.live - 1;
    Obs.Registry.Gauge.add g_rows (-1.);
    maybe_compact t;
    Some p
  end

(* newest first, like {!Mem_store}'s reads *)
let chain_list t idx (next : col) key =
  let rec go row acc =
    if row = no_row then List.rev acc
    else go (A.unsafe_get next row) (decode t row :: acc)
  in
  go (Itbl.find idx key) []

(* [List.fold_right f (chain_list t idx next key) acc]: rows oldest
   first, each decoded as [f] reaches it *)
let chain_fold t idx (next : col) key f acc =
  let rec rows row acc =
    if row = no_row then acc else rows (A.unsafe_get next row) (row :: acc)
  in
  List.fold_left (fun acc row -> f (decode t row) acc) acc (rows (Itbl.find idx key) [])

let by_source t x = chain_list t t.idx_src t.n_src (Symbol.to_int x)

let by_source_label t x l =
  chain_list t t.idx_sl t.n_sl (pack_pair (Symbol.to_int x) (Symbol.to_int l))

let by_dest t y = chain_list t t.idx_dst t.n_dst (Symbol.to_int y)
let by_label t l = chain_list t t.idx_lbl t.n_lbl (Symbol.to_int l)

let fold_source t x f acc = chain_fold t t.idx_src t.n_src (Symbol.to_int x) f acc
let fold_dest t y f acc = chain_fold t t.idx_dst t.n_dst (Symbol.to_int y) f acc

let iter t f =
  for row = 0 to t.len - 1 do
    if A.unsafe_get t.c_id row >= 0 then f (decode t row)
  done

let insert_batch t ps =
  let n = List.length ps in
  if t.len + n > t.cap then begin
    let cap = ref t.cap in
    while t.len + n > !cap do
      cap := 2 * !cap
    done;
    grow_to t !cap
  end;
  Itbl.reserve t.idx_id n;
  List.filter (fun p -> insert t p) ps

let fold_ids t f acc =
  let acc = ref acc in
  for row = 0 to t.len - 1 do
    let id = A.unsafe_get t.c_id row in
    if id >= 0 then acc := f !acc (Symbol.of_int id)
  done;
  !acc

let fold_links t f acc =
  let acc = ref acc in
  for row = 0 to t.len - 1 do
    let id = A.unsafe_get t.c_id row in
    if id >= 0 then
      acc :=
        f !acc (Symbol.of_int id)
          (Symbol.of_int (A.unsafe_get t.c_src row))
          (Symbol.of_int (A.unsafe_get t.c_lbl row))
          (Symbol.of_int (A.unsafe_get t.c_dst row))
  done;
  !acc

let iter_by_label t l f =
  let next = t.n_lbl in
  let rec go row =
    if row <> no_row then begin
      f (decode t row);
      go (A.unsafe_get next row)
    end
  in
  go (Itbl.find t.idx_lbl (Symbol.to_int l))

(* -- introspection (tests and benches) ---------------------------------- *)

(* allocated row prefix including tombstones (cf. Log_store.physical_length) *)
let physical_rows t = t.len
let compaction_count t = t.compactions

(* bytes held off the OCaml heap: thirteen columns of [cap] rows and the
   key and value columns of the five indexes *)
let bytes t =
  let itbl (i : Itbl.t) = 2 * (i.mask + 1) in
  8
  * ((13 * t.cap) + itbl t.idx_id + itbl t.idx_src + itbl t.idx_sl
    + itbl t.idx_dst + itbl t.idx_lbl)
