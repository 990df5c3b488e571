(* Two page directories, one per code kind ([dirs.(code land 1)]: names,
   then serial ids), each indexed by [i = code lsr 1]: page
   [i lsr page_bits], slot [i land page_mask].  A page not yet written
   is [[||]].  A directory doubles up to [max_pages] pages, 2^26 codes
   per kind; a page number past that goes to [far]. *)
let page_bits = 10
let page_size = 1 lsl page_bits
let page_mask = page_size - 1
let max_pages = 1 lsl 16

type 'a t = {
  absent : 'a;
  dirs : 'a array array array;
  far : 'a Symbol.Tbl.t;
  mutable length : int;
}

let create absent = { absent; dirs = [| [||]; [||] |]; far = Symbol.Tbl.create 1; length = 0 }
let length t = t.length

(* A negative code's page is past [max_pages] too, and [far] never
   binds one, so it reads as absent. *)
let find t k =
  let code = Symbol.to_int k in
  let i = code lsr 1 in
  let p = i lsr page_bits in
  let dir = Array.unsafe_get t.dirs (code land 1) in
  if p < Array.length dir then
    let page = Array.unsafe_get dir p in
    if Array.length page = 0 then t.absent else Array.unsafe_get page (i land page_mask)
  else if p < max_pages then t.absent
  else match Symbol.Tbl.find t.far k with v -> v | exception Not_found -> t.absent

let mem t k = find t k != t.absent

let find_opt t k =
  let v = find t k in
  if v == t.absent then None else Some v

(* the directory of [kind] grown to hold page [p < max_pages] *)
let grow t kind p =
  let dir = t.dirs.(kind) in
  let grown = Array.make (min max_pages (max (p + 1) (2 * Array.length dir))) [||] in
  Array.blit dir 0 grown 0 (Array.length dir);
  t.dirs.(kind) <- grown;
  grown

let replace t k v =
  let code = Symbol.to_int k in
  if code < 0 then invalid_arg "Symtab.replace: negative code";
  let i = code lsr 1 in
  let p = i lsr page_bits in
  if p >= max_pages then begin
    if not (Symbol.Tbl.mem t.far k) then t.length <- t.length + 1;
    Symbol.Tbl.replace t.far k v
  end
  else begin
    let kind = code land 1 in
    let dir = t.dirs.(kind) in
    let dir = if p < Array.length dir then dir else grow t kind p in
    let page =
      if Array.length dir.(p) > 0 then dir.(p)
      else begin
        let page = Array.make page_size t.absent in
        dir.(p) <- page;
        page
      end
    in
    let s = i land page_mask in
    if page.(s) == t.absent then t.length <- t.length + 1;
    page.(s) <- v
  end

let remove t k =
  let code = Symbol.to_int k in
  let i = code lsr 1 in
  let p = i lsr page_bits in
  if p >= max_pages then begin
    if Symbol.Tbl.mem t.far k then begin
      Symbol.Tbl.remove t.far k;
      t.length <- t.length - 1
    end
  end
  else
    let dir = t.dirs.(code land 1) in
    if p < Array.length dir && Array.length dir.(p) > 0 then begin
      let page = dir.(p) and s = i land page_mask in
      if page.(s) != t.absent then begin
        page.(s) <- t.absent;
        t.length <- t.length - 1
      end
    end

(* Slot [s] of name page [np] is code [2 (base + s)], of serial page
   [sp] the code after it, so visiting both pages slot by slot, name
   first, is ascending code order. *)
let fold f t acc =
  let names = t.dirs.(0) and serials = t.dirs.(1) in
  let page dir p = if p < Array.length dir then dir.(p) else [||] in
  let acc = ref acc in
  for p = 0 to max (Array.length names) (Array.length serials) - 1 do
    let np = page names p and sp = page serials p in
    let base = p lsl page_bits in
    if Array.length np > 0 || Array.length sp > 0 then
      for s = 0 to page_mask do
        if Array.length np > 0 && np.(s) != t.absent then
          acc := f (Symbol.of_int (2 * (base + s))) np.(s) !acc;
        if Array.length sp > 0 && sp.(s) != t.absent then
          acc := f (Symbol.of_int ((2 * (base + s)) + 1)) sp.(s) !acc
      done
  done;
  (* every code in [far] lies past every code in a page *)
  Symbol.Tbl.fold (fun k v far -> (k, v) :: far) t.far []
  |> List.sort (fun (a, _) (b, _) -> Symbol.compare a b)
  |> List.fold_left (fun acc (k, v) -> f k v acc) !acc

let iter f t = fold (fun k v () -> f k v) t ()
