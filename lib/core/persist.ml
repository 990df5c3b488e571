open Kernel
module S = Sexp
module Repo = Repository
module Tdl = Langs.Taxis_dl
module Dbpl = Langs.Dbpl
module Op = Cml.Object_processor

let ( let* ) = Result.bind
let err fmt = Format.kasprintf (fun s -> Error s) fmt

(* ---------------- encoders ---------------- *)

let sexp_of_list f l = S.List (List.map f l)
let sexp_of_strings l = sexp_of_list S.atom l
let kv key v = S.List [ S.Atom key; v ]

let rec sexp_of_ty = function
  | Dbpl.Named n -> S.List [ S.Atom "named"; S.Atom n ]
  | Dbpl.Surrogate -> S.Atom "surrogate"
  | Dbpl.SetOf t -> S.List [ S.Atom "setof"; sexp_of_ty t ]

let sexp_of_field (f : Dbpl.field) =
  S.List [ S.Atom f.Dbpl.field_name; sexp_of_ty f.Dbpl.field_ty ]

let sexp_of_relation (r : Dbpl.relation) =
  S.List
    [ S.Atom "relation"; kv "name" (S.Atom r.Dbpl.rel_name);
      kv "rec" (S.Atom r.Dbpl.rec_name);
      kv "key" (sexp_of_strings r.Dbpl.key);
      kv "fields" (sexp_of_list sexp_of_field r.Dbpl.fields) ]

let rec sexp_of_expr = function
  | Dbpl.Rel n -> S.List [ S.Atom "rel"; S.Atom n ]
  | Dbpl.Project (e, fs) ->
    S.List [ S.Atom "project"; sexp_of_expr e; sexp_of_strings fs ]
  | Dbpl.SelectEq (e, f, v) ->
    S.List [ S.Atom "seleq"; sexp_of_expr e; S.Atom f; S.Atom v ]
  | Dbpl.NatJoin (a, b) ->
    S.List [ S.Atom "join"; sexp_of_expr a; sexp_of_expr b ]
  | Dbpl.Union (a, b) ->
    S.List [ S.Atom "union"; sexp_of_expr a; sexp_of_expr b ]
  | Dbpl.Nest (e, fs, as_f) ->
    S.List [ S.Atom "nest"; sexp_of_expr e; sexp_of_strings fs; S.Atom as_f ]

let sexp_of_constructor (c : Dbpl.constructor_) =
  S.List
    [ S.Atom "constructor"; kv "name" (S.Atom c.Dbpl.con_name);
      kv "fields" (sexp_of_list sexp_of_field c.Dbpl.con_fields);
      kv "def" (sexp_of_expr c.Dbpl.def) ]

let sexp_of_sem = function
  | Dbpl.Ref_integrity { child; parent; key } ->
    S.List [ S.Atom "refint"; S.Atom child; S.Atom parent; sexp_of_strings key ]
  | Dbpl.Key_unique { rel; key } ->
    S.List [ S.Atom "keyuniq"; S.Atom rel; sexp_of_strings key ]

let sexp_of_selector (s : Dbpl.selector) =
  S.List
    [ S.Atom "selector"; kv "name" (S.Atom s.Dbpl.sel_name);
      kv "ranges"
        (sexp_of_list (fun (v, r) -> S.List [ S.Atom v; S.Atom r ]) s.Dbpl.ranges);
      kv "predicate" (S.Atom s.Dbpl.predicate);
      kv "sem"
        (match s.Dbpl.sem with
        | Some sem -> sexp_of_sem sem
        | None -> S.Atom "none") ]

let sexp_of_statement = function
  | Dbpl.Insert (rel, bs) ->
    S.List
      [ S.Atom "insert"; S.Atom rel;
        sexp_of_list (fun (f, v) -> S.List [ S.Atom f; S.Atom v ]) bs ]
  | Dbpl.Delete (rel, c) -> S.List [ S.Atom "delete"; S.Atom rel; S.Atom c ]
  | Dbpl.Update (rel, bs, c) ->
    S.List
      [ S.Atom "update"; S.Atom rel;
        sexp_of_list (fun (f, v) -> S.List [ S.Atom f; S.Atom v ]) bs;
        S.Atom c ]
  | Dbpl.Call n -> S.List [ S.Atom "call"; S.Atom n ]

let sexp_of_dbpl_tx (tx : Dbpl.transaction) =
  S.List
    [ S.Atom "dbpltx"; kv "name" (S.Atom tx.Dbpl.tx_name);
      kv "params"
        (sexp_of_list (fun (n, t) -> S.List [ S.Atom n; S.Atom t ]) tx.Dbpl.params);
      kv "body" (sexp_of_list sexp_of_statement tx.Dbpl.body) ]

let sexp_of_tdl_attr (a : Tdl.attribute) =
  S.List
    [ S.Atom a.Tdl.attr_name; S.Atom a.Tdl.target;
      S.Atom (match a.Tdl.kind with Tdl.Single -> "single" | Tdl.SetOf -> "setof") ]

let sexp_of_tdl_class (c : Tdl.entity_class) =
  S.List
    [ S.Atom "class"; kv "name" (S.Atom c.Tdl.cls_name);
      kv "supers" (sexp_of_strings c.Tdl.supers);
      kv "attrs" (sexp_of_list sexp_of_tdl_attr c.Tdl.attrs);
      kv "key" (sexp_of_strings c.Tdl.key) ]

let sexp_of_tdl_tx (tx : Tdl.transaction) =
  S.List
    [ S.Atom "tdltx"; kv "name" (S.Atom tx.Tdl.tx_name);
      kv "on" (S.Atom tx.Tdl.on_class);
      kv "params"
        (sexp_of_list (fun (n, t) -> S.List [ S.Atom n; S.Atom t ]) tx.Tdl.params);
      kv "body" (sexp_of_strings tx.Tdl.body) ]

let sexp_of_design (d : Tdl.design) =
  S.List
    [ S.Atom "design"; kv "name" (S.Atom d.Tdl.design_name);
      kv "classes" (sexp_of_list sexp_of_tdl_class d.Tdl.classes);
      kv "transactions" (sexp_of_list sexp_of_tdl_tx d.Tdl.transactions) ]

let sexp_of_frame_attr (a : Op.attr) =
  S.List
    [ S.Atom a.Op.label; S.Atom a.Op.target;
      (match a.Op.category with Some c -> S.Atom c | None -> S.Atom "-");
      S.Atom (Time.to_string a.Op.attr_time) ]

let sexp_of_frame (f : Op.frame) =
  S.List
    [ S.Atom "frame"; kv "name" (S.Atom f.Op.name);
      kv "classes" (sexp_of_strings f.Op.classes);
      kv "supers" (sexp_of_strings f.Op.supers);
      kv "attrs" (sexp_of_list sexp_of_frame_attr f.Op.attrs);
      kv "time" (S.Atom (Time.to_string f.Op.frame_time)) ]

let sexp_of_artifact = function
  | Repo.Tdl_design d -> S.List [ S.Atom "tdl-design"; sexp_of_design d ]
  | Repo.Tdl_class c -> S.List [ S.Atom "tdl-class"; sexp_of_tdl_class c ]
  | Repo.Tdl_tx t -> S.List [ S.Atom "tdl-tx"; sexp_of_tdl_tx t ]
  | Repo.Dbpl_rel r -> S.List [ S.Atom "dbpl-rel"; sexp_of_relation r ]
  | Repo.Dbpl_con c -> S.List [ S.Atom "dbpl-con"; sexp_of_constructor c ]
  | Repo.Dbpl_sel s -> S.List [ S.Atom "dbpl-sel"; sexp_of_selector s ]
  | Repo.Dbpl_tx t -> S.List [ S.Atom "dbpl-tx"; sexp_of_dbpl_tx t ]
  | Repo.Cml_frame f -> S.List [ S.Atom "cml-frame"; sexp_of_frame f ]
  | Repo.Cml_model fs ->
    S.List [ S.Atom "cml-model"; sexp_of_list sexp_of_frame fs ]
  | Repo.Text t -> S.List [ S.Atom "text"; S.Atom t ]

(* ---------------- decoders ---------------- *)

let strings_of sexp =
  let* items = S.as_list sexp in
  List.fold_left
    (fun acc s ->
      let* acc = acc in
      let* a = S.as_atom s in
      Ok (a :: acc))
    (Ok []) items
  |> Result.map List.rev

let pairs_of sexp =
  let* items = S.as_list sexp in
  List.fold_left
    (fun acc s ->
      let* acc = acc in
      match s with
      | S.List [ S.Atom a; S.Atom b ] -> Ok ((a, b) :: acc)
      | _ -> err "expected a pair")
    (Ok []) items
  |> Result.map List.rev

let rec ty_of = function
  | S.Atom "surrogate" -> Ok Dbpl.Surrogate
  | S.List [ S.Atom "named"; S.Atom n ] -> Ok (Dbpl.Named n)
  | S.List [ S.Atom "setof"; t ] ->
    let* t = ty_of t in
    Ok (Dbpl.SetOf t)
  | other -> err "bad type %s" (S.to_string other)

let field_of = function
  | S.List [ S.Atom name; ty ] ->
    let* ty = ty_of ty in
    Ok (Dbpl.field name ty)
  | other -> err "bad field %s" (S.to_string other)

let fields_of sexp =
  let* items = S.as_list sexp in
  List.fold_left
    (fun acc s ->
      let* acc = acc in
      let* f = field_of s in
      Ok (f :: acc))
    (Ok []) items
  |> Result.map List.rev

let relation_of sexp =
  let* name = Result.bind (S.field sexp "name") S.as_atom in
  let* rec_name = Result.bind (S.field sexp "rec") S.as_atom in
  let* key = Result.bind (S.field sexp "key") strings_of in
  let* fields = Result.bind (S.field sexp "fields") fields_of in
  Ok (Dbpl.relation ~key ~name ~rec_name fields)

let rec expr_of = function
  | S.List [ S.Atom "rel"; S.Atom n ] -> Ok (Dbpl.Rel n)
  | S.List [ S.Atom "project"; e; fs ] ->
    let* e = expr_of e in
    let* fs = strings_of fs in
    Ok (Dbpl.Project (e, fs))
  | S.List [ S.Atom "seleq"; e; S.Atom f; S.Atom v ] ->
    let* e = expr_of e in
    Ok (Dbpl.SelectEq (e, f, v))
  | S.List [ S.Atom "join"; a; b ] ->
    let* a = expr_of a in
    let* b = expr_of b in
    Ok (Dbpl.NatJoin (a, b))
  | S.List [ S.Atom "union"; a; b ] ->
    let* a = expr_of a in
    let* b = expr_of b in
    Ok (Dbpl.Union (a, b))
  | S.List [ S.Atom "nest"; e; fs; S.Atom as_f ] ->
    let* e = expr_of e in
    let* fs = strings_of fs in
    Ok (Dbpl.Nest (e, fs, as_f))
  | other -> err "bad expression %s" (S.to_string other)

let constructor_of sexp =
  let* con_name = Result.bind (S.field sexp "name") S.as_atom in
  let* con_fields = Result.bind (S.field sexp "fields") fields_of in
  let* def = Result.bind (S.field sexp "def") expr_of in
  Ok { Dbpl.con_name; con_fields; def }

let sem_of = function
  | S.Atom "none" -> Ok None
  | S.List [ S.Atom "refint"; S.Atom child; S.Atom parent; key ] ->
    let* key = strings_of key in
    Ok (Some (Dbpl.Ref_integrity { child; parent; key }))
  | S.List [ S.Atom "keyuniq"; S.Atom rel; key ] ->
    let* key = strings_of key in
    Ok (Some (Dbpl.Key_unique { rel; key }))
  | other -> err "bad selector semantics %s" (S.to_string other)

let selector_of sexp =
  let* sel_name = Result.bind (S.field sexp "name") S.as_atom in
  let* ranges = Result.bind (S.field sexp "ranges") pairs_of in
  let* predicate = Result.bind (S.field sexp "predicate") S.as_atom in
  let* sem = Result.bind (S.field sexp "sem") sem_of in
  Ok { Dbpl.sel_name; ranges; predicate; sem }

let statement_of = function
  | S.List [ S.Atom "insert"; S.Atom rel; bs ] ->
    let* bs = pairs_of bs in
    Ok (Dbpl.Insert (rel, bs))
  | S.List [ S.Atom "delete"; S.Atom rel; S.Atom c ] -> Ok (Dbpl.Delete (rel, c))
  | S.List [ S.Atom "update"; S.Atom rel; bs; S.Atom c ] ->
    let* bs = pairs_of bs in
    Ok (Dbpl.Update (rel, bs, c))
  | S.List [ S.Atom "call"; S.Atom n ] -> Ok (Dbpl.Call n)
  | other -> err "bad statement %s" (S.to_string other)

let dbpl_tx_of sexp =
  let* tx_name = Result.bind (S.field sexp "name") S.as_atom in
  let* params = Result.bind (S.field sexp "params") pairs_of in
  let* body_sexp = Result.bind (S.field sexp "body") S.as_list in
  let* body =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* st = statement_of s in
        Ok (st :: acc))
      (Ok []) body_sexp
    |> Result.map List.rev
  in
  Ok { Dbpl.tx_name; params; body }

let tdl_attr_of = function
  | S.List [ S.Atom name; S.Atom target; S.Atom kind ] ->
    let kind = if kind = "setof" then Tdl.SetOf else Tdl.Single in
    Ok (Tdl.attribute ~kind name target)
  | other -> err "bad attribute %s" (S.to_string other)

let tdl_class_of sexp =
  let* name = Result.bind (S.field sexp "name") S.as_atom in
  let* supers = Result.bind (S.field sexp "supers") strings_of in
  let* attr_items = Result.bind (S.field sexp "attrs") S.as_list in
  let* attrs =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* a = tdl_attr_of s in
        Ok (a :: acc))
      (Ok []) attr_items
    |> Result.map List.rev
  in
  let* key = Result.bind (S.field sexp "key") strings_of in
  Ok (Tdl.entity_class ~supers ~attrs ~key name)

let tdl_tx_of sexp =
  let* tx_name = Result.bind (S.field sexp "name") S.as_atom in
  let* on_class = Result.bind (S.field sexp "on") S.as_atom in
  let* params = Result.bind (S.field sexp "params") pairs_of in
  let* body = Result.bind (S.field sexp "body") strings_of in
  Ok { Tdl.tx_name; on_class; params; body }

let design_of sexp =
  let* design_name = Result.bind (S.field sexp "name") S.as_atom in
  let* class_items = Result.bind (S.field sexp "classes") S.as_list in
  let* classes =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* c = tdl_class_of s in
        Ok (c :: acc))
      (Ok []) class_items
    |> Result.map List.rev
  in
  let* tx_items = Result.bind (S.field sexp "transactions") S.as_list in
  let* transactions =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* t = tdl_tx_of s in
        Ok (t :: acc))
      (Ok []) tx_items
    |> Result.map List.rev
  in
  Ok { Tdl.design_name; classes; transactions }

let frame_attr_of = function
  | S.List [ S.Atom label; S.Atom target; S.Atom cat; S.Atom time ] ->
    let* attr_time = Time.of_string time in
    let category = if cat = "-" then None else Some cat in
    Ok { Op.label; target; category; attr_time }
  | other -> err "bad frame attribute %s" (S.to_string other)

let frame_of sexp =
  let* name = Result.bind (S.field sexp "name") S.as_atom in
  let* classes = Result.bind (S.field sexp "classes") strings_of in
  let* supers = Result.bind (S.field sexp "supers") strings_of in
  let* attr_items = Result.bind (S.field sexp "attrs") S.as_list in
  let* attrs =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* a = frame_attr_of s in
        Ok (a :: acc))
      (Ok []) attr_items
    |> Result.map List.rev
  in
  let* time_atom = Result.bind (S.field sexp "time") S.as_atom in
  let* frame_time = Time.of_string time_atom in
  Ok { Op.name; classes; supers; attrs; frame_time }

let artifact_of_sexp sexp =
  match sexp with
  | S.List [ S.Atom "tdl-design"; d ] ->
    Result.map (fun d -> Repo.Tdl_design d) (design_of d)
  | S.List [ S.Atom "tdl-class"; c ] ->
    Result.map (fun c -> Repo.Tdl_class c) (tdl_class_of c)
  | S.List [ S.Atom "tdl-tx"; t ] ->
    Result.map (fun t -> Repo.Tdl_tx t) (tdl_tx_of t)
  | S.List [ S.Atom "dbpl-rel"; r ] ->
    Result.map (fun r -> Repo.Dbpl_rel r) (relation_of r)
  | S.List [ S.Atom "dbpl-con"; c ] ->
    Result.map (fun c -> Repo.Dbpl_con c) (constructor_of c)
  | S.List [ S.Atom "dbpl-sel"; s ] ->
    Result.map (fun s -> Repo.Dbpl_sel s) (selector_of s)
  | S.List [ S.Atom "dbpl-tx"; t ] ->
    Result.map (fun t -> Repo.Dbpl_tx t) (dbpl_tx_of t)
  | S.List [ S.Atom "cml-frame"; f ] ->
    Result.map (fun f -> Repo.Cml_frame f) (frame_of f)
  | S.List [ S.Atom "cml-model"; fs ] ->
    let* items = S.as_list fs in
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* f = frame_of s in
        Ok (f :: acc))
      (Ok []) items
    |> Result.map (fun fs -> Repo.Cml_model (List.rev fs))
  | S.List [ S.Atom "text"; S.Atom t ] -> Ok (Repo.Text t)
  | other -> err "unknown artifact %s" (S.to_string other)

(* ---------------- the binary snapshot ---------------- *)

module Codec = Durability.Codec
module Crc32 = Durability.Crc32

(* The layouts this build reads.  [Snp2], the one it writes, records
   the generation of the log that follows the snapshot and writes a
   serial id as its number; [Snp1] spelt every symbol as a name. *)
type layout = Snp1 | Snp2

let magic = function Snp1 -> "GKBSNP1\n" | Snp2 -> "GKBSNP2\n"
let magic_bytes = 8
let layouts_read = "GKBSNP2, GKBSNP1"

(* The writer stages records in [buf] and hands them to [sink] in runs
   of about [run] bytes, each folded into the checksum on its way out:
   the staging buffer, one run's copy and one bit per interned name
   are all it keeps, whatever the size of the base. *)
let run = 1 lsl 16

type writer = {
  sink : S.sink;
  buf : Buffer.t;
  mutable out : Bytes.t;
  mutable crc : Crc32.t;
  mutable spelt : Bytes.t;  (* bit [i]: interned name [i] is written *)
}

let flush_run w =
  let n = Buffer.length w.buf in
  if Bytes.length w.out < n then w.out <- Bytes.create n;
  Buffer.blit w.buf 0 w.out 0 n;
  (* read before [out] is written again: the string does not escape *)
  let s = Bytes.unsafe_to_string w.out in
  w.crc <- Crc32.update w.crc s 0 n;
  w.sink s 0 n;
  Buffer.clear w.buf

let end_record w = if Buffer.length w.buf >= run then flush_run w

(* A serial id is [2n + 1]; an interned name of index [i] is [4i + 2]
   and its bytes at its first use, and [4i] after that *)
let add_sym w buf sym =
  match Symbol.serial_number sym with
  | 0 ->
    let i = Symbol.to_int sym lsr 1 in
    let byte = i lsr 3 and bit = 1 lsl (i land 7) in
    (* a name interned while the snapshot is written *)
    if byte >= Bytes.length w.spelt then
      w.spelt <- Bytes.extend w.spelt 0 (byte + 1 - Bytes.length w.spelt);
    let b = Bytes.get_uint8 w.spelt byte in
    if b land bit <> 0 then Codec.add_varint buf (i lsl 2)
    else begin
      Bytes.set_uint8 w.spelt byte (b lor bit);
      Codec.add_varint buf ((i lsl 2) lor 2);
      Codec.add_name buf sym
    end
  | n -> Codec.add_serial buf n

let output_snapshot ~generation sink repo =
  let base = Cml.Kb.base (Repo.kb repo) in
  let w =
    {
      sink;
      buf = Buffer.create (2 * run);
      out = Bytes.create (2 * run);
      crc = Crc32.empty;
      spelt = Bytes.make ((Symbol.count () / 8) + 1) '\000';
    }
  in
  let buf = w.buf in
  let add_sym = add_sym w in
  Buffer.add_string buf (magic Snp2);
  Codec.add_varint buf generation;
  Codec.add_varint buf (Store.Base.cardinal base);
  Store.Base.iter base (fun p ->
      Codec.add_prop add_sym buf p;
      end_record w);
  (* the artifacts of the ids in the base, as the text layout wrote *)
  let kept id = Store.Base.mem base id in
  Codec.add_varint buf
    (Repo.fold_artifacts repo (fun id _ n -> if kept id then n + 1 else n) 0);
  Repo.fold_artifacts repo
    (fun id a () ->
      if kept id then begin
        add_sym buf id;
        Codec.add_vstr buf (S.to_string (sexp_of_artifact a));
        end_record w
      end)
    ();
  let log = Repo.decision_log repo in
  Codec.add_varint buf (List.length log);
  List.iter
    (fun d ->
      add_sym buf d;
      end_record w)
    log;
  flush_run w;
  let trailer = Bytes.create 4 in
  Bytes.set_int32_le trailer 0 w.crc;
  sink (Bytes.unsafe_to_string trailer) 0 4

(* Name codes are the writer's, so the reader maps each to its own
   symbol: [syms.(code)] is 1 + the symbol's code here, 0 until the
   name is read.  A code past [max_code] is damage: no process interns
   a billion names.

   One reader for both layouts: a [Snp1] reference is [code * 2 + 1]
   with the name or [code * 2], where a serial id is a name like any
   other; a [Snp2] reference with the low bit set is a serial id's
   number, and without it twice a [Snp1] one. *)
let max_code = 1 lsl 30

type reader = { numbered : bool; mutable syms : int array }

let read_name r s v pos =
  let code = v lsr 1 in
  if code >= max_code then err "symbol code %d out of range" code
  else if v land 1 = 0 then
    if code < Array.length r.syms && r.syms.(code) <> 0 then
      Ok (Symbol.of_int (r.syms.(code) - 1), pos)
    else err "symbol %d used before its name" code
  else
    let* name, pos = Codec.read_vstr s pos in
    if code >= Array.length r.syms then begin
      let grown = Array.make (max (code + 1) (2 * Array.length r.syms)) 0 in
      Array.blit r.syms 0 grown 0 (Array.length r.syms);
      r.syms <- grown
    end;
    if r.syms.(code) <> 0 then err "symbol %d named twice" code
    else begin
      let sym = Symbol.intern name in
      r.syms.(code) <- Symbol.to_int sym + 1;
      Ok (sym, pos)
    end

let read_sym r s pos =
  let* v, pos = Codec.read_varint s pos in
  if not r.numbered then read_name r s v pos
  else if v land 1 = 0 then read_name r s (v lsr 1) pos
  else Codec.read_serial v pos

(* [n] items, each read by [item] from the position it is given *)
let rec repeat n item pos =
  if n = 0 then Ok pos
  else
    let* pos = item pos in
    repeat (n - 1) item pos

let section name text item pos =
  Result.map_error
    (fun e -> Printf.sprintf "snapshot %s: %s" name e)
    (let* n, pos = Codec.read_varint text pos in
     if n < 0 then Error "bad count" else repeat n item pos)

(* the generation a [Snp2] header records, and where the records start *)
let header layout text =
  match layout with
  | Snp1 -> Ok (0, magic_bytes)
  | Snp2 ->
    let* g, pos = Codec.read_varint text magic_bytes in
    if g < 0 then Error "snapshot: bad generation" else Ok (g, pos)

let load_snapshot layout text =
  let body = String.length text - 4 in
  if body < magic_bytes then Error "snapshot truncated"
  else if
    Crc32.update Crc32.empty text 0 body <> String.get_int32_le text body
  then Error "snapshot checksum mismatch"
  else
    let* _generation, start = header layout text in
    let repo = Repo.create ~install_metamodel:false () in
    let base = Cml.Kb.base (Repo.kb repo) in
    (* the snapshot carries the metamodel propositions verbatim; the ids
       of the fixed-id axiom bootstrap are skipped once each, and any
       other id met twice is damage *)
    let boot = Symbol.Tbl.create 64 in
    Store.Base.iter base (fun p -> Symbol.Tbl.replace boot p.Prop.id ());
    let read_sym =
      read_sym { numbered = layout = Snp2; syms = Array.make 1024 0 }
    in
    let prop pos =
      let* p, pos = Codec.read_prop read_sym text pos in
      if not (Store.Base.mem base p.Prop.id) then
        let* () = Store.Base.insert base p in
        Ok pos
      else if Symbol.Tbl.mem boot p.Prop.id then begin
        Symbol.Tbl.remove boot p.Prop.id;
        Ok pos
      end
      else err "proposition %s appears twice" (Symbol.name p.Prop.id)
    in
    let artifact pos =
      let* id, pos = read_sym text pos in
      let* src, pos = Codec.read_vstr text pos in
      let* a =
        Result.map_error
          (fun e -> Printf.sprintf "artifact %s: %s" (Symbol.name id) e)
          (Result.bind (S.parse src) artifact_of_sexp)
      in
      Repo.set_artifact repo id a;
      Ok pos
    in
    let decision pos =
      let* id, pos = read_sym text pos in
      Repo.log_decision repo id;
      Ok pos
    in
    let* pos = section "propositions" text prop start in
    let* pos = section "artifacts" text artifact pos in
    let* pos = section "log" text decision pos in
    if pos < body then Error "snapshot: trailing bytes"
    else if pos > body then Error "snapshot: records run into the checksum"
    else Ok repo

let layout_of text =
  List.find_opt
    (fun l -> String.starts_with ~prefix:(magic l) text)
    [ Snp2; Snp1 ]

(* ---------------- the canonical text ---------------- *)

(* The text layout, one s-expression,

     (gkbms-repository (version 1) (props "<proposition lines>")
      (artifacts ((<name> <artifact>) ...)) (log (<decision> ...))
      (counter <n>))

   with the proposition lines and the artifacts sorted, so two
   repositories with the same logical state print byte-identically (the
   replication convergence check).  It is written only for comparison;
   a checkpoint in this layout, as builds before the binary one wrote,
   is refused. *)
let output_canonical sink repo =
  let base = Cml.Kb.base (Repo.kb repo) in
  let add = S.add_string sink in
  let sep i = if i > 0 then add " " in
  add "(gkbms-repository (version 1) (props \"";
  Store.Base.output_serialized ~sorted:true (S.escaping sink) base;
  add "\") (artifacts (";
  Store.Base.fold base
    (fun acc (p : Prop.t) ->
      match Repo.artifact repo p.id with
      | Some a -> (Symbol.name p.id, a) :: acc
      | None -> acc)
    []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.iteri (fun i (name, a) ->
         sep i;
         S.output sink (S.List [ S.Atom name; sexp_of_artifact a ]));
  add ")) (log (";
  let log = Repo.decision_log repo in
  List.iteri
    (fun i d ->
      sep i;
      S.output sink (S.Atom (Symbol.name d)))
    log;
  add ")) (counter ";
  add (string_of_int (List.length log));
  add "))"

(* ---------------- entry points ---------------- *)

let to_string output repo =
  let buf = Buffer.create run in
  output (Buffer.add_substring buf) repo;
  Buffer.contents buf

let save_repository repo = to_string (output_snapshot ~generation:0) repo

let save_repository_canonical repo = to_string output_canonical repo

let load_repository_raw text =
  match layout_of text with
  | Some layout -> load_snapshot layout text
  | None when String.starts_with ~prefix:"(gkbms-repository" text ->
    Error
      ("a text snapshot ((gkbms-repository ...)), a layout this build no \
        longer reads; it reads only binary snapshots (" ^ layouts_read ^ ")")
  | None ->
    Error ("not a snapshot: this build reads only binary snapshots (" ^ layouts_read ^ ")")

(* the magic and the longest varint, or as much of them as the file
   holds *)
let generation_of_file path =
  match
    In_channel.with_open_bin path (fun ic ->
        really_input_string ic (min (magic_bytes + 10) (in_channel_length ic)))
  with
  | exception (Sys_error _ | End_of_file) -> 0
  | head -> (
    match Option.map (fun l -> header l head) (layout_of head) with
    | Some (Ok (g, _)) -> g
    | Some (Error _) | None -> 0)

let finalize ?(register_tools = Mapping.register_tools) repo =
  (* tools are code, re-registered after the snapshot so their KB
     records (already in the snapshot) are not duplicated *)
  register_tools repo;
  (* re-align the proposition id counter: a snapshot loaded into a
     fresh process (warm server restart, replication bootstrap) must
     not mint ids (p<n>, text<n>, …) that collide with persisted ones.
     All prefixes share one counter, so the largest trailing number
     over the whole base is a safe floor. *)
  let trailing_number s =
    let n = String.length s in
    let rec start i =
      if i > 0 && s.[i - 1] >= '0' && s.[i - 1] <= '9' then start (i - 1)
      else i
    in
    let i = start n in
    if i = n then 0
    else match int_of_string_opt (String.sub s i (n - i)) with
      | Some v -> v
      | None -> 0
  in
  (* a serial id's number is its trailing number, without its name *)
  let id_number id =
    match Symbol.serial_number id with
    | 0 -> trailing_number (Symbol.name id)
    | n -> n
  in
  let base = Cml.Kb.base (Repo.kb repo) in
  Prop.advance_ids
    (Store.Base.fold base (fun acc (p : Prop.t) -> max acc (id_number p.id)) 0);
  (* re-align the decision counter past every dec<n> still present.
     Probing for the first free id is wrong here: a retracted decision
     leaves a gap in the sequence, and a counter parked in that gap
     re-issues a live decision's id on the next commit (which a
     replication follower would then skip as an already-applied
     overlap).  Scan for the maximum instead. *)
  let dec_number sym =
    let s = if Symbol.serial_number sym = 0 then Symbol.name sym else "" in
    if String.length s > 3 && String.sub s 0 3 = "dec" then
      match int_of_string_opt (String.sub s 3 (String.length s - 3)) with
      | Some v -> v
      | None -> 0
    else 0
  in
  Repo.advance_decision_counter repo
    (Store.Base.fold base
       (fun acc (p : Prop.t) ->
         max acc (max (dec_number p.Prop.id) (dec_number p.Prop.source)))
       (List.fold_left
          (fun acc id -> max acc (dec_number id))
          0 (Repo.decision_log repo)));
  Decision.rebuild_jtms repo

let load_repository ?register_tools text =
  let* repo = load_repository_raw text in
  finalize ?register_tools repo;
  Ok repo

let save_to_file ?(fsync = false) ?(generation = 0) repo path =
  (* temp file in the same directory + rename, so a crash mid-write can
     never leave a torn snapshot behind; with [fsync] the bytes reach
     the device before the rename, and the rename before we return *)
  let tmp = path ^ ".tmp" in
  let write () =
    let oc = open_out_bin tmp in
    Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
    output_snapshot ~generation (output_substring oc) repo;
    flush oc;
    if fsync then Unix.fsync (Unix.descr_of_out_channel oc);
    close_out oc
  in
  let fail e =
    (try if Sys.file_exists tmp && not (Sys.is_directory tmp) then Sys.remove tmp
     with Sys_error _ -> ());
    Error e
  in
  match
    write ();
    Sys.rename tmp path
  with
  | () -> if fsync then Durability.Wal.sync_dir (Filename.dirname path) else Ok ()
  | exception Sys_error e -> fail e
  | exception Unix.Unix_error (e, _, _) -> fail (tmp ^ ": " ^ Unix.error_message e)

let load_from_file ?register_tools path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    load_repository ?register_tools text
  with Sys_error e -> Error e
