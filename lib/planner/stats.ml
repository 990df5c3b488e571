open Kernel
module Term = Logic.Term

(* Value -> multiplicity tables keyed by unboxed ints: a symbol by its
   interned code, an integer constant by its value.  Symbols and
   integers live in separate tables, so neither needs an encoding that
   could collide or overflow.  The hash mixes the key: integer
   constants may be strided, and the table indexes buckets by the low
   bits of the hash. *)
module Counts = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash (x : int) = Hashtbl.hash x
end)

(* One argument position.  A counted column maps each value to its
   multiplicity, so distinct counts stay exact under retraction (a
   value drops out when its count hits 0).  A key column is unique
   among stored tuples by declaration: its distinct count is the row
   count, and it keeps no table. *)
type counts = { syms : int Counts.t; ints : int Counts.t }
type column = Key | Counted of counts

type pred_stats = {
  mutable rows : int;
  mutable cols : column array;
  gauge : Obs.Registry.Gauge.t;
}

type t = {
  m : Mutex.t;  (** adds/removes may arrive from server writer threads *)
  preds : pred_stats Symbol.Tbl.t;
  keys : int list Symbol.Tbl.t;  (** declared key columns per predicate *)
}

let reg = Obs.Registry.default

let pred_gauge p =
  Obs.Registry.gauge reg "gkbms_datalog_pred_rows"
    ~labels:[ ("pred", Symbol.name p) ]
    ~help:"Stored extensional tuples per predicate (planner statistics)"

let create () =
  { m = Mutex.create (); preds = Symbol.Tbl.create 32; keys = Symbol.Tbl.create 4 }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let new_column t p i =
  match Symbol.Tbl.find_opt t.keys p with
  | Some is when List.mem i is -> Key
  | Some _ | None -> Counted { syms = Counts.create 16; ints = Counts.create 16 }

let declare_key t p i =
  locked t @@ fun () ->
  Symbol.Tbl.replace t.keys p (i :: Option.value ~default:[] (Symbol.Tbl.find_opt t.keys p));
  match Symbol.Tbl.find_opt t.preds p with
  | Some s when i >= 0 && i < Array.length s.cols -> s.cols.(i) <- Key
  | Some _ | None -> ()

let get_stats t p arity =
  match Symbol.Tbl.find_opt t.preds p with
  | Some s ->
    (* Arity can grow if a predicate is observed with mixed widths
       (should not happen in practice, but never index out of range). *)
    if Array.length s.cols < arity then
      s.cols <-
        Array.init arity (fun i ->
            if i < Array.length s.cols then s.cols.(i) else new_column t p i);
    s
  | None ->
    let s = { rows = 0; cols = Array.init arity (new_column t p); gauge = pred_gauge p } in
    Symbol.Tbl.add t.preds p s;
    s

let bump tbl k d =
  let n = (match Counts.find tbl k with n -> n | exception Not_found -> 0) + d in
  if n <= 0 then Counts.remove tbl k else Counts.replace tbl k n

(* tuples are ground, so a variable is never counted *)
let add_value c d = function
  | Term.Sym s -> bump c.syms (Symbol.to_int s) d
  | Term.Int n -> bump c.ints n d
  | Term.Var _ -> ()

let counted c = function
  | Term.Sym s -> Counts.mem c.syms (Symbol.to_int s)
  | Term.Int n -> Counts.mem c.ints n
  | Term.Var _ -> true

let observe_add t p (args : Term.t array) =
  locked t @@ fun () ->
  let s = get_stats t p (Array.length args) in
  s.rows <- s.rows + 1;
  Array.iteri
    (fun i v -> match s.cols.(i) with Key -> () | Counted c -> add_value c 1 v)
    args;
  Obs.Registry.Gauge.set s.gauge (float_of_int s.rows)

(* A tuple whose value at some counted column has no occurrence left
   cannot be stored: its removal changes nothing. *)
let stored s (args : Term.t array) =
  let n = min (Array.length args) (Array.length s.cols) in
  let rec go i =
    i >= n
    || (match s.cols.(i) with Key -> true | Counted c -> counted c args.(i))
       && go (i + 1)
  in
  go 0

let observe_remove t p (args : Term.t array) =
  locked t @@ fun () ->
  match Symbol.Tbl.find_opt t.preds p with
  | Some s when stored s args ->
    s.rows <- max 0 (s.rows - 1);
    Array.iteri
      (fun i v ->
        if i < Array.length s.cols then
          match s.cols.(i) with Key -> () | Counted c -> add_value c (-1) v)
      args;
    Obs.Registry.Gauge.set s.gauge (float_of_int s.rows)
  | Some _ | None -> ()

let rows t p =
  locked t @@ fun () ->
  match Symbol.Tbl.find_opt t.preds p with
  | Some s -> Some s.rows
  | None -> None

let distinct t p i =
  locked t @@ fun () ->
  match Symbol.Tbl.find_opt t.preds p with
  | Some s when i >= 0 && i < Array.length s.cols -> (
    match s.cols.(i) with
    | Key -> Some s.rows
    | Counted c -> Some (Counts.length c.syms + Counts.length c.ints))
  | Some _ | None -> None

let preds t =
  locked t (fun () ->
      Symbol.Tbl.fold (fun p s acc -> (p, s.rows) :: acc) t.preds [])
  |> List.sort (fun (a, _) (b, _) -> Symbol.compare a b)

let seed_datalog t d =
  List.iter
    (fun p ->
      List.iter
        (fun args -> observe_add t p (Array.of_list args))
        (Logic.Datalog.facts_of d p))
    (Logic.Datalog.fact_preds d)

let attach_base t base ~tuples_of =
  Store.Base.on_change base (function
    | Store.Base.Added p ->
      List.iter (fun (pred, args) -> observe_add t pred args) (tuples_of p)
    | Store.Base.Removed p ->
      List.iter (fun (pred, args) -> observe_remove t pred args) (tuples_of p))
