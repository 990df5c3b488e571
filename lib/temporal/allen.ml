type relation =
  | Before
  | Meets
  | Overlaps
  | Starts
  | During
  | Finishes
  | Equals
  | After
  | Met_by
  | Overlapped_by
  | Started_by
  | Contains
  | Finished_by

let all_relations =
  [ Before; Meets; Overlaps; Starts; During; Finishes; Equals; After; Met_by;
    Overlapped_by; Started_by; Contains; Finished_by ]

let index = function
  | Before -> 0
  | Meets -> 1
  | Overlaps -> 2
  | Starts -> 3
  | During -> 4
  | Finishes -> 5
  | Equals -> 6
  | After -> 7
  | Met_by -> 8
  | Overlapped_by -> 9
  | Started_by -> 10
  | Contains -> 11
  | Finished_by -> 12

let inverse = function
  | Before -> After
  | Meets -> Met_by
  | Overlaps -> Overlapped_by
  | Starts -> Started_by
  | During -> Contains
  | Finishes -> Finished_by
  | Equals -> Equals
  | After -> Before
  | Met_by -> Meets
  | Overlapped_by -> Overlaps
  | Started_by -> Starts
  | Contains -> During
  | Finished_by -> Finishes

let relate ~lo1 ~hi1 ~lo2 ~hi2 =
  if lo1 >= hi1 || lo2 >= hi2 then invalid_arg "Allen.relate: degenerate interval";
  if hi1 < lo2 then Before
  else if hi1 = lo2 then Meets
  else if hi2 < lo1 then After
  else if hi2 = lo1 then Met_by
  else if lo1 = lo2 && hi1 = hi2 then Equals
  else if lo1 = lo2 then if hi1 < hi2 then Starts else Started_by
  else if hi1 = hi2 then if lo1 > lo2 then Finishes else Finished_by
  else if lo1 > lo2 && hi1 < hi2 then During
  else if lo1 < lo2 && hi1 > hi2 then Contains
  else if lo1 < lo2 then Overlaps
  else Overlapped_by

(* Relation sets -------------------------------------------------------- *)

type set = int

let empty = 0
let full = (1 lsl 13) - 1
let singleton r = 1 lsl index r
let of_list rs = List.fold_left (fun acc r -> acc lor singleton r) empty rs

let to_list s =
  List.filter (fun r -> s land singleton r <> 0) all_relations

let mem r s = s land singleton r <> 0
let union = ( lor )
let inter = ( land )
let is_empty s = s = 0

let cardinal s =
  let rec loop s acc = if s = 0 then acc else loop (s lsr 1) (acc + (s land 1)) in
  loop s 0

let equal_set (a : set) (b : set) = a = b

let inverse_set s =
  List.fold_left
    (fun acc r -> if mem r s then acc lor singleton (inverse r) else acc)
    empty all_relations

(* Composition table, computed by exhaustive 6-point enumeration.  Every
   ordering of the six endpoints of three intervals is realizable with
   integer endpoints in 0..5, so the enumeration yields the exact
   transitivity table. *)

let compose_base : set array array =
  let table = Array.make_matrix 13 13 empty in
  let intervals =
    let acc = ref [] in
    for lo = 0 to 5 do
      for hi = lo + 1 to 5 do
        acc := (lo, hi) :: !acc
      done
    done;
    !acc
  in
  List.iter
    (fun (alo, ahi) ->
      List.iter
        (fun (blo, bhi) ->
          let rab = relate ~lo1:alo ~hi1:ahi ~lo2:blo ~hi2:bhi in
          List.iter
            (fun (clo, chi) ->
              let rbc = relate ~lo1:blo ~hi1:bhi ~lo2:clo ~hi2:chi in
              let rac = relate ~lo1:alo ~hi1:ahi ~lo2:clo ~hi2:chi in
              let i = index rab and j = index rbc in
              table.(i).(j) <- table.(i).(j) lor singleton rac)
            intervals)
        intervals)
    intervals;
  table

let compose r s =
  let acc = ref empty in
  for i = 0 to 12 do
    if r land (1 lsl i) <> 0 then
      for j = 0 to 12 do
        if s land (1 lsl j) <> 0 then acc := !acc lor compose_base.(i).(j)
      done
  done;
  !acc

let relation_to_string = function
  | Before -> "b"
  | Meets -> "m"
  | Overlaps -> "o"
  | Starts -> "s"
  | During -> "d"
  | Finishes -> "f"
  | Equals -> "e"
  | After -> "bi"
  | Met_by -> "mi"
  | Overlapped_by -> "oi"
  | Started_by -> "si"
  | Contains -> "di"
  | Finished_by -> "fi"

let relation_of_string = function
  | "b" -> Some Before
  | "m" -> Some Meets
  | "o" -> Some Overlaps
  | "s" -> Some Starts
  | "d" -> Some During
  | "f" -> Some Finishes
  | "e" -> Some Equals
  | "bi" -> Some After
  | "mi" -> Some Met_by
  | "oi" -> Some Overlapped_by
  | "si" -> Some Started_by
  | "di" -> Some Contains
  | "fi" -> Some Finished_by
  | _ -> None

let pp_relation ppf r = Format.pp_print_string ppf (relation_to_string r)

let pp_set ppf s =
  Format.fprintf ppf "{%s}"
    (String.concat "," (List.map relation_to_string (to_list s)))

(* Constraint networks --------------------------------------------------- *)

module Network = struct
  type t = { n : int; c : set array array }

  let create n =
    let c = Array.make_matrix n n full in
    for i = 0 to n - 1 do
      c.(i).(i) <- singleton Equals
    done;
    { n; c }

  let size t = t.n

  let constrain t i j s =
    t.c.(i).(j) <- inter t.c.(i).(j) s;
    t.c.(j).(i) <- inter t.c.(j).(i) (inverse_set s)

  let get t i j = t.c.(i).(j)

  let propagate t =
    (* PC-2-style worklist over ordered pairs *)
    let queue = Queue.create () in
    for i = 0 to t.n - 1 do
      for j = 0 to t.n - 1 do
        if i <> j then Queue.add (i, j) queue
      done
    done;
    let ok = ref true in
    while !ok && not (Queue.is_empty queue) do
      let i, j = Queue.pop queue in
      for k = 0 to t.n - 1 do
        if k <> i && k <> j then begin
          (* tighten (i,k) via j *)
          let tightened = inter t.c.(i).(k) (compose t.c.(i).(j) t.c.(j).(k)) in
          if not (equal_set tightened t.c.(i).(k)) then begin
            t.c.(i).(k) <- tightened;
            t.c.(k).(i) <- inverse_set tightened;
            if is_empty tightened then ok := false;
            Queue.add (i, k) queue
          end;
          (* tighten (k,j) via i *)
          let tightened = inter t.c.(k).(j) (compose t.c.(k).(i) t.c.(i).(j)) in
          if not (equal_set tightened t.c.(k).(j)) then begin
            t.c.(k).(j) <- tightened;
            t.c.(j).(k) <- inverse_set tightened;
            if is_empty tightened then ok := false;
            Queue.add (k, j) queue
          end
        end
      done
    done;
    !ok

  let copy t = { n = t.n; c = Array.map Array.copy t.c }

  let consistent_scenario t =
    let t = copy t in
    if not (propagate t) then None
    else
      (* choose the most constrained undecided pair, split, recurse *)
      let rec solve t =
        let best = ref None in
        for i = 0 to t.n - 1 do
          for j = i + 1 to t.n - 1 do
            let card = cardinal t.c.(i).(j) in
            if card > 1 then
              match !best with
              | Some (_, _, c) when c <= card -> ()
              | _ -> best := Some (i, j, card)
          done
        done;
        match !best with
        | None ->
          let scenario =
            Array.init t.n (fun i ->
                Array.init t.n (fun j ->
                    match to_list t.c.(i).(j) with
                    | [ r ] -> r
                    | _ -> Equals))
          in
          Some scenario
        | Some (i, j, _) ->
          let rec try_rels = function
            | [] -> None
            | r :: rest -> (
              let t' = copy t in
              t'.c.(i).(j) <- singleton r;
              t'.c.(j).(i) <- singleton (inverse r);
              if propagate t' then
                match solve t' with Some s -> Some s | None -> try_rels rest
              else try_rels rest)
          in
          try_rels (to_list t.c.(i).(j))
      in
      solve t
end
