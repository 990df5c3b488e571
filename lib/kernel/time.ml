type point = int

type t =
  | Always
  | At of point
  | From of point
  | Between of point * point
  | Named of string * point * point

let always = Always
let at p = At p
let from p = From p

let between lo hi =
  if lo > hi then invalid_arg "Time.between: lo > hi";
  Between (lo, hi)

let named name lo hi =
  if lo > hi then invalid_arg "Time.named: lo > hi";
  Named (name, lo, hi)

let bounds = function
  | Always -> (min_int, max_int)
  | At p -> (p, p)
  | From p -> (p, max_int)
  | Between (lo, hi) | Named (_, lo, hi) -> (lo, hi)

let valid_at t p =
  let lo, hi = bounds t in
  lo <= p && p <= hi

let overlaps a b =
  let alo, ahi = bounds a and blo, bhi = bounds b in
  alo <= bhi && blo <= ahi

let during a b =
  let alo, ahi = bounds a and blo, bhi = bounds b in
  blo <= alo && ahi <= bhi

let before a b =
  let _, ahi = bounds a and blo, _ = bounds b in
  ahi < blo

let meets a b =
  let _, ahi = bounds a and blo, _ = bounds b in
  ahi <> max_int && ahi + 1 = blo

let of_bounds lo hi =
  if lo = min_int && hi = max_int then Always
  else if lo = hi then At lo
  else if hi = max_int then From lo
  else Between (lo, hi)

let intersect a b =
  let alo, ahi = bounds a and blo, bhi = bounds b in
  let lo = max alo blo and hi = min ahi bhi in
  if lo > hi then None else Some (of_bounds lo hi)

let clip_before t p =
  let lo, hi = bounds t in
  let hi = min hi (p - 1) in
  if lo > hi then None else Some (of_bounds lo hi)

let equal a b =
  match (a, b) with
  | Always, Always -> true
  | At p, At q -> p = q
  | From p, From q -> p = q
  | Between (a1, a2), Between (b1, b2) -> a1 = b1 && a2 = b2
  | Named (n, a1, a2), Named (m, b1, b2) -> n = m && a1 = b1 && a2 = b2
  | (Always | At _ | From _ | Between _ | Named _), _ -> false

let compare a b =
  let tag = function
    | Always -> 0
    | At _ -> 1
    | From _ -> 2
    | Between _ -> 3
    | Named _ -> 4
  in
  match (a, b) with
  | Always, Always -> 0
  | At p, At q -> Stdlib.compare p q
  | From p, From q -> Stdlib.compare p q
  | Between (a1, a2), Between (b1, b2) -> Stdlib.compare (a1, a2) (b1, b2)
  | Named (n, a1, a2), Named (m, b1, b2) ->
    Stdlib.compare (n, a1, a2) (m, b1, b2)
  | _ -> Stdlib.compare (tag a) (tag b)

(* printed once per proposition by every snapshot and WAL record, so
   no formatter is built per call *)
let to_string = function
  | Always -> "Always"
  | At p -> "@" ^ string_of_int p
  | From p -> string_of_int p ^ "+"
  | Between (lo, hi) -> Printf.sprintf "[%d,%d]" lo hi
  | Named (n, lo, hi) -> Printf.sprintf "%s[%d,%d]" n lo hi

let pp ppf t = Format.pp_print_string ppf (to_string t)

let of_string s =
  let fail () = Error (Printf.sprintf "Time.of_string: cannot parse %S" s) in
  let len = String.length s in
  if s = "Always" then Ok Always
  else if len = 0 then fail ()
  else if s.[0] = '@' then
    match int_of_string_opt (String.sub s 1 (len - 1)) with
    | Some p -> Ok (At p)
    | None -> fail ()
  else if s.[len - 1] = '+' then
    match int_of_string_opt (String.sub s 0 (len - 1)) with
    | Some p -> Ok (From p)
    | None -> fail ()
  else
    (* "[lo,hi]" or "name[lo,hi]" *)
    match String.index_opt s '[' with
    | None -> fail ()
    | Some i when s.[len - 1] = ']' -> (
      let name = String.sub s 0 i in
      let body = String.sub s (i + 1) (len - i - 2) in
      match String.index_opt body ',' with
      | None -> fail ()
      | Some j -> (
        let lo = int_of_string_opt (String.sub body 0 j)
        and hi =
          int_of_string_opt
            (String.sub body (j + 1) (String.length body - j - 1))
        in
        match (lo, hi) with
        | Some lo, Some hi when lo <= hi ->
          if name = "" then Ok (Between (lo, hi)) else Ok (Named (name, lo, hi))
        | _ -> fail ()))
    | Some _ -> fail ()

module Clock = struct
  let counter = ref 0
  let now () = !counter

  let tick () =
    incr counter;
    !counter

  let reset () = counter := 0
end
