type id = Symbol.t

type t = {
  id : id;
  source : id;
  label : Symbol.t;
  dest : id;
  time : Time.t;
  belief : Time.point;
}

let make ?(time = Time.always) ?belief ~id ~source ~label ~dest () =
  let belief = match belief with Some b -> b | None -> Time.Clock.now () in
  { id; source; label; dest; time; belief }

let individual ?time x = make ?time ~id:x ~source:x ~label:x ~dest:x ()
let is_individual p = p.source = p.id && p.dest = p.id && p.label = p.id

(* Atomic: propositions can be minted on several domains of one process
   (each client of the E18 and E22 benches, with the daemon thread that
   serves its socket pair, has its own),
   and two domains drawing the same counter value would silently alias
   distinct propositions. *)
let id_counter = Atomic.make 0

let fresh_id ?(prefix = "p") () =
  let n = 1 + Atomic.fetch_and_add id_counter 1 in
  let candidate = Printf.sprintf "%s%d" prefix n in
  Symbol.intern candidate

let reset_ids () = Atomic.set id_counter 0

let advance_ids n =
  let rec loop () =
    let cur = Atomic.get id_counter in
    if cur >= n || Atomic.compare_and_set id_counter cur n then () else loop ()
  in
  loop ()

let equal a b =
  Symbol.equal a.id b.id
  && Symbol.equal a.source b.source
  && Symbol.equal a.label b.label
  && Symbol.equal a.dest b.dest
  && Time.equal a.time b.time

let compare a b =
  let c = Symbol.compare a.id b.id in
  if c <> 0 then c
  else
    let c = Symbol.compare a.source b.source in
    if c <> 0 then c
    else
      let c = Symbol.compare a.label b.label in
      if c <> 0 then c
      else
        let c = Symbol.compare a.dest b.dest in
        if c <> 0 then c else Time.compare a.time b.time

let pp ppf p =
  Format.fprintf ppf "%a = <%a, %a, %a, %a>" Symbol.pp p.id Symbol.pp p.source
    Symbol.pp p.label Symbol.pp p.dest Time.pp p.time

let to_string p = Format.asprintf "%a" pp p
