type span = {
  span_name : string;
  mutable attrs : (string * string) list;
  start_s : float;
  mutable duration_s : float;
  mutable subspans : span list;
}

let children sp = List.rev sp.subspans

let flag = Atomic.make false
let set_enabled b = Atomic.set flag b
let enabled () = Atomic.get flag

(* Slow-op threshold: 100ms until `trace slow MS` retunes it live *)
let threshold = Atomic.make 0.1
let set_slow_threshold_s s = Atomic.set threshold s
let slow_threshold_s () = Atomic.get threshold

(* Recorder state: per-thread stacks of open spans, keyed by (domain,
   thread), plus the two rings.  The mutex guards the stack table and
   the rings; an individual thread's stack ref is only ever mutated by
   that thread.  A thread has an entry only while it has a span open:
   its outermost span adds it and removes it again, so a daemon that
   serves each connection on a thread of its own keeps no entry per
   connection it has served. *)
let m = Mutex.create ()
let stacks : (int * int, span list ref) Hashtbl.t = Hashtbl.create 16
let recent_cap = ref 64
let slow_cap = ref 32
let recent_ring : span list ref = ref []  (* newest first, <= !recent_cap *)
let recent_len = ref 0
let slow_ring : span list ref = ref []
let slow_len = ref 0

let truncate n l =
  let rec go i = function
    | [] -> []
    | _ when i = n -> []
    | x :: rest -> x :: go (i + 1) rest
  in
  go 0 l

let set_capacity ~recent ~slow =
  Mutex.lock m;
  recent_cap := max 1 recent;
  slow_cap := max 1 slow;
  recent_ring := truncate !recent_cap !recent_ring;
  recent_len := List.length !recent_ring;
  slow_ring := truncate !slow_cap !slow_ring;
  slow_len := List.length !slow_ring;
  Mutex.unlock m

let push ring len cap sp =
  ring := sp :: !ring;
  if !len >= cap then ring := truncate cap !ring else incr len

let self_key () = ((Domain.self () :> int), Thread.id (Thread.self ()))

(* Ambient trace context: the inbound Trace_context, if any, for the
   calling (domain, thread).  Propagation must survive tracing being
   off (a follower still files the trace note even if nobody is
   recording spans locally), so this is independent of [flag]. *)
let contexts : (int * int, Trace_context.t) Hashtbl.t = Hashtbl.create 16

(* [Hashtbl.length contexts], written under [m] with each change: a
   thread reads only the entry it set itself, so while it has one this
   reads at least 1 to it, and a thread reading 0 has none and needs
   no lock.  No daemon sets a context unless a client sends one. *)
let set_count = Atomic.make 0

(* under [m] *)
let put_context key ctx =
  (match ctx with
  | Some c -> Hashtbl.replace contexts key c
  | None -> Hashtbl.remove contexts key);
  Atomic.set set_count (Hashtbl.length contexts)

let current_context () =
  if Atomic.get set_count = 0 then None
  else begin
    let key = self_key () in
    Mutex.lock m;
    let c = Hashtbl.find_opt contexts key in
    Mutex.unlock m;
    c
  end

let contexts_set () = Atomic.get set_count

let set_context ctx =
  let key = self_key () in
  Mutex.protect m (fun () -> put_context key ctx)

let with_context ctx f =
  let key = self_key () in
  let prev =
    Mutex.protect m (fun () ->
        let prev = Hashtbl.find_opt contexts key in
        put_context key ctx;
        prev)
  in
  Fun.protect ~finally:(fun () -> Mutex.protect m (fun () -> put_context key prev)) f

(* a closed root leaves its thread without an open span: drop the
   thread's entry with the same lock that records the root *)
let record_root key sp =
  Mutex.lock m;
  Hashtbl.remove stacks key;
  push recent_ring recent_len !recent_cap sp;
  if sp.duration_s >= Atomic.get threshold then
    push slow_ring slow_len !slow_cap sp;
  Mutex.unlock m

let finish key st sp =
  sp.duration_s <- Runtime.now_s () -. sp.start_s;
  (* defensive: unwind past spans a nested exception may have left open *)
  let rec pop = function
    | top :: rest when top != sp -> pop rest
    | _ :: rest -> rest
    | [] -> []
  in
  st := pop !st;
  match !st with
  | parent :: _ -> parent.subspans <- sp :: parent.subspans
  | [] -> record_root key sp

let with_span ?(attrs = []) name f =
  if not (Atomic.get flag) then f ()
  else begin
    let attrs =
      match current_context () with
      | Some c -> ("trace", Trace_context.trace_hex c) :: attrs
      | None -> attrs
    in
    let sp =
      {
        span_name = name;
        attrs;
        start_s = Runtime.now_s ();
        duration_s = -1.;
        subspans = [];
      }
    in
    let key = self_key () in
    let st =
      Mutex.protect m (fun () ->
          match Hashtbl.find_opt stacks key with
          | Some st -> st
          | None ->
            let st = ref [] in
            Hashtbl.add stacks key st;
            st)
    in
    st := sp :: !st;
    Fun.protect ~finally:(fun () -> finish key st sp) f
  end

(* a lookup, which adds no entry for a thread without an open span *)
let add_attr k v =
  if Atomic.get flag then
    let key = self_key () in
    match Mutex.protect m (fun () -> Hashtbl.find_opt stacks key) with
    | Some { contents = sp :: _ } -> sp.attrs <- (k, v) :: sp.attrs
    | _ -> ()

let recent () =
  Mutex.lock m;
  let r = !recent_ring in
  Mutex.unlock m;
  r

let slow () =
  Mutex.lock m;
  let r = !slow_ring in
  Mutex.unlock m;
  r

let clear () =
  Mutex.lock m;
  recent_ring := [];
  recent_len := 0;
  slow_ring := [];
  slow_len := 0;
  Mutex.unlock m
