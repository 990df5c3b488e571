(* Assertions shared by the test suites. *)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

(* [needle] occurs in [hay] *)
let contains needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec loop i = i + nl <= hl && (String.sub hay i nl = needle || loop (i + 1)) in
  loop 0

(* The server's in-flight request gauge: requests read and not yet
   answered, over every daemon in the process. *)
let inflight () =
  let module Reg = Obs.Registry in
  match Reg.find Reg.default "gkbms_server_inflight_requests" with
  | Some { Reg.value = Reg.Gauge_v v; _ } -> int_of_float v
  | _ -> Alcotest.fail "in-flight gauge not registered"

(* Run [f] while another thread holds [Daemon.exclusive], so that no
   write commits until [f] returns. *)
let with_commits_held daemon f =
  let m = Mutex.create () and c = Condition.create () in
  let holding = ref false and released = ref false in
  let holder =
    Thread.create
      (fun () ->
        Server.Daemon.exclusive daemon (fun () ->
            Mutex.protect m (fun () ->
                holding := true;
                Condition.broadcast c;
                while not !released do
                  Condition.wait c m
                done)))
      ()
  in
  Mutex.protect m (fun () ->
      while not !holding do
        Condition.wait c m
      done);
  Fun.protect f ~finally:(fun () ->
      Mutex.protect m (fun () ->
          released := true;
          Condition.broadcast c);
      Thread.join holder)

(* The in-flight gauge's rise over [g0], read once it has reached
   [target] (or given up waiting) and had a moment to overshoot. *)
let inflight_rise ~g0 target =
  let rec settle k =
    if k > 0 && inflight () - g0 < target then (
      Thread.delay 0.01;
      settle (k - 1))
  in
  settle 500;
  Thread.delay 0.05;
  inflight () - g0

(* The in-flight gauge once the requests already answered have left
   it: a session counts a response out of flight after sending it, so
   its client can read the response first.  The lowest of ten reads
   over 100 ms. *)
let settled_inflight () =
  let rec lowest k g =
    if k = 0 then g
    else begin
      Thread.delay 0.01;
      lowest (k - 1) (min g (inflight ()))
    end
  in
  lowest 10 (inflight ())

(* The decision and the new tip a manual edit's ack names. *)
let edit_ack resp =
  match String.split_on_char ' ' resp with
  | [ "run"; "executed:"; "decision"; dec; "->"; tip ] -> (dec, tip)
  | _ -> Alcotest.failf "unparseable run response: %s" resp
