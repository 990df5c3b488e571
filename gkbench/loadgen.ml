(* The load generator's connections: one thread, one [Unix.select]
   loop, requests written as [Server.Protocol] frames and answers
   dispatched to a continuation by request id. *)

module P = Server.Protocol

let now = Unix.gettimeofday

type conn = {
  fd : Unix.file_descr;
  feeder : P.feeder;
  buf : bytes;
  pending : (int, float * (P.response -> float -> unit)) Hashtbl.t;
  mutable next_id : int;
}

exception Failed of string

(* Connect to a server that may still be starting: retry for 30 s. *)
let connect path =
  let deadline = now () +. 30. in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      { fd; feeder = P.feeder (); buf = Bytes.create 65536; pending = Hashtbl.create 64; next_id = 1 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.005;
      go ()
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      raise (Failed (Printf.sprintf "connect %s: %s" path (Unix.error_message e)))
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let outstanding c = Hashtbl.length c.pending

let rec write_all fd s off len =
  if len > 0 then
    let n = Unix.write_substring fd s off len in
    write_all fd s (off + n) (len - n)

(* Send one command; [k] gets the answer and the time it arrived. *)
let send ?ctx c line k =
  let id = c.next_id in
  c.next_id <- id + 1;
  let frame = P.encode (P.Request { P.id; line; ctx }) in
  Hashtbl.replace c.pending id (now (), k);
  write_all c.fd frame 0 (String.length frame)

(* Wait until [until] (absolute time) or until some answer arrives, and
   dispatch every answer that did. *)
let poll conns ~until =
  let fds = List.map (fun c -> c.fd) conns in
  match Unix.select fds [] [] (Float.max 0. (until -. now ())) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
    List.iter
      (fun c ->
        if List.mem c.fd readable then
          match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
          | 0 -> raise (Failed "server closed the connection")
          | n -> (
            let t = now () in
            match P.feed c.feeder c.buf n with
            | Error e -> raise (Failed ("corrupt answer stream: " ^ e))
            | Ok frames ->
              List.iter
                (function
                  | P.Response r -> (
                    match Hashtbl.find_opt c.pending r.P.id with
                    | Some (_, k) ->
                      Hashtbl.remove c.pending r.P.id;
                      k r t
                    | None -> raise (Failed "answer to an unknown request"))
                  | P.Request _ -> raise (Failed "request frame from the server"))
                frames))
      conns

(* Run until [finished ()], calling [step] between polls (open-loop
   senders use it to release due requests; [next_due] says when the
   next one is due).  A minute with requests in flight and no answer is
   a failure. *)
let run ?(next_due = fun () -> infinity) ?(step = fun () -> ()) conns
    ~finished =
  let last_progress = ref (now ()) in
  let answered () = List.fold_left (fun acc c -> acc + c.next_id - outstanding c) 0 conns in
  let seen = ref (answered ()) in
  step ();
  while not (finished ()) do
    poll conns ~until:(Float.min (next_due ()) (now () +. 1.));
    step ();
    let a = answered () in
    if a <> !seen || List.for_all (fun c -> outstanding c = 0) conns then (
      seen := a;
      last_progress := now ())
    else if now () -. !last_progress > 60. then
      raise (Failed "no answer for a minute: the server is stuck")
  done

(* One blocking request, for set-up and checks outside the measured
   phase. *)
let request c line =
  let result = ref None in
  send c line (fun r _ -> result := Some r);
  run [ c ] ~finished:(fun () -> !result <> None);
  match !result with
  | Some r when r.P.ok -> r.P.payload
  | Some r -> raise (Failed (Printf.sprintf "%s: %s" line r.P.payload))
  | None -> assert false
