(* Child processes, the pipes they report on, and clean-up.

   The load generator forks every server before it starts anything
   else, so the children inherit a single-threaded process.  Every
   child is SIGKILLed and reaped on every exit path of the parent, and
   a child whose parent disappears exits on its own. *)

let now = Unix.gettimeofday

let children : int list ref = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let dir_bytes dir =
  Array.fold_left
    (fun acc f ->
      match Unix.stat (Filename.concat dir f) with
      | { Unix.st_kind = Unix.S_REG; st_size; _ } -> acc + st_size
      | _ -> acc)
    0 (Sys.readdir dir)

(* A child reports "key value" lines; [send] is its side. *)
let send fd key value =
  let line = Printf.sprintf "%s %s\n" key value in
  ignore (Unix.write_substring fd line 0 (String.length line))

(* Exit when the parent is gone (it was killed before it could reap
   us): the benchmark must never leave a daemon behind. *)
let watch_parent () =
  let parent = Unix.getppid () in
  ignore
    (Thread.create
       (fun () ->
         while true do
           Thread.delay 0.2;
           if Unix.getppid () <> parent then Unix._exit 3
         done)
       ())

(* Fork [f] with a report pipe.  The child never returns into the
   parent's code: it leaves through [Unix._exit], so the parent's
   [at_exit] clean-up does not run twice. *)
let spawn f =
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      try
        f w;
        0
      with e ->
        send w "error" (String.escaped (Printexc.to_string e));
        1
    in
    Unix._exit code
  | pid ->
    Unix.close w;
    children := pid :: !children;
    (pid, r)

exception Child_failed of string

(* Read report lines until one with [key] arrives; an "error" line, end
   of file or the deadline fails. *)
let read_until ?(timeout = 120.) fd key =
  let deadline = now () +. timeout in
  let buf = Buffer.create 256 and chunk = Bytes.create 4096 in
  let lines = ref [] in
  let rec next_lines () =
    let s = Buffer.contents buf in
    match String.index_opt s '\n' with
    | Some i ->
      let line = String.sub s 0 i in
      Buffer.clear buf;
      Buffer.add_string buf (String.sub s (i + 1) (String.length s - i - 1));
      let k, v =
        match String.index_opt line ' ' with
        | Some j -> (String.sub line 0 j, String.sub line (j + 1) (String.length line - j - 1))
        | None -> (line, "")
      in
      if k = "error" then raise (Child_failed (Scanf.unescaped v));
      lines := (k, v) :: !lines;
      if k = key then List.rev !lines else next_lines ()
    | None ->
      let left = deadline -. now () in
      if left <= 0. then raise (Child_failed ("timed out waiting for " ^ key));
      (match Unix.select [ fd ] [] [] left with
      | [], _, _ -> ()
      | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> raise (Child_failed ("child exited before reporting " ^ key))
        | n -> Buffer.add_subbytes buf chunk 0 n));
      next_lines ()
  in
  next_lines ()

let float_of report key =
  match List.assoc_opt key report with
  | Some v -> float_of_string v
  | None -> raise (Child_failed ("missing report " ^ key))

(* The value of [field] in /proc/PID/status ([pid] 0: this process). *)
let status_field pid field =
  let path = Printf.sprintf "/proc/%s/status" (if pid = 0 then "self" else string_of_int pid) in
  let prefix = field ^ ":" in
  let n = String.length prefix in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.length line > n && String.sub line 0 n = prefix ->
      String.trim (String.sub line n (String.length line - n))
    | _ -> go ()
    | exception End_of_file -> raise (Child_failed (Printf.sprintf "no %s in %s" field path))
  in
  go ()

(* Peak resident set of a live process (VmHWM, kB). *)
let peak_rss_mb pid = Scanf.sscanf (status_field pid "VmHWM") "%d" (fun kb -> float_of_int kb /. 1024.)
