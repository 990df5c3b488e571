(* Scratch directories for the durability, replication and server
   tests: a fresh name, and its removal with the files in it. *)

let temp_dir () =
  let d = Filename.temp_file "gkbms-test" "" in
  Sys.remove d;
  d

(* A daemon that a failing test never stopped may still write into
   [dir]: a removal that fails is retried a few times and then only
   reported, so cleanup never hides the test's own failure. *)
let rm_rf dir =
  let remove () =
    if Sys.file_exists dir then begin
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  let rec attempt n =
    match remove () with
    | () -> ()
    | exception Sys_error _ when n > 1 ->
      Unix.sleepf 0.05;
      attempt (n - 1)
    | exception Sys_error e -> Printf.eprintf "warning: %s left in place: %s\n%!" dir e
  in
  attempt 5
