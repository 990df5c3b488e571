(* Scratch directories for the durability, replication and server
   tests: a fresh name, and its removal with the files in it. *)

let temp_dir () =
  let d = Filename.temp_file "gkbms-test" "" in
  Sys.remove d;
  d

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end
