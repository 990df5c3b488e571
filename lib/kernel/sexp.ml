type t = Atom of string | List of t list

let atom s = Atom s
let list l = List l

type sink = string -> int -> int -> unit

let add_string (sink : sink) s = sink s 0 (String.length s)

(* Forward bytes [run, stop) of [s] to [sink], escaping those [table]
   maps to a non-empty string; [run] starts the pending stretch of bytes
   that pass through as is.  Top-level, so a call allocates nothing. *)
let rec escape_runs table sink s stop run i =
  if i = stop then (if i > run then sink s run (i - run))
  else
    let e = table.(Char.code s.[i]) in
    if String.length e = 0 then escape_runs table sink s stop run (i + 1)
    else begin
      if i > run then sink s run (i - run);
      add_string sink e;
      escape_runs table sink s stop (i + 1) (i + 1)
    end

let escaper pairs =
  let table = Array.make 256 "" in
  List.iter (fun (c, e) -> table.(Char.code c) <- e) pairs;
  fun (sink : sink) s pos len -> escape_runs table sink s (pos + len) pos pos

let escaping = escaper [ ('"', "\\\""); ('\\', "\\\\"); ('\n', "\\n") ]

let needs_quoting s =
  s = ""
  || String.exists
       (fun c ->
         c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '(' || c = ')'
         || c = '"' || c = ';' || c = '\\')
       s

let rec output sink = function
  | Atom s when needs_quoting s ->
    add_string sink "\"";
    add_string (escaping sink) s;
    add_string sink "\""
  | Atom s -> add_string sink s
  | List l ->
    add_string sink "(";
    List.iteri
      (fun i x ->
        if i > 0 then add_string sink " ";
        output sink x)
      l;
    add_string sink ")"

let to_string t =
  let buf = Buffer.create 64 in
  output (Buffer.add_substring buf) t;
  Buffer.contents buf

exception Parse_error of string

let parse_exn src =
  let n = String.length src in
  let pos = ref 0 in
  let peek () = if !pos < n then Some src.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | Some ';' ->
      (* comment to end of line *)
      while !pos < n && src.[!pos] <> '\n' do
        advance ()
      done;
      skip_ws ()
    | Some _ | None -> ()
  in
  let parse_quoted () =
    advance ();
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> raise (Parse_error "unterminated string")
      | Some '"' -> advance ()
      | Some '\\' ->
        advance ();
        (match peek () with
        | Some 'n' -> Buffer.add_char buf '\n'
        | Some c -> Buffer.add_char buf c
        | None -> raise (Parse_error "dangling escape"));
        advance ();
        loop ()
      | Some c ->
        Buffer.add_char buf c;
        advance ();
        loop ()
    in
    loop ();
    Atom (Buffer.contents buf)
  in
  let parse_bare () =
    let start = !pos in
    let stop c =
      c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '(' || c = ')'
      || c = '"'
    in
    while !pos < n && not (stop src.[!pos]) do
      advance ()
    done;
    Atom (String.sub src start (!pos - start))
  in
  let rec parse_one () =
    skip_ws ();
    match peek () with
    | None -> raise (Parse_error "unexpected end of input")
    | Some '(' ->
      advance ();
      let items = ref [] in
      let rec loop () =
        skip_ws ();
        match peek () with
        | Some ')' -> advance ()
        | None -> raise (Parse_error "unclosed parenthesis")
        | Some _ ->
          items := parse_one () :: !items;
          loop ()
      in
      loop ();
      List (List.rev !items)
    | Some ')' -> raise (Parse_error "unexpected )")
    | Some '"' -> parse_quoted ()
    | Some _ -> parse_bare ()
  in
  let rec parse_all acc =
    skip_ws ();
    if !pos >= n then List.rev acc else parse_all (parse_one () :: acc)
  in
  parse_all []

let parse_many src =
  match parse_exn src with
  | sexps -> Ok sexps
  | exception Parse_error e -> Error e

let parse src =
  match parse_many src with
  | Error e -> Error e
  | Ok [ s ] -> Ok s
  | Ok l -> Error (Printf.sprintf "expected one s-expression, found %d" (List.length l))

let as_atom = function
  | Atom s -> Ok s
  | List _ -> Error "expected an atom"

let as_list = function
  | List l -> Ok l
  | Atom a -> Error (Printf.sprintf "expected a list, got atom %S" a)

let field_opt sexp key =
  match sexp with
  | List items ->
    List.find_map
      (function
        | List (Atom k :: rest) when k = key -> (
          match rest with [ v ] -> Some v | _ -> Some (List rest))
        | _ -> None)
      items
  | Atom _ -> None

let field sexp key =
  match field_opt sexp key with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %s" key)
