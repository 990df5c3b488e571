(** Minimal s-expressions, the persistence syntax for structured
    artifacts (design ASTs, decision metadata).  Atoms are quoted when
    they contain whitespace, parentheses, quotes or are empty. *)

type t = Atom of string | List of t list

val atom : string -> t
val list : t list -> t

(** {1 Printing} *)

type sink = string -> int -> int -> unit
(** Where printed bytes go: [sink s pos len] appends the [len] bytes of
    [s] from [pos], like [Buffer.add_substring buf] or
    [output_substring oc].  Writers push runs, never single bytes, so a
    large value streams to a file without first being built in memory. *)

val add_string : sink -> string -> unit

val escaper : (char * string) list -> sink -> sink
(** [escaper pairs sink] forwards to [sink], replacing each byte listed
    in [pairs] by its escape; bytes in between pass through in runs. *)

val escaping : sink -> sink
(** The body of a quoted atom: escapes double quotes, backslashes and
    newlines. *)

val output : sink -> t -> unit

val to_string : t -> string
(** {!output} into a buffer. *)

(** {1 Parsing} *)

val parse : string -> (t, string) result
(** Parses exactly one s-expression (surrounding whitespace allowed). *)

val parse_many : string -> (t list, string) result

(** {1 Convenience accessors} *)

val as_atom : t -> (string, string) result
val as_list : t -> (t list, string) result

val field : t -> string -> (t, string) result
(** [field (List [...; List [Atom key; v]; ...]) key = Ok v]. *)

val field_opt : t -> string -> t option
