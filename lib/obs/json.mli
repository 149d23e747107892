(** A minimal JSON emitter and parser — enough for the benchmark
    trajectory files and the DST replay format without pulling in a
    dependency. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** Pretty-printed with two-space indentation and a trailing newline. *)
val to_file : string -> t -> unit

(** {2 Parsing}

    A strict recursive-descent parser for the subset this module emits
    (standard JSON; numbers without a [.]/[e] land in [Int], the rest
    in [Float]).  Round-trips everything {!to_string} produces. *)

val of_string : string -> (t, string) result

(** Reads and parses a whole file; [Error] on parse failure.  Raises
    [Sys_error] if the file cannot be read. *)
val of_file : string -> (t, string) result

(** {2 Accessors} *)

(** [member k (Obj kvs)] is the value bound to [k], if any; [None] on
    non-objects. *)
val member : string -> t -> t option

val to_int_opt : t -> int option

(** [Int]s coerce. *)
val to_float_opt : t -> float option

val to_str_opt : t -> string option
val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option

(** [to_enum_opt names j] is [Some s] when [j] is [Str s] with [s] one
    of [names]. *)
val to_enum_opt : string list -> t -> string option

(** {2 Validation} *)

(** [get k conv j] is [conv] applied to member [k] of [j]; [Error]
    naming [k] when it is missing or [conv] rejects it. *)
val get : string -> (t -> 'a option) -> t -> ('a, string) result

(** [check_schema id doc]: [doc]'s ["schema"] member is the string [id]. *)
val check_schema : string -> t -> (unit, string) result

(** [each f xs] is the first [Error] of [f] over [xs], in order, or
    [Ok ()]. *)
val each : ('a -> (unit, string) result) -> 'a list -> (unit, string) result

(** [write_checked ~validate path doc] is the one way a benchmark
    document reaches disk: [validate doc]; then, when [path] is given,
    write it, read the file back and [validate] what was read.  The
    first failing step is the [Error]; a [Sys_error] becomes one too. *)
val write_checked :
  validate:(t -> (unit, string) result) ->
  string option ->
  t ->
  (unit, string) result
