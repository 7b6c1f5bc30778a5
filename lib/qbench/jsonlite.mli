(** A minimal JSON reader and writer without a dependency: the writer
    behind every [BENCH_*.json] snapshot and wide event, the reader behind
    [bench/e2e]'s run-set comparison and the tests' round trips.  Numbers
    are floats. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val of_string : string -> t
(** @raise Parse_error on malformed input (with an offset). *)

val serialize : ?indent:int -> t -> string
(** Serialize.  [indent = 0] (the default) is compact one-line JSON;
    positive values pretty-print with that many spaces per level (what the
    [BENCH_*] snapshot writers use, so checked-in baselines diff cleanly).
    Floats use shortest round-trip formatting ([%.15g]/[%.16g]/[%.17g],
    first that re-parses to the same double; integral values print with no
    fraction), so [of_string (to_string v)] reproduces every finite number
    exactly.  Non-finite floats serialize as [null] (JSON has no NaN). *)

val number_to_string : float -> string
(** The shortest-round-trip float formatter used by {!serialize}:
    [float_of_string (number_to_string f) = f] for every finite [f]. *)

val int : int -> t
(** [Num] of an integer; {!serialize} prints it with no fraction. *)

val member : string -> t -> t option
(** Object field lookup; [None] on missing keys and non-objects. *)

val to_float : t -> float option
val to_int : t -> int option
val to_string : t -> string option
val to_list : t -> t list option
