(** Parser for the OpenQASM 2 subset emitted by {!Qasm} and produced by
    common benchmark suites (QASMBench, RevLib exports).

    Supported: one [qreg]/[creg] pair, the qelib1 gates that map onto
    {!Qgate.Gate.t} (id x y z h s sdg t tdg sx sxdg rx ry rz p u1 u2 u3 u
    cx cy cz ch swap crx cry crz cp cu1 rzz ccx ccz cswap), [barrier], and
    [measure q[i] -> c[j]].  Angle expressions may use [pi], numeric
    literals, unary minus, [* / + -] and parentheses.

    Every rejection carries the source position: qubit indices are checked
    against the declared register size, and gate arity / repeated operands
    are validated per statement, so a bad program fails here with a line
    and column instead of deep inside {!Circuit.create}. *)

type error = { line : int; col : int; msg : string }
(** A parse failure at a 1-based source position.  [col] points at the
    start of the offending statement. *)

val string_of_error : error -> string
(** ["line 4, col 12: unsupported gate foo"]. *)

exception Parse_error of string
(** Raised by {!parse} / {!parse_file} with {!string_of_error} applied. *)

val parse_result : string -> (Circuit.t, error) result
(** Parse a full OpenQASM 2 program, returning the structured error. *)

val parse : string -> Circuit.t
(** Parse a full OpenQASM 2 program.  @raise Parse_error on failure. *)

val parse_file : string -> Circuit.t
(** Parse a file from disk. *)
