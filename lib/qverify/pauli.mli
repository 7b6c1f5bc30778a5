(** Signed Pauli strings over [n] wires.

    A value represents [i^phase * (s_0 (x) s_1 (x) ... (x) s_{n-1})] where
    each per-wire factor [s_w] is one of I, X, Z, Y, encoded as an integer
    code: [0 = I], [1 = X], [2 = Z], [3 = Y] (bit 0 is the X component,
    bit 1 the Z component; [Y = i X Z], so code 3 — both bits — is Y
    itself, not iXZ).  The phase exponent lives in [0..3].

    These are the rows of the {!Tableau} and the rotation axes of the
    {!Qverify} phase-folding canonical form; everything is O(n) per
    operation and allocation-light (one [Bytes.t] per string). *)

type t

val n_wires : t -> int

val identity : int -> t
(** The all-[I] string with phase [+1]. *)

val single : n:int -> int -> int -> t
(** [single ~n w c] is the weight-one string with code [c] (1, 2 or 3) on
    wire [w]. *)

val of_codes : n:int -> ?phase:int -> (int * int) list -> t
(** [of_codes ~n ?phase codes] builds a string from (wire, code) pairs
    (default phase 0). *)

val code : t -> int -> int
(** Per-wire code, [0..3]. *)

val phase : t -> int
(** Exponent [k] of the [i^k] prefactor, [0..3]. *)

val with_phase : t -> int -> t
(** Same string, phase replaced (reduced mod 4). *)

val mul_phase : t -> int -> t
(** Multiply by [i^k] (phase added mod 4). *)

val neg : t -> t

val mul : t -> t -> t
(** Full operator product, with the per-wire phase bookkeeping
    ([X*Z = -iY] and friends) folded into the result's phase. *)

val commutes : t -> t -> bool
(** Symplectic test: strings either commute or anticommute. *)

val same_string : t -> t -> bool
(** Equal letters, phase ignored. *)

val equal : t -> t -> bool
(** Equal letters and equal phase. *)

val is_identity_string : t -> bool
(** All letters are [I] (the operator is the scalar [i^phase]). *)

val support : t -> int list
(** Wires with a non-[I] letter, ascending. *)

val weight : t -> int

val to_string : t -> string
(** ["+XIZY"], ["-iZZ"], ... for traces and test failure messages. *)
