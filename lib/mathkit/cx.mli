(** Complex-number helpers on top of [Stdlib.Complex].

    The standard library provides arithmetic; this module adds the numeric
    predicates, constants and conversions the synthesis code needs. *)

type t = Complex.t

val zero : t
val one : t
val i : t
val minus_one : t

val re : float -> t
(** Real number as a complex. *)

val im : float -> t
(** Purely imaginary number. *)

val make : float -> float -> t

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t
val neg : t -> t
val conj : t -> t
val abs : t -> float
val abs2 : t -> float
(** Squared modulus, avoids the sqrt of {!abs}. *)

val arg : t -> float
val sqrt : t -> t
val exp_i : float -> t
(** [exp_i theta] is e^{i theta}. *)

val scale : float -> t -> t

val approx : ?eps:float -> t -> t -> bool
(** Componentwise closeness, default [eps] = 1e-9. *)

val is_zero : ?eps:float -> t -> bool
val pp : Format.formatter -> t -> unit
