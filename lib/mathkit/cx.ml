type t = Complex.t

let zero = Complex.zero
let one = Complex.one
let i = Complex.i
let minus_one = { Complex.re = -1.0; im = 0.0 }
let re x = { Complex.re = x; im = 0.0 }
let im y = { Complex.re = 0.0; im = y }
let make re im = { Complex.re; im }
let ( + ) = Complex.add
let ( - ) = Complex.sub
let ( * ) = Complex.mul
let ( / ) = Complex.div
let neg = Complex.neg
let conj = Complex.conj
let abs = Complex.norm
let abs2 = Complex.norm2
let arg = Complex.arg
let sqrt = Complex.sqrt
let exp_i theta = { Complex.re = cos theta; im = sin theta }
let scale s z = { Complex.re = s *. z.Complex.re; im = s *. z.Complex.im }

let approx ?(eps = 1e-9) a b =
  Float.abs (a.Complex.re -. b.Complex.re) <= eps
  && Float.abs (a.Complex.im -. b.Complex.im) <= eps

let is_zero ?(eps = 1e-9) z = Float.abs z.Complex.re <= eps && Float.abs z.Complex.im <= eps

let pp ppf z =
  if Float.abs z.Complex.im < 1e-12 then Format.fprintf ppf "%.6g" z.Complex.re
  else Format.fprintf ppf "(%.6g%+.6gi)" z.Complex.re z.Complex.im
