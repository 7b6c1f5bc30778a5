type t =
  | Id
  | X
  | Y
  | Z
  | H
  | S
  | Sdg
  | T
  | Tdg
  | SX
  | SXdg
  | RX of float
  | RY of float
  | RZ of float
  | P of float
  | U of float * float * float
  | CX
  | CY
  | CZ
  | CH
  | SWAP
  | CRX of float
  | CRY of float
  | CRZ of float
  | CP of float
  | RZZ of float
  | CCX
  | CCZ
  | CSWAP
  | MCX of int
  | MCZ of int
  | Unitary2 of Mathkit.Mat.t
  | Barrier of int
  | Measure

let arity = function
  | Id | X | Y | Z | H | S | Sdg | T | Tdg | SX | SXdg | RX _ | RY _ | RZ _ | P _ | U _ -> 1
  | CX | CY | CZ | CH | SWAP | CRX _ | CRY _ | CRZ _ | CP _ | RZZ _ | Unitary2 _ -> 2
  | CCX | CCZ | CSWAP -> 3
  | MCX k | MCZ k -> k + 1
  | Barrier n -> n
  | Measure -> 1

let name = function
  | Id -> "id"
  | X -> "x"
  | Y -> "y"
  | Z -> "z"
  | H -> "h"
  | S -> "s"
  | Sdg -> "sdg"
  | T -> "t"
  | Tdg -> "tdg"
  | SX -> "sx"
  | SXdg -> "sxdg"
  | RX _ -> "rx"
  | RY _ -> "ry"
  | RZ _ -> "rz"
  | P _ -> "p"
  | U _ -> "u"
  | CX -> "cx"
  | CY -> "cy"
  | CZ -> "cz"
  | CH -> "ch"
  | SWAP -> "swap"
  | CRX _ -> "crx"
  | CRY _ -> "cry"
  | CRZ _ -> "crz"
  | CP _ -> "cp"
  | RZZ _ -> "rzz"
  | CCX -> "ccx"
  | CCZ -> "ccz"
  | CSWAP -> "cswap"
  | MCX _ -> "mcx"
  | MCZ _ -> "mcz"
  | Unitary2 _ -> "unitary"
  | Barrier _ -> "barrier"
  | Measure -> "measure"

let pp ppf g =
  match g with
  | RX a | RY a | RZ a | P a | CRX a | CRY a | CRZ a | CP a | RZZ a ->
      Format.fprintf ppf "%s(%.4g)" (name g) a
  | U (t, p, l) -> Format.fprintf ppf "u(%.4g,%.4g,%.4g)" t p l
  | MCX k | MCZ k -> Format.fprintf ppf "%s%d" (name g) k
  | _ -> Format.pp_print_string ppf (name g)

let tag = function
  | Id -> 0
  | X -> 1
  | Y -> 2
  | Z -> 3
  | H -> 4
  | S -> 5
  | Sdg -> 6
  | T -> 7
  | Tdg -> 8
  | SX -> 9
  | SXdg -> 10
  | RX _ -> 11
  | RY _ -> 12
  | RZ _ -> 13
  | P _ -> 14
  | U _ -> 15
  | CX -> 16
  | CY -> 17
  | CZ -> 18
  | CH -> 19
  | SWAP -> 20
  | CRX _ -> 21
  | CRY _ -> 22
  | CRZ _ -> 23
  | CP _ -> 24
  | RZZ _ -> 25
  | CCX -> 26
  | CCZ -> 27
  | CSWAP -> 28
  | MCX _ -> 29
  | MCZ _ -> 30
  | Unitary2 _ -> 31
  | Barrier _ -> 32
  | Measure -> 33

(* Exact binary signature: one constructor tag byte plus the bit patterns
   of every parameter ([Int64.bits_of_float], so distinct gates always get
   distinct signatures — no decimal rounding).  Used as a memoization key
   component by the Weyl-cost and block-resynthesis caches, where it must
   be both injective and cheap (no [Format]). *)
let add_float_bits buf f = Buffer.add_int64_le buf (Int64.bits_of_float f)

let add_signature buf g =
  Buffer.add_char buf (Char.chr (tag g));
  match g with
  | RX a | RY a | RZ a | P a | CRX a | CRY a | CRZ a | CP a | RZZ a -> add_float_bits buf a
  | U (a, b, c) ->
      add_float_bits buf a;
      add_float_bits buf b;
      add_float_bits buf c
  | MCX k | MCZ k | Barrier k -> Buffer.add_int32_le buf (Int32.of_int k)
  | Unitary2 m ->
      let rows = Mathkit.Mat.rows m and cols = Mathkit.Mat.cols m in
      Buffer.add_char buf (Char.chr rows);
      Buffer.add_char buf (Char.chr cols);
      for r = 0 to rows - 1 do
        for c = 0 to cols - 1 do
          let v = Mathkit.Mat.get m r c in
          add_float_bits buf v.Complex.re;
          add_float_bits buf v.Complex.im
        done
      done
  | Id | X | Y | Z | H | S | Sdg | T | Tdg | SX | SXdg | CX | CY | CZ | CH | SWAP | CCX | CCZ
  | CSWAP | Measure ->
      ()

let is_directive = function Barrier _ | Measure -> true | _ -> false
let is_two_qubit g = (not (is_directive g)) && arity g = 2
let is_one_qubit g = (not (is_directive g)) && arity g = 1

let is_self_inverse = function
  | Id | X | Y | Z | H | CX | CY | CZ | CH | SWAP | CCX | CCZ | CSWAP -> true
  | MCX _ | MCZ _ -> true
  | SX -> false
  | _ -> false

let inverse = function
  | (Id | X | Y | Z | H | CX | CY | CZ | CH | SWAP | CCX | CCZ | CSWAP) as g -> g
  | (MCX _ | MCZ _) as g -> g
  | S -> Sdg
  | Sdg -> S
  | T -> Tdg
  | Tdg -> T
  | SX -> SXdg
  | SXdg -> SX
  | RX a -> RX (-.a)
  | RY a -> RY (-.a)
  | RZ a -> RZ (-.a)
  | P a -> P (-.a)
  | U (t, p, l) -> U (-.t, -.l, -.p)
  | CRX a -> CRX (-.a)
  | CRY a -> CRY (-.a)
  | CRZ a -> CRZ (-.a)
  | CP a -> CP (-.a)
  | RZZ a -> RZZ (-.a)
  | Unitary2 m -> Unitary2 (Mathkit.Mat.adjoint m)
  | Barrier _ | Measure -> invalid_arg "Gate.inverse: directive has no inverse"

let equal a b =
  match (a, b) with
  | Unitary2 m, Unitary2 n -> Mathkit.Mat.approx_equal m n
  | _ -> a = b

let in_basis = function
  | Id | RZ _ | SX | X | CX | Barrier _ | Measure -> true
  | _ -> false
