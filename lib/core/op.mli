(** Scalar operations used by pointwise and reduction specs (paper Table 1). *)

type unary =
  | Exp
  | Relu
  | Tanh
  | Sigmoid
  | Gelu
  | Neg
  | Abs
  | Sqrt
  | Rsqrt
  | Recip
  | Log

type binary = Add | Sub | Mul | Div | Max | Min

val eval_unary : unary -> float -> float
val eval_binary : binary -> float -> float -> float

(** Neutral element for reductions with this operator; raises
    [Invalid_argument] for [Sub] and [Div], which are not reductions. *)
val identity : binary -> float

(** CUDA expression for the operation applied to the given argument
    strings. *)
val cuda_unary : unary -> string -> string

val cuda_binary : binary -> string -> string -> string
val unary_name : unary -> string
val binary_name : binary -> string
