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

let eval_unary op x =
  match op with
  | Exp -> Float.exp x
  | Relu -> Float.max 0.0 x
  | Tanh -> Float.tanh x
  | Sigmoid -> 1.0 /. (1.0 +. Float.exp (-.x))
  | Gelu ->
    (* tanh approximation, as used by BERT-style networks *)
    0.5 *. x
    *. (1.0
       +. Float.tanh (0.7978845608028654 *. (x +. (0.044715 *. x *. x *. x))))
  | Neg -> -.x
  | Abs -> Float.abs x
  | Sqrt -> Float.sqrt x
  | Rsqrt -> 1.0 /. Float.sqrt x
  | Recip -> 1.0 /. x
  | Log -> Float.log x

let eval_binary op a b =
  match op with
  | Add -> a +. b
  | Sub -> a -. b
  | Mul -> a *. b
  | Div -> a /. b
  | Max -> Float.max a b
  | Min -> Float.min a b

let identity = function
  | Add -> 0.0
  | Mul -> 1.0
  | Max -> Float.neg_infinity
  | Min -> Float.infinity
  | Sub | Div -> invalid_arg "Op.identity: not a reduction operator"

let unary_name = function
  | Exp -> "exp"
  | Relu -> "relu"
  | Tanh -> "tanh"
  | Sigmoid -> "sigmoid"
  | Gelu -> "gelu"
  | Neg -> "neg"
  | Abs -> "abs"
  | Sqrt -> "sqrt"
  | Rsqrt -> "rsqrt"
  | Recip -> "recip"
  | Log -> "log"

let binary_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Max -> "max"
  | Min -> "min"

let cuda_unary op arg =
  match op with
  | Exp -> Printf.sprintf "__expf(%s)" arg
  | Relu -> Printf.sprintf "fmaxf(%s, 0.0f)" arg
  | Tanh -> Printf.sprintf "tanhf(%s)" arg
  | Sigmoid -> Printf.sprintf "(1.0f / (1.0f + __expf(-%s)))" arg
  | Gelu -> Printf.sprintf "gelu(%s)" arg
  | Neg -> Printf.sprintf "(-%s)" arg
  | Abs -> Printf.sprintf "fabsf(%s)" arg
  | Sqrt -> Printf.sprintf "sqrtf(%s)" arg
  | Rsqrt -> Printf.sprintf "rsqrtf(%s)" arg
  | Recip -> Printf.sprintf "__frcp_rn(%s)" arg
  | Log -> Printf.sprintf "__logf(%s)" arg

let cuda_binary op a b =
  match op with
  | Add -> Printf.sprintf "(%s + %s)" a b
  | Sub -> Printf.sprintf "(%s - %s)" a b
  | Mul -> Printf.sprintf "(%s * %s)" a b
  | Div -> Printf.sprintf "(%s / %s)" a b
  | Max -> Printf.sprintf "fmaxf(%s, %s)" a b
  | Min -> Printf.sprintf "fminf(%s, %s)" a b
