module Op = Graphene.Op

type t = { bias : bool; act : Op.unary option }

let none = { bias = false; act = None }
let bias = { bias = true; act = None }
let relu = { bias = false; act = Some Op.Relu }
let bias_relu = { bias = true; act = Some Op.Relu }
let bias_gelu = { bias = true; act = Some Op.Gelu }

let name t =
  match (t.bias, t.act) with
  | false, None -> "none"
  | true, None -> "bias"
  | false, Some a -> Op.unary_name a
  | true, Some a -> "bias+" ^ Op.unary_name a

let flops_per_element t =
  (if t.bias then 1 else 0)
  +
  match t.act with
  | None -> 0
  | Some Op.Relu -> 1
  | Some (Op.Gelu | Op.Tanh | Op.Sigmoid | Op.Exp | Op.Log) -> 8
  | Some (Op.Neg | Op.Abs | Op.Sqrt | Op.Rsqrt | Op.Recip) -> 1
