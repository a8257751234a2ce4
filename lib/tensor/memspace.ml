type t = Global | Shared | Register

let to_ir_string = function
  | Global -> "GL"
  | Shared -> "SH"
  | Register -> "RF"

let equal (a : t) b = a = b
let pp fmt t = Format.pp_print_string fmt (to_ir_string t)
