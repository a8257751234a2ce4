type t = FP16 | BF16 | FP32 | FP64 | I8 | I32 | U32 | Bool

let size_bytes = function
  | FP16 | BF16 -> 2
  | FP32 | I32 | U32 -> 4
  | FP64 -> 8
  | I8 | Bool -> 1

let to_ir_string = function
  | FP16 -> "fp16"
  | BF16 -> "bf16"
  | FP32 -> "fp32"
  | FP64 -> "fp64"
  | I8 -> "i8"
  | I32 -> "i32"
  | U32 -> "u32"
  | Bool -> "bool"

let to_cuda_string = function
  | FP16 -> "half"
  | BF16 -> "nv_bfloat16"
  | FP32 -> "float"
  | FP64 -> "double"
  | I8 -> "int8_t"
  | I32 -> "int"
  | U32 -> "uint32_t"
  | Bool -> "bool"

let equal (a : t) b = a = b
let pp fmt t = Format.pp_print_string fmt (to_ir_string t)

(* fp16 rounding: round-trip through IEEE binary16. We implement the
   conversion directly (OCaml has no half type): clamp the exponent range
   and truncate the mantissa to 10 bits with round-to-nearest-even.
   [@inline] here and on [round_bf16] lets [round_into]'s loops keep
   the element unboxed: a call that is not inlined boxes its float
   argument and result. *)
let[@inline] round_fp16 x =
  if Float.is_nan x then x
  (* [Float.is_integer x], spelled out: the stdlib call is not inlined
     and would box [x]. *)
  else if x = Float.trunc x && x -. x = 0. && Float.abs x <= 2048. then x
  else
    let bits = Int32.bits_of_float x in
    let sign = Int32.to_int (Int32.shift_right_logical bits 31) land 1 in
    let exp = Int32.to_int (Int32.shift_right_logical bits 23) land 0xff in
    let mant = Int32.to_int bits land 0x7fffff in
    let e = exp - 127 in
    if e > 15 then if sign = 1 then Float.neg_infinity else Float.infinity
    else if e < -24 then if sign = 1 then -0.0 else 0.0
    else
      (* Keep 10 mantissa bits (more for subnormals), round to nearest even. *)
      let shift = if e >= -14 then 13 else 13 + (-14 - e) in
      let keep = mant lsr shift in
      let rem = mant land ((1 lsl shift) - 1) in
      let half = 1 lsl (shift - 1) in
      let keep =
        if rem > half || (rem = half && keep land 1 = 1) then keep + 1
        else keep
      in
      let mant' = keep lsl shift in
      (* Rounding may carry into the exponent; recompose via floats. *)
      let base =
        Int32.float_of_bits
          (Int32.logor
             (Int32.shift_left (Int32.of_int exp) 23)
             (Int32.of_int (mant' land 0x7fffff)))
      in
      let carry = if mant' land 0x800000 <> 0 then 2.0 else 1.0 in
      let v = base *. carry in
      if sign = 1 then -.v else v

(* bf16: truncate the fp32 mantissa to 7 bits, round to nearest even. *)
let[@inline] round_bf16 x =
  if Float.is_nan x then x
  else
    let bits = Int32.bits_of_float x in
    let lower = Int32.to_int bits land 0xffff in
    let upper = Int32.logand bits 0xffff0000l in
    let upper =
      if lower > 0x8000
         || (lower = 0x8000
            && Int32.to_int (Int32.shift_right_logical bits 16) land 1 = 1)
      then Int32.add upper 0x10000l
      else upper
    in
    Int32.float_of_bits upper

let round t x =
  match t with
  | FP16 -> round_fp16 x
  | BF16 -> round_bf16 x
  | FP32 -> Int32.float_of_bits (Int32.bits_of_float x)
  | FP64 -> x
  | I8 -> Float.of_int (Stdlib.max (-128) (Stdlib.min 127 (Float.to_int x)))
  | I32 | U32 -> Float.of_int (Float.to_int x)
  | Bool -> if x = 0.0 then 0.0 else 1.0

(* One dtype match per slice instead of one per element, and no call per
   element: the simulator's stores round whole lanes through here, since
   a float passed to or returned from another module is always boxed. *)
let round_into t src ~pos dst ~len =
  if pos < 0 || len < 0 || pos > Array.length src - len || len > Array.length dst
  then invalid_arg "Dtype.round_into";
  match t with
  | FP16 ->
    for i = 0 to len - 1 do
      Array.unsafe_set dst i (round_fp16 (Array.unsafe_get src (pos + i)))
    done
  | BF16 ->
    for i = 0 to len - 1 do
      Array.unsafe_set dst i (round_bf16 (Array.unsafe_get src (pos + i)))
    done
  | FP32 ->
    for i = 0 to len - 1 do
      Array.unsafe_set dst i
        (Int32.float_of_bits (Int32.bits_of_float (Array.unsafe_get src (pos + i))))
    done
  | FP64 -> Array.blit src pos dst 0 len
  | I8 | I32 | U32 | Bool ->
    for i = 0 to len - 1 do
      Array.unsafe_set dst i (round t (Array.unsafe_get src (pos + i)))
    done
