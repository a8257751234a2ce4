module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor

let element_offset (v : Ts.t) k =
  (* Walk levels innermost-first, peeling mixed-radix digits of [k]. Outer
     symbolic levels are fine as long as the remaining [k] is zero by the
     time we reach them (the view was already selected down to them). *)
  let rec go acc k = function
    | [] ->
      if k <> 0 then
        invalid_arg
          (Printf.sprintf "Index_gen.element_offset: index %d out of range" k);
      acc
    | level :: outer_levels ->
      if L.is_const level then begin
        let s = L.size_int level in
        let local = k mod s in
        go (E.add acc (E.const (L.nth_index level local))) (k / s) outer_levels
      end
      else begin
        if k <> 0 then
          invalid_arg
            (Printf.sprintf
               "Index_gen.element_offset: index %d reaches symbolic level %s"
               k (L.to_string level));
        go acc 0 outer_levels
      end
  in
  go v.Ts.offset k (List.rev (Ts.levels v))

let ref_string v k =
  let idx = E.to_string (element_offset v k) in
  let idx = Shape.Swizzle.to_c_expr v.Ts.swizzle idx in
  Printf.sprintf "%s[%s]" v.Ts.buffer idx
