module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Op = Graphene.Op

(* Large negative fp32 constant standing in for -inf (printable in CUDA). *)
let neg_huge = -3.0e38

let kernel ?(name = "softmax") ~rows ~cols ~nthreads () =
  if cols mod nthreads <> 0 then
    invalid_arg "Softmax: cols must be divisible by nthreads";
  let npt = cols / nthreads in
  let vw = if npt mod 8 = 0 then 8 else 1 in
  let nvec = npt / vw in
  let nwarps = nthreads / 32 in
  let x = Ts.create_rm "X" [ rows; cols ] Dt.FP16 Ms.Global in
  let y = Ts.create_rm "Y" [ rows; cols ] Dt.FP16 Ms.Global in
  let grid = Tt.grid "grid" [ rows ] in
  let cta = Tt.linear "cta" nthreads Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let warp =
    Tt.select (Tt.tile cta [ L.tile_spec 32 ]) [ E.div tid (E.const 32) ]
  in
  let row = B.block_idx in
  let x_rf, al_x = B.alloc_regs "x_rf" (L.vector npt) Dt.FP16 in
  let e_rf, al_e = B.alloc_regs "e_rf" (L.vector npt) Dt.FP32 in
  let y_rf, al_y = B.alloc_regs "y_rf" (L.vector vw) Dt.FP16 in
  let w32, al_w = B.alloc_regs "w32" (L.vector vw) Dt.FP32 in
  let mx, al_m = B.alloc_regs "mx" (L.vector 1) Dt.FP32 in
  let sum, al_s = B.alloc_regs "sum" (L.vector 1) Dt.FP32 in
  let tmp, al_t = B.alloc_regs "tmp" (L.vector 1) Dt.FP32 in
  let inv, al_i = B.alloc_regs "inv" (L.vector 1) Dt.FP32 in
  let parts, al_p = B.alloc_shared "warp_parts" (L.vector nwarps) Dt.FP32 in
  let parts2, al_p2 = B.alloc_shared "warp_parts2" (L.vector nwarps) Dt.FP32 in
  let x_vecs = B.vec_tile x vw in
  let y_vecs = B.vec_tile y vw in
  let rf_win buf i =
    Ts.reinterpret buf ~layout:(L.vector vw) ~elem:(Ts.Scalar (Ts.dtype buf))
      ~offset:(E.mul i (E.const vw))
  in
  let col_group i = E.add (E.mul i (E.const nthreads)) tid in
  let body =
    [ al_x; al_e; al_y; al_w; al_m; al_s; al_t; al_i; al_p; al_p2
    ; B.for_ ~unroll:true "v" (E.const nvec) (fun i ->
          [ B.move ~threads:thr
              ~src:(Ts.select x_vecs [ row; col_group i ])
              ~dst:(rf_win x_rf i) ()
          ])
      (* row maximum *)
    ; B.init ~threads:thr neg_huge ~dst:mx ()
    ; B.reduction ~threads:thr Op.Max ~axes:[ 0 ] ~src:x_rf ~dst:mx ()
    ]
    @ Block_reduce.block_reduce ~cta ~warp ~thr ~op:Op.Max ~value:mx ~tmp
        ~partials:parts ~identity:neg_huge
    @ [ (* e = exp(x - max), kept in fp32 registers *)
        B.binary ~threads:thr Op.Sub ~lhs:x_rf ~rhs:mx ~dst:e_rf ()
      ; B.unary ~threads:thr Op.Exp ~src:e_rf ~dst:e_rf ()
        (* row sum *)
      ; B.init ~threads:thr 0.0 ~dst:sum ()
      ; B.reduction ~threads:thr Op.Add ~axes:[ 0 ] ~src:e_rf ~dst:sum ()
      ]
    @ Block_reduce.block_reduce ~cta ~warp ~thr ~op:Op.Add ~value:sum ~tmp
        ~partials:parts2 ~identity:0.0
    @ [ B.unary ~label:"1/sum" ~threads:thr Op.Recip ~src:sum ~dst:inv ()
      ; B.for_ ~unroll:true "v" (E.const nvec) (fun i ->
            [ B.binary ~threads:thr Op.Mul ~lhs:(rf_win e_rf i) ~rhs:inv
                ~dst:w32 ()
            ; B.move ~label:"cvt+pack" ~threads:thr ~src:w32 ~dst:y_rf ()
            ; B.move ~threads:thr ~src:y_rf
                ~dst:(Ts.select y_vecs [ row; col_group i ])
                ()
            ])
      ]
  in
  let fused =
    B.generic "softmax" ~threads:cta ~ins:[ x ] ~outs:[ y ] body
  in
  B.kernel name ~grid ~cta ~params:[ x; y ] [ fused ]
