module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Op = Graphene.Op

let kernel ?(name = "layernorm") ?(eps = 1e-5) ~rows ~cols ~nthreads () =
  if cols mod nthreads <> 0 then
    invalid_arg "Layernorm: cols must be divisible by nthreads";
  let npt = cols / nthreads in
  let vw = if npt mod 8 = 0 then 8 else 1 in
  let nvec = npt / vw in
  let nwarps = nthreads / 32 in
  let x = Ts.create_rm "X" [ rows; cols ] Dt.FP16 Ms.Global in
  let gamma = Ts.create_rm "gamma" [ cols ] Dt.FP16 Ms.Global in
  let beta = Ts.create_rm "beta" [ cols ] Dt.FP16 Ms.Global in
  let y = Ts.create_rm "Y" [ rows; cols ] Dt.FP16 Ms.Global in
  let grid = Tt.grid "grid" [ rows ] in
  let cta = Tt.linear "cta" nthreads Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let warp =
    Tt.select (Tt.tile cta [ L.tile_spec 32 ]) [ E.div tid (E.const 32) ]
  in
  let row = B.block_idx in
  (* Register working set. *)
  let x_rf, al_x = B.alloc_regs "x_rf" (L.vector npt) Dt.FP16 in
  let w32, al_w = B.alloc_regs "w32" (L.vector vw) Dt.FP32 in
  let g_rf, al_g = B.alloc_regs "g_rf" (L.vector vw) Dt.FP16 in
  let b_rf, al_b = B.alloc_regs "b_rf" (L.vector vw) Dt.FP16 in
  let y_rf, al_y = B.alloc_regs "y_rf" (L.vector vw) Dt.FP16 in
  let sum, al_s = B.alloc_regs "sum" (L.vector 1) Dt.FP32 in
  let sumsq, al_sq = B.alloc_regs "sumsq" (L.vector 1) Dt.FP32 in
  let tmp, al_t = B.alloc_regs "tmp" (L.vector 1) Dt.FP32 in
  let sq, al_sq2 = B.alloc_regs "sq" (L.vector npt) Dt.FP32 in
  let mean, al_m = B.alloc_regs "mean" (L.vector 1) Dt.FP32 in
  let rstd, al_r = B.alloc_regs "rstd" (L.vector 1) Dt.FP32 in
  let inv_n, al_in = B.alloc_regs "inv_n" (L.vector 1) Dt.FP32 in
  let eps_rf, al_e = B.alloc_regs "eps_rf" (L.vector 1) Dt.FP32 in
  let parts, al_p = B.alloc_shared "warp_parts" (L.vector nwarps) Dt.FP32 in
  let parts2, al_p2 = B.alloc_shared "warp_parts2" (L.vector nwarps) Dt.FP32 in
  (* Views. *)
  let x_vecs = B.vec_tile x vw in
  let y_vecs = B.vec_tile y vw in
  let gamma_vecs = B.vec_tile gamma vw in
  let beta_vecs = B.vec_tile beta vw in
  let rf_win buf i =
    Ts.reinterpret buf ~layout:(L.vector vw) ~elem:(Ts.Scalar (Ts.dtype buf))
      ~offset:(E.mul i (E.const vw))
  in
  (* Coalesced column group of this thread's i-th vector. *)
  let col_group i = E.add (E.mul i (E.const nthreads)) tid in
  let load_row =
    B.for_ ~unroll:true "v" (E.const nvec) (fun i ->
        [ B.move ~threads:thr
            ~src:(Ts.select x_vecs [ row; col_group i ])
            ~dst:(rf_win x_rf i) ()
        ])
  in
  let reduce_into ~value ~partials src =
    [ B.init ~threads:thr 0.0 ~dst:value ()
    ; B.reduction ~threads:thr Op.Add ~axes:[ 0 ] ~src ~dst:value ()
    ]
    @ Block_reduce.block_reduce ~cta ~warp ~thr ~op:Op.Add ~value ~tmp
        ~partials ~identity:0.0
  in
  let stats =
    (* mean = sum / n; var = sumsq / n - mean^2; rstd = rsqrt(var + eps) *)
    [ B.binary ~label:"mean" ~threads:thr Op.Mul ~lhs:sum ~rhs:inv_n ~dst:mean ()
    ; B.binary ~threads:thr Op.Mul ~lhs:sumsq ~rhs:inv_n ~dst:rstd ()
    ; B.binary ~threads:thr Op.Mul ~lhs:mean ~rhs:mean ~dst:tmp ()
    ; B.binary ~threads:thr Op.Sub ~lhs:rstd ~rhs:tmp ~dst:rstd ()
    ; B.binary ~threads:thr Op.Add ~lhs:rstd ~rhs:eps_rf ~dst:rstd ()
    ; B.unary ~label:"rsqrt" ~threads:thr Op.Rsqrt ~src:rstd ~dst:rstd ()
    ]
  in
  let normalize =
    B.for_ ~unroll:true "v" (E.const nvec) (fun i ->
        [ B.binary ~label:"x - mean" ~threads:thr Op.Sub ~lhs:(rf_win x_rf i)
            ~rhs:mean ~dst:w32 ()
        ; B.binary ~threads:thr Op.Mul ~lhs:w32 ~rhs:rstd ~dst:w32 ()
        ; B.move ~threads:thr
            ~src:(Ts.select gamma_vecs [ col_group i ])
            ~dst:g_rf ()
        ; B.binary ~threads:thr Op.Mul ~lhs:w32 ~rhs:g_rf ~dst:w32 ()
        ; B.move ~threads:thr
            ~src:(Ts.select beta_vecs [ col_group i ])
            ~dst:b_rf ()
        ; B.binary ~threads:thr Op.Add ~lhs:w32 ~rhs:b_rf ~dst:w32 ()
        ; B.move ~label:"cvt+pack" ~threads:thr ~src:w32 ~dst:y_rf ()
        ; B.move ~label:"store row" ~threads:thr ~src:y_rf
            ~dst:(Ts.select y_vecs [ row; col_group i ])
            ()
        ])
  in
  let body =
    [ al_x; al_w; al_g; al_b; al_y; al_s; al_sq; al_t; al_sq2; al_m; al_r
    ; al_in; al_e; al_p; al_p2
    ; B.init ~threads:thr (1.0 /. float_of_int cols) ~dst:inv_n ()
    ; B.init ~threads:thr eps ~dst:eps_rf ()
    ; load_row
    ]
    @ reduce_into ~value:sum ~partials:parts x_rf
    @ [ B.binary ~label:"x^2" ~threads:thr Op.Mul ~lhs:x_rf ~rhs:x_rf ~dst:sq () ]
    @ reduce_into ~value:sumsq ~partials:parts2 sq
    @ stats
    @ [ normalize ]
  in
  let fused =
    B.generic "fused_layernorm" ~threads:cta ~ins:[ x; gamma; beta ]
      ~outs:[ y ] body
  in
  B.kernel name ~grid ~cta ~params:[ x; gamma; beta; y ] [ fused ]
