module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Op = Graphene.Op

let kernel ?(name = "gemm_layernorm_fused") ?(eps = 1e-5) arch ~m ~k ~width
    ~bm ~wm ~wn () =
  let bk = 32 in
  if m mod bm <> 0 || k mod bk <> 0 then
    invalid_arg "Gemm_layernorm: m must divide by bm and k by 32";
  let warps = bm / wm * (width / wn) in
  let nthreads = warps * 32 in
  if nthreads mod bm <> 0 then
    invalid_arg "Gemm_layernorm: thread count must divide by bm";
  let x = Ts.create_rm "X" [ m; k ] Dt.FP16 Ms.Global in
  let w = Ts.create_rm "W" [ k; width ] Dt.FP16 Ms.Global in
  let bias = Ts.create_rm "bias" [ width ] Dt.FP16 Ms.Global in
  let r = Ts.create_rm "R" [ m; width ] Dt.FP16 Ms.Global in
  let gamma = Ts.create_rm "gamma" [ width ] Dt.FP16 Ms.Global in
  let beta = Ts.create_rm "beta" [ width ] Dt.FP16 Ms.Global in
  let z = Ts.create_rm "Z" [ m; width ] Dt.FP16 Ms.Global in
  let grid = Tt.grid "grid" [ m / bm ] in
  let cta = Tt.linear "cta" nthreads Tt.Thread in
  let bid = B.block_idx in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let warp =
    Tt.select (Tt.tile cta [ L.tile_spec 32 ]) [ E.div tid (E.const 32) ]
  in
  let { Gemm.use_ldmatrix; use_cp_async; _ } = Gemm.default_config arch in
  let xs, al_xs = B.alloc_shared "Xs" (L.row_major [ bm; bk ]) Dt.FP16 in
  let ws, al_ws = B.alloc_shared "Ws" (L.row_major [ bk; width ]) Dt.FP16 in
  (* The projection result lives in shared memory in fp32 until it has been
     normalized — the fusion avoids any global round trip. *)
  let rows_s, al_rs = B.alloc_shared "Rows" (L.row_major [ bm; width ]) Dt.FP32 in
  let pipe = Tc_pipeline.create arch ~cta ~bm ~bn:width ~wm ~wn ~use_ldmatrix in
  let stg = Staging.create ~thr ~nthreads ~use_cp_async ~prefix:"g_" () in
  let main_loop =
    B.for_ "kk" (E.const (k / bk)) (fun kk ->
        Staging.step [ stg ]
          ~copies:
            [ Staging.copy stg ~src:x ~src_row0:(E.mul bid (E.const bm))
                ~src_col0:(E.mul kk (E.const bk)) ~dst:xs
            ; Staging.copy stg ~src:w ~src_row0:(E.mul kk (E.const bk))
                ~src_col0:E.zero ~dst:ws
            ]
          (Tc_pipeline.accumulate pipe
             ~a:
               (Tc_pipeline.A_m_major
                  { t = xs; row0 = E.zero; col0 = E.zero; ld = bk })
             ~b:
               (Tc_pipeline.B_k_major
                  { t = ws; row0 = E.zero; col0 = E.zero; ld = width })
             ~kc:bk))
  in
  (* Projection epilogue: acc + bias + residual -> fp32 shared rows. *)
  let out_w = Tc_pipeline.group_width pipe in
  let bias_groups = B.vec_tile bias out_w in
  let r_groups = B.vec_tile r out_w in
  let rows_groups = B.vec_tile rows_s out_w in
  let v32, al_v = B.alloc_regs "v32" (L.vector out_w) Dt.FP32 in
  let bias_rf, al_b = B.alloc_regs "bias_rf" (L.vector out_w) Dt.FP16 in
  let res_rf, al_r2 = B.alloc_regs "res_rf" (L.vector out_w) Dt.FP16 in
  let project =
    Tc_pipeline.foreach_out pipe (fun ~row ~col ~width:gw ~acc ->
        [ B.move ~label:"load bias" ~threads:thr
            ~src:(Ts.select bias_groups [ E.div col (E.const gw) ])
            ~dst:bias_rf ()
        ; B.move ~label:"load residual" ~threads:thr
            ~src:
              (Ts.select r_groups
                 [ E.add (E.mul bid (E.const bm)) row; E.div col (E.const gw) ])
            ~dst:res_rf ()
        ; B.binary ~threads:thr Op.Add ~lhs:acc ~rhs:bias_rf ~dst:v32 ()
        ; B.binary ~threads:thr Op.Add ~lhs:v32 ~rhs:res_rf ~dst:v32 ()
        ; B.move ~label:"stash row (SH, fp32)" ~threads:thr ~src:v32
            ~dst:(Ts.select rows_groups [ row; E.div col (E.const gw) ])
            ()
        ])
  in
  (* In-place layernorm over the shared rows. *)
  let tpr = nthreads / bm in
  let cpt = width / tpr in
  let row_t = E.div tid (E.const tpr) in
  let seg = E.rem tid (E.const tpr) in
  let seg_view =
    Ts.select (B.vec_tile rows_s cpt) [ row_t; seg ]
  in
  let gamma_seg = Ts.select (B.vec_tile gamma cpt) [ seg ] in
  let beta_seg = Ts.select (B.vec_tile beta cpt) [ seg ] in
  let sum, al_s = B.alloc_regs "sum" (L.vector 1) Dt.FP32 in
  let sumsq, al_sq = B.alloc_regs "sumsq" (L.vector 1) Dt.FP32 in
  let tmp, al_t = B.alloc_regs "tmp" (L.vector 1) Dt.FP32 in
  let mean, al_m = B.alloc_regs "mean" (L.vector 1) Dt.FP32 in
  let rstd, al_rt = B.alloc_regs "rstd" (L.vector 1) Dt.FP32 in
  let inv_n, al_in = B.alloc_regs "inv_n" (L.vector 1) Dt.FP32 in
  let eps_rf, al_e = B.alloc_regs "eps_rf" (L.vector 1) Dt.FP32 in
  let sq_rf, al_sqr = B.alloc_regs "sq_rf" (L.vector cpt) Dt.FP32 in
  let y32, al_y32 = B.alloc_regs "y32" (L.vector cpt) Dt.FP32 in
  let y16, al_y16 = B.alloc_regs "y16" (L.vector 8) Dt.FP16 in
  let z_vecs = B.vec_tile z 8 in
  let y32_win i =
    Ts.reinterpret y32 ~layout:(L.vector 8) ~elem:(Ts.Scalar Dt.FP32)
      ~offset:(E.mul i (E.const 8))
  in
  let normalize =
    [ B.init ~threads:thr (1.0 /. float_of_int width) ~dst:inv_n ()
    ; B.init ~threads:thr eps ~dst:eps_rf ()
    ; B.init ~threads:thr 0.0 ~dst:sum ()
    ; B.reduction ~label:"row sum" ~threads:thr Op.Add ~axes:[ 1 ]
        ~src:seg_view ~dst:sum ()
    ]
    @ Block_reduce.warp_reduce ~warp ~op:Op.Add ~value:sum ~tmp ~width:tpr
    @ [ B.binary ~threads:thr Op.Mul ~lhs:seg_view ~rhs:seg_view ~dst:sq_rf ()
      ; B.init ~threads:thr 0.0 ~dst:sumsq ()
      ; B.reduction ~label:"row sum of squares" ~threads:thr Op.Add ~axes:[ 1 ]
          ~src:sq_rf ~dst:sumsq ()
      ]
    @ Block_reduce.warp_reduce ~warp ~op:Op.Add ~value:sumsq ~tmp ~width:tpr
    @ [ B.binary ~label:"mean" ~threads:thr Op.Mul ~lhs:sum ~rhs:inv_n ~dst:mean ()
      ; B.binary ~threads:thr Op.Mul ~lhs:sumsq ~rhs:inv_n ~dst:rstd ()
      ; B.binary ~threads:thr Op.Mul ~lhs:mean ~rhs:mean ~dst:tmp ()
      ; B.binary ~threads:thr Op.Sub ~lhs:rstd ~rhs:tmp ~dst:rstd ()
      ; B.binary ~threads:thr Op.Add ~lhs:rstd ~rhs:eps_rf ~dst:rstd ()
      ; B.unary ~threads:thr Op.Rsqrt ~src:rstd ~dst:rstd ()
      ; B.binary ~label:"x - mean" ~threads:thr Op.Sub ~lhs:seg_view ~rhs:mean
          ~dst:y32 ()
      ; B.binary ~threads:thr Op.Mul ~lhs:y32 ~rhs:rstd ~dst:y32 ()
      ; B.binary ~label:"scale by gamma (GL operand)" ~threads:thr Op.Mul
          ~lhs:y32 ~rhs:gamma_seg ~dst:y32 ()
      ; B.binary ~threads:thr Op.Add ~lhs:y32 ~rhs:beta_seg ~dst:y32 ()
      ; B.for_ ~unroll:true "v" (E.const (cpt / 8)) (fun i ->
            [ B.move ~label:"cvt+pack" ~threads:thr ~src:(y32_win i) ~dst:y16 ()
            ; B.move ~label:"store Z" ~threads:thr ~src:y16
                ~dst:
                  (Ts.select z_vecs
                     [ E.add (E.mul bid (E.const bm)) row_t
                     ; E.add
                         (E.div (E.mul seg (E.const cpt)) (E.const 8))
                         i
                     ])
                ()
            ])
      ]
  in
  let body =
    [ al_xs; al_ws; al_rs; al_v; al_b; al_r2; al_s; al_sq; al_t; al_m; al_rt
    ; al_in; al_e; al_sqr; al_y32; al_y16
    ]
    @ Tc_pipeline.allocs pipe @ Staging.allocs stg
    @ Tc_pipeline.init_acc pipe
    @ [ main_loop ]
    @ project
    @ [ B.sync ]
    @ normalize
  in
  let fused =
    B.generic "fused_gemm_layernorm" ~threads:cta
      ~ins:[ x; w; bias; r; gamma; beta ] ~outs:[ z ] body
  in
  B.kernel name ~grid ~cta ~params:[ x; w; bias; r; gamma; beta; z ] [ fused ]
