module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Op = Graphene.Op

let kernel ?(name = "mlp_fused") ?(act = Op.Relu) arch ~m ~width ~layers ~bm
    ~wm ~wn () =
  if m mod bm <> 0 then invalid_arg "Mlp: m must divide by bm";
  let warps = bm / wm * (width / wn) in
  let nthreads = warps * 32 in
  let x = Ts.create_rm "X" [ m; width ] Dt.FP16 Ms.Global in
  let w = Ts.create_rm "W" [ layers * width; width ] Dt.FP16 Ms.Global in
  let biases = Ts.create_rm "biases" [ layers * width ] Dt.FP16 Ms.Global in
  let y = Ts.create_rm "Y" [ m; width ] Dt.FP16 Ms.Global in
  let grid = Tt.grid "grid" [ m / bm ] in
  let cta = Tt.linear "cta" nthreads Tt.Thread in
  let bid = B.block_idx in
  let thr = Tt.select cta [ B.thread_idx ] in
  let { Gemm.use_ldmatrix; use_cp_async; _ } = Gemm.default_config arch in
  (* Ping-pong activation buffers and the staged weight tile. *)
  let act_a, al_aa = B.alloc_shared "act_a" (L.row_major [ bm; width ]) Dt.FP16 in
  let act_b, al_ab = B.alloc_shared "act_b" (L.row_major [ bm; width ]) Dt.FP16 in
  let ws, al_ws = B.alloc_shared "Ws" (L.row_major [ width; width ]) Dt.FP16 in
  let pipe =
    Tc_pipeline.create arch ~cta ~bm ~bn:width ~wm ~wn ~use_ldmatrix
  in
  let stg = Staging.create ~thr ~nthreads ~use_cp_async ~prefix:"x_" () in
  let out_w = Tc_pipeline.group_width pipe in
  let c_out, al_co = B.alloc_regs "c_out" (L.vector out_w) Dt.FP16 in
  let bias_rf, al_bi = B.alloc_regs "bias_rf" (L.vector out_w) Dt.FP16 in
  let bias_groups = B.vec_tile biases out_w in
  let y_groups = B.vec_tile y out_w in
  (* One layer: acc = act_in @ W_l; act_out = act(acc + bias_l). *)
  let layer l ~act_in ~act_out =
    let act_out_groups =
      Option.map
        (fun t -> B.vec_tile t out_w)
        act_out
    in
    Staging.step [ stg ]
      ~copies:
        [ Staging.copy stg ~src:w ~src_row0:(E.const (l * width))
            ~src_col0:E.zero ~dst:ws
        ]
      (Tc_pipeline.init_acc pipe
      @ Tc_pipeline.accumulate pipe
          ~a:
            (Tc_pipeline.A_m_major
               { t = act_in; row0 = E.zero; col0 = E.zero; ld = width })
          ~b:
            (Tc_pipeline.B_k_major
               { t = ws; row0 = E.zero; col0 = E.zero; ld = width })
          ~kc:width)
    @ Tc_pipeline.foreach_out pipe (fun ~row ~col ~width:gw ~acc ->
          [ B.move ~label:"cvt f32->f16" ~threads:thr ~src:acc ~dst:c_out ()
          ; B.move ~label:"load bias" ~threads:thr
              ~src:
                (Ts.select bias_groups
                   [ E.div (E.add (E.const (l * width)) col) (E.const gw) ])
              ~dst:bias_rf ()
          ; B.binary ~threads:thr Op.Add ~lhs:c_out ~rhs:bias_rf ~dst:c_out ()
          ; B.unary ~threads:thr act ~src:c_out ~dst:c_out ()
          ; (match act_out_groups with
            | Some groups ->
              B.move ~label:"store activation (SH)" ~threads:thr ~src:c_out
                ~dst:(Ts.select groups [ row; E.div col (E.const gw) ])
                ()
            | None ->
              B.move ~label:"store Y" ~threads:thr ~src:c_out
                ~dst:
                  (Ts.select y_groups
                     [ E.add (E.mul bid (E.const bm)) row
                     ; E.div col (E.const gw)
                     ])
                ())
          ])
    @ [ B.sync ]
  in
  let layer_stmts =
    List.concat
      (List.init layers (fun l ->
           let act_in = if l mod 2 = 0 then act_a else act_b in
           let act_out =
             if l = layers - 1 then None
             else Some (if l mod 2 = 0 then act_b else act_a)
           in
           layer l ~act_in ~act_out))
  in
  let body =
    [ al_aa; al_ab; al_ws; al_co; al_bi ]
    @ Tc_pipeline.allocs pipe @ Staging.allocs stg
    @ [ Staging.copy stg ~src:x ~src_row0:(E.mul bid (E.const bm))
          ~src_col0:E.zero ~dst:act_a
      ]
    @ Staging.fence [ stg ]
    @ layer_stmts
  in
  let fused =
    B.generic "fused_mlp" ~threads:cta ~ins:[ x; w; biases ] ~outs:[ y ] body
  in
  B.kernel name ~grid ~cta ~params:[ x; w; biases; y ] [ fused ]
