module E = Shape.Int_expr
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Op = Graphene.Op

let kernel ?(name = "lstm_cell_fused") ?(act = Op.Relu) arch
    (cfg : Gemm.config) ~m ~n ~k () =
  let { Gemm.bm; bn; bk; _ } = cfg in
  if m mod bm <> 0 || n mod bn <> 0 || k mod bk <> 0 then
    invalid_arg "Lstm: sizes must divide by tile config";
  let x1 = Ts.create_rm "X1" [ m; k ] Dt.FP16 Ms.Global in
  let x2 = Ts.create_rm "X2" [ m; k ] Dt.FP16 Ms.Global in
  let w1 = Ts.create_rm "W1" [ k; n ] Dt.FP16 Ms.Global in
  let w2 = Ts.create_rm "W2" [ k; n ] Dt.FP16 Ms.Global in
  let bias = Ts.create_rm "bias" [ n ] Dt.FP16 Ms.Global in
  let z = Ts.create_rm "Z" [ m; n ] Dt.FP16 Ms.Global in
  let grid = Tt.grid "grid" [ m / bm; n / bn ] in
  let bid_m, bid_n =
    match B.block_coords grid with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  let blk = Gemm.block arch cfg in
  (* One K sweep accumulating [x @ w] into the shared accumulators; called
     for both GEMMs — the whole point of the fusion. *)
  let sweep x w =
    Gemm.k_loop blk ~a:x ~b:w ~m0:(E.mul bid_m (E.const bm))
      ~n0:(E.mul bid_n (E.const bn)) ~k
  in
  let epi_allocs, store =
    Gemm.epilogue_stores ~thr:blk.Gemm.thr ~pipe:blk.Gemm.pipe
      ~epilogue:{ Epilogue.bias = true; act = Some act }
      ~c:z ~bias
      ~grow:(fun row -> E.add (E.mul bid_m (E.const bm)) row)
      ~gcol:(fun col -> E.add (E.mul bid_n (E.const bn)) col)
  in
  let body =
    Gemm.block_body blk ~allocs:epi_allocs
      [ B.comment "first GEMM: X1 @ W1"; sweep x1 w1
      ; B.comment "second GEMM accumulates on top: + X2 @ W2"; sweep x2 w2
      ]
    @ store
  in
  let fused =
    B.generic "fused_lstm_cell" ~threads:blk.Gemm.cta
      ~ins:[ x1; w1; x2; w2; bias ] ~outs:[ z ] body
  in
  B.kernel name ~grid ~cta:blk.Gemm.cta ~params:[ x1; w1; x2; w2; bias; z ]
    [ fused ]
