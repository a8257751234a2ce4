(* The CLI's kernel presets: each kernel family at a size the simulator
   executes in well under a second, with seeded inputs and a CPU
   reference check. *)

module Arch = Graphene.Arch
module Ref = Reference.Cpu_ref

let names =
  [ "gemm-naive"; "gemm-tc"; "gemm-bias-relu"; "mlp"; "lstm"; "layernorm"
  ; "softmax"; "fmha"; "ldmatrix"
  ]

let build arch name =
  let mk_gemm kernel ~m ~n ~k ~bias ~act =
    let a = Ref.random_fp16 ~seed:1 (m * k) in
    let b = Ref.random_fp16 ~seed:2 (k * n) in
    let bias_v = Ref.random_fp16 ~seed:3 n in
    let c = Array.make (m * n) 0.0 in
    let args =
      [ ("A", a); ("B", b); ("C", c) ] @ if bias then [ ("bias", bias_v) ] else []
    in
    let verify () =
      let c_ref = Array.make (m * n) 0.0 in
      Ref.gemm ~m ~n ~k a b c_ref;
      if bias then Ref.bias_add ~rows:m ~cols:n c_ref bias_v;
      if act then Ref.relu c_ref;
      Ref.allclose c c_ref
    in
    (kernel, args, verify)
  in
  match name with
  | "gemm-naive" ->
    mk_gemm
      (Kernels.Gemm.naive ~m:32 ~n:32 ~k:16 ~bm:16 ~bn:16 ~tm:4 ~tn:4 ())
      ~m:32 ~n:32 ~k:16 ~bias:false ~act:false
  | "gemm-tc" ->
    let cfg = Kernels.Gemm.test_config arch in
    (* k = 4 tiles of bk, so the staging loop is deep enough for the
       swpipe pass to pipeline (--stages). *)
    let m, n, k = (64, 64, 128) in
    let m = if arch = Arch.SM70 then 32 else m in
    let n = if arch = Arch.SM70 then 32 else n in
    mk_gemm
      (Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.none ~m ~n
         ~k ())
      ~m ~n ~k ~bias:false ~act:false
  | "gemm-bias-relu" ->
    let cfg = Kernels.Gemm.test_config arch in
    let m, n, k =
      if arch = Arch.SM70 then (32, 32, 16) else (64, 64, 32)
    in
    mk_gemm
      (Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.bias_relu
         ~m ~n ~k ())
      ~m ~n ~k ~bias:true ~act:true
  | "mlp" ->
    let m = 64 and width = 64 and layers = 3 in
    let wm, wn = if arch = Arch.SM70 then (32, 32) else (32, 32) in
    let kernel = Kernels.Mlp.kernel arch ~m ~width ~layers ~bm:64 ~wm ~wn () in
    let x = Ref.random_fp16 ~seed:1 (m * width) in
    let w =
      Array.map (fun v -> v /. 8.0)
        (Ref.random_fp16 ~seed:2 (layers * width * width))
    in
    let biases = Ref.random_fp16 ~seed:3 (layers * width) in
    let y = Array.make (m * width) 0.0 in
    let verify () =
      Ref.allclose ~rtol:5e-2 ~atol:2e-2 y
        (Ref.mlp ~m ~width ~layers x w biases)
    in
    (kernel, [ ("X", x); ("W", w); ("biases", biases); ("Y", y) ], verify)
  | "lstm" ->
    let m, n, k = if arch = Arch.SM70 then (32, 32, 32) else (64, 64, 64) in
    let cfg = Kernels.Gemm.test_config arch in
    let kernel = Kernels.Lstm.kernel arch cfg ~m ~n ~k () in
    let x1 = Ref.random_fp16 ~seed:1 (m * k) in
    let w1 = Ref.random_fp16 ~seed:2 (k * n) in
    let x2 = Ref.random_fp16 ~seed:3 (m * k) in
    let w2 = Ref.random_fp16 ~seed:4 (k * n) in
    let bias = Ref.random_fp16 ~seed:5 n in
    let z = Array.make (m * n) 0.0 in
    let verify () = Ref.allclose z (Ref.lstm ~m ~n ~k x1 w1 x2 w2 bias) in
    ( kernel,
      [ ("X1", x1); ("W1", w1); ("X2", x2); ("W2", w2); ("bias", bias); ("Z", z) ],
      verify )
  | "layernorm" ->
    let rows = 4 and cols = 512 and nthreads = 64 in
    let kernel = Kernels.Layernorm.kernel ~rows ~cols ~nthreads () in
    let x = Ref.random_fp16 ~seed:1 (rows * cols) in
    let gamma = Ref.random_fp16 ~seed:2 cols in
    let beta = Ref.random_fp16 ~seed:3 cols in
    let y = Array.make (rows * cols) 0.0 in
    let verify () =
      let r = Array.copy x in
      Ref.layernorm ~rows ~cols ~gamma ~beta r;
      Ref.allclose ~rtol:3e-2 ~atol:2e-2 y r
    in
    (kernel, [ ("X", x); ("gamma", gamma); ("beta", beta); ("Y", y) ], verify)
  | "softmax" ->
    let rows = 4 and cols = 256 and nthreads = 64 in
    let kernel = Kernels.Softmax.kernel ~rows ~cols ~nthreads () in
    let x = Ref.random_fp16 ~seed:1 (rows * cols) in
    let y = Array.make (rows * cols) 0.0 in
    let verify () =
      let r = Array.copy x in
      Ref.softmax_rows ~rows ~cols r;
      Ref.allclose ~rtol:3e-2 ~atol:5e-3 y r
    in
    (kernel, [ ("X", x); ("Y", y) ], verify)
  | "fmha" ->
    (* Volta's quad-pair mma tiles need dh and chunk 32, with unswizzled
       staging. *)
    let dh, chunk, swizzle_smem =
      match arch with
      | Arch.SM70 -> (32, 32, false)
      | Arch.SM86 -> (16, 16, true)
    in
    let batch = 1 and heads = 1 and seq = 32 in
    let kernel =
      Kernels.Fmha.kernel ~swizzle_smem arch ~batch ~heads ~seq ~dh ~chunk
        ~nthreads:64 ()
    in
    let rows = batch * heads * seq in
    let q = Ref.random_fp16 ~seed:1 (rows * dh) in
    let k = Ref.random_fp16 ~seed:2 (rows * dh) in
    let v = Ref.random_fp16 ~seed:3 (rows * dh) in
    let o = Array.make (rows * dh) 0.0 in
    let verify () =
      Ref.allclose ~rtol:4e-2 ~atol:2e-2 o
        (Ref.attention ~batch ~heads ~seq ~dh q k v)
    in
    (kernel, [ ("Q", q); ("K", k); ("V", v); ("O", o) ], verify)
  | "ldmatrix" ->
    let kernel = Kernels.Ldmatrix_demo.kernel () in
    let input = Ref.random_fp16 ~seed:1 256 in
    let out = Array.make (32 * 8) 0.0 in
    let verify () =
      let ok = ref true in
      for lane = 0 to 31 do
        for reg = 0 to 7 do
          if
            out.((lane * 8) + reg)
            <> Kernels.Ldmatrix_demo.expected ~input ~lane ~reg
          then ok := false
        done
      done;
      !ok
    in
    (kernel, [ ("In", input); ("Out", out) ], verify)
  | other -> invalid_arg ("Presets.build: unknown kernel " ^ other)
