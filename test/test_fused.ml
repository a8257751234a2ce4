(* End-to-end tests for the fused kernels of the paper's evaluation:
   multi-layer MLP (Fig. 11), the LSTM cell (Fig. 12), and fused
   multi-head attention (Fig. 14). *)

module Arch = Graphene.Arch
module Validate = Graphene.Validate
module Ref = Reference.Cpu_ref
module Interp = Gpu_sim.Interp

let check_bool = Alcotest.(check bool)

let validated arch kernel =
  match Validate.check arch kernel with
  | [] -> kernel
  | problems -> Alcotest.failf "ill-formed kernel:\n%s" (String.concat "\n" problems)

(* ----- MLP ----- *)

let run_mlp ~arch ~m ~width ~layers ~bm ~wm ~wn () =
  let kernel =
    validated arch
      (Kernels.Mlp.kernel arch ~m ~width ~layers ~bm ~wm ~wn ())
  in
  let x = Ref.random_fp16 ~seed:31 (m * width) in
  let w = Ref.random_fp16 ~seed:32 (layers * width * width) in
  (* Keep activations in fp16 range through many layers. *)
  let w = Array.map (fun v -> v /. 8.0) w in
  let biases = Ref.random_fp16 ~seed:33 (layers * width) in
  let y = Array.make (m * width) 0.0 in
  let _ =
    Interp.run ~arch kernel
      ~args:[ ("X", x); ("W", w); ("biases", biases); ("Y", y) ]
      ()
  in
  (y, Ref.mlp ~m ~width ~layers x w biases)

let test_mlp_single_layer () =
  let y, y_ref = run_mlp ~arch:Arch.SM86 ~m:64 ~width:64 ~layers:1 ~bm:64 ~wm:32 ~wn:32 () in
  check_bool "matches reference" true (Ref.allclose y y_ref)

let test_mlp_three_layers () =
  let y, y_ref = run_mlp ~arch:Arch.SM86 ~m:64 ~width:64 ~layers:3 ~bm:64 ~wm:32 ~wn:32 () in
  check_bool "matches reference" true (Ref.allclose ~rtol:5e-2 ~atol:2e-2 y y_ref)

let test_mlp_multi_block () =
  let y, y_ref = run_mlp ~arch:Arch.SM86 ~m:128 ~width:64 ~layers:2 ~bm:64 ~wm:32 ~wn:32 () in
  check_bool "matches reference" true (Ref.allclose ~rtol:5e-2 ~atol:2e-2 y y_ref)

let test_mlp_sm70 () =
  let y, y_ref = run_mlp ~arch:Arch.SM70 ~m:32 ~width:32 ~layers:2 ~bm:32 ~wm:16 ~wn:16 () in
  check_bool "matches reference" true (Ref.allclose ~rtol:5e-2 ~atol:2e-2 y y_ref)

(* ----- LSTM cell ----- *)

let run_lstm ~arch ~m ~n ~k () =
  let cfg = Kernels.Gemm.test_config arch in
  let kernel = validated arch (Kernels.Lstm.kernel arch cfg ~m ~n ~k ()) in
  let x1 = Ref.random_fp16 ~seed:41 (m * k) in
  let w1 = Ref.random_fp16 ~seed:42 (k * n) in
  let x2 = Ref.random_fp16 ~seed:43 (m * k) in
  let w2 = Ref.random_fp16 ~seed:44 (k * n) in
  let bias = Ref.random_fp16 ~seed:45 n in
  let z = Array.make (m * n) 0.0 in
  let _ =
    Interp.run ~arch kernel
      ~args:
        [ ("X1", x1); ("W1", w1); ("X2", x2); ("W2", w2); ("bias", bias)
        ; ("Z", z)
        ]
      ()
  in
  (z, Ref.lstm ~m ~n ~k x1 w1 x2 w2 bias)

let test_lstm_sm86 () =
  let z, z_ref = run_lstm ~arch:Arch.SM86 ~m:64 ~n:64 ~k:64 () in
  check_bool "matches reference" true (Ref.allclose z z_ref)

let test_lstm_sm70 () =
  let z, z_ref = run_lstm ~arch:Arch.SM70 ~m:32 ~n:32 ~k:32 () in
  check_bool "matches reference" true (Ref.allclose z z_ref)

(* ----- FMHA ----- *)

let run_fmha ~batch ~heads ~seq ~dh ~chunk ~nthreads ?(swizzle = true) () =
  let arch = Arch.SM86 in
  let kernel =
    validated arch
      (Kernels.Fmha.kernel ~swizzle_smem:swizzle arch ~batch ~heads ~seq ~dh
         ~chunk ~nthreads ())
  in
  let rows = batch * heads * seq in
  let q = Ref.random_fp16 ~seed:51 (rows * dh) in
  let k = Ref.random_fp16 ~seed:52 (rows * dh) in
  let v = Ref.random_fp16 ~seed:53 (rows * dh) in
  let o = Array.make (rows * dh) 0.0 in
  let counters =
    Interp.run ~arch kernel
      ~args:[ ("Q", q); ("K", k); ("V", v); ("O", o) ]
      ()
  in
  (o, Ref.attention ~batch ~heads ~seq ~dh q k v, counters)

let test_fmha_tiny () =
  let o, o_ref, _ = run_fmha ~batch:1 ~heads:1 ~seq:32 ~dh:16 ~chunk:16 ~nthreads:64 () in
  check_bool "matches reference" true (Ref.allclose ~rtol:4e-2 ~atol:2e-2 o o_ref)

let test_fmha_two_heads () =
  let o, o_ref, _ = run_fmha ~batch:1 ~heads:2 ~seq:32 ~dh:16 ~chunk:16 ~nthreads:64 () in
  check_bool "matches reference" true (Ref.allclose ~rtol:4e-2 ~atol:2e-2 o o_ref)

let test_fmha_longer_seq () =
  let o, o_ref, _ = run_fmha ~batch:1 ~heads:1 ~seq:64 ~dh:32 ~chunk:16 ~nthreads:64 () in
  check_bool "matches reference" true (Ref.allclose ~rtol:4e-2 ~atol:2e-2 o o_ref)

let test_fmha_sm70 () =
  (* Volta: per-lane fragment staging, quad-pair mma, no cp.async. *)
  let arch = Arch.SM70 in
  let batch = 1 and heads = 1 and seq = 32 and dh = 32 in
  let kernel =
    validated arch
      (Kernels.Fmha.kernel ~swizzle_smem:false arch ~batch ~heads ~seq ~dh
         ~chunk:32 ~nthreads:64 ())
  in
  let rows = batch * heads * seq in
  let q = Ref.random_fp16 ~seed:54 (rows * dh) in
  let k = Ref.random_fp16 ~seed:55 (rows * dh) in
  let v = Ref.random_fp16 ~seed:56 (rows * dh) in
  let o = Array.make (rows * dh) 0.0 in
  let _ =
    Interp.run ~arch kernel ~args:[ ("Q", q); ("K", k); ("V", v); ("O", o) ] ()
  in
  let o_ref = Ref.attention ~batch ~heads ~seq ~dh q k v in
  check_bool "matches reference" true
    (Ref.allclose ~rtol:4e-2 ~atol:2e-2 o o_ref)

let test_fmha_causal () =
  let batch = 1 and heads = 1 and seq = 32 and dh = 16 in
  let kernel =
    Kernels.Fmha.kernel ~causal:true Arch.SM86 ~batch ~heads ~seq ~dh
      ~chunk:16 ~nthreads:64 ()
  in
  let rows = seq in
  let q = Ref.random_fp16 ~seed:57 (rows * dh) in
  let k = Ref.random_fp16 ~seed:58 (rows * dh) in
  let v = Ref.random_fp16 ~seed:59 (rows * dh) in
  let o = Array.make (rows * dh) 0.0 in
  let _ =
    Interp.run ~arch:Arch.SM86 kernel
      ~args:[ ("Q", q); ("K", k); ("V", v); ("O", o) ]
      ()
  in
  let o_ref = Ref.attention ~causal:true ~batch ~heads ~seq ~dh q k v in
  check_bool "matches causal reference" true
    (Ref.allclose ~rtol:4e-2 ~atol:2e-2 o o_ref);
  (* Row 0 attends only to itself: O[0] must equal V[0] (up to fp16). *)
  let head = Array.sub o 0 dh and v0 = Array.sub v 0 dh in
  check_bool "first row = V[0]" true (Ref.allclose ~rtol:2e-2 ~atol:1e-2 head v0)

let test_fmha_swizzle_ablation () =
  let o1, _, c1 = run_fmha ~batch:1 ~heads:1 ~seq:64 ~dh:32 ~chunk:16 ~nthreads:64 ~swizzle:true () in
  let o2, _, c2 = run_fmha ~batch:1 ~heads:1 ~seq:64 ~dh:32 ~chunk:16 ~nthreads:64 ~swizzle:false () in
  check_bool "same results" true (Ref.allclose o1 o2);
  check_bool "swizzle reduces bank conflicts" true
    (c1.Gpu_sim.Counters.shared_bank_conflicts
    <= c2.Gpu_sim.Counters.shared_bank_conflicts)

(* [Fmha.supports arch] holds exactly where [Fmha.kernel arch] builds,
   on three grids, both archs and both swizzle settings. The first
   reaches the tensor-core rule on sm70 (16-wide quad-pair warp tiles)
   and on sm86 (chunk 8 is half an m16n8k16 k step), FMHA's own
   divisibility rules and zero sizes; the second, CTAs whose width is
   not a power of two (cooperative staging, the softmax's warp
   reduction) or not whole warps; the third, CTAs of 512 and 1024
   threads. *)
let test_fmha_supports () =
  let check_grid seqs dhs chunks nthreadss =
    List.iter
      (fun (arch, seq, dh, chunk, nthreads) ->
        let builds swizzle_smem =
          match
            Kernels.Fmha.kernel ~swizzle_smem arch ~batch:1 ~heads:1 ~seq ~dh
              ~chunk ~nthreads ()
          with
          | _ -> true
          | exception Invalid_argument _ -> false
        in
        let supported = Kernels.Fmha.supports arch ~seq ~dh ~chunk ~nthreads in
        let label =
          Printf.sprintf "%s seq %d dh %d chunk %d nthreads %d"
            (Arch.name arch) seq dh chunk nthreads
        in
        check_bool (label ^ " swizzled") (builds true) supported;
        check_bool (label ^ " unswizzled") (builds false) supported)
      (List.concat_map
         (fun arch ->
           List.concat_map
             (fun seq ->
               List.concat_map
                 (fun dh ->
                   List.concat_map
                     (fun chunk ->
                       List.map
                         (fun nthreads -> (arch, seq, dh, chunk, nthreads))
                         nthreadss)
                     chunks)
                 dhs)
             seqs)
         [ Arch.SM70; Arch.SM86 ])
  in
  check_grid [ 0; 8; 16; 32; 64; 128; 256 ] [ 0; 16; 32; 64; 128 ]
    [ 8; 16; 32; 64 ] [ 32; 64; 128; 256 ];
  check_grid [ 48; 96; 144; 240; 480 ] [ 48; 96; 144; 240 ]
    [ 24; 48; 96; 120 ] [ 48; 96; 160; 192; 224 ];
  check_grid [ 256; 512; 1024 ] [ 128; 256; 512 ] [ 128; 256; 512 ]
    [ 512; 1024 ]

(* ----- custom fusion beyond the paper: GEMM + bias + residual + LN ----- *)

let gemm_ln_ref ~m ~k ~width x w bias r gamma beta =
  let z = Array.make (m * width) 0.0 in
  Ref.gemm ~m ~n:width ~k x w z;
  Ref.bias_add ~rows:m ~cols:width z bias;
  Ref.add_into ~dst:z r;
  Ref.layernorm ~rows:m ~cols:width ~gamma ~beta z;
  z

let run_gemm_ln ~arch ~m ~k ~width ~bm ~wm ~wn () =
  let kernel =
    validated arch
      (Kernels.Gemm_layernorm.kernel arch ~m ~k ~width ~bm ~wm ~wn ())
  in
  let x = Ref.random_fp16 ~seed:61 (m * k) in
  let w =
    Array.map (fun v -> v /. 4.0) (Ref.random_fp16 ~seed:62 (k * width))
  in
  let bias = Ref.random_fp16 ~seed:63 width in
  let r = Ref.random_fp16 ~seed:64 (m * width) in
  let gamma = Ref.random_fp16 ~seed:65 width in
  let beta = Ref.random_fp16 ~seed:66 width in
  let z = Array.make (m * width) 0.0 in
  let _ =
    Interp.run ~arch kernel
      ~args:
        [ ("X", x); ("W", w); ("bias", bias); ("R", r); ("gamma", gamma)
        ; ("beta", beta); ("Z", z)
        ]
      ()
  in
  (z, gemm_ln_ref ~m ~k ~width x w bias r gamma beta)

let test_gemm_ln_sm86 () =
  let z, z_ref =
    run_gemm_ln ~arch:Arch.SM86 ~m:64 ~k:64 ~width:64 ~bm:64 ~wm:32 ~wn:32 ()
  in
  check_bool "matches reference" true
    (Ref.allclose ~rtol:5e-2 ~atol:3e-2 z z_ref)

let test_gemm_ln_multi_block () =
  let z, z_ref =
    run_gemm_ln ~arch:Arch.SM86 ~m:128 ~k:32 ~width:64 ~bm:64 ~wm:32 ~wn:32 ()
  in
  check_bool "matches reference" true
    (Ref.allclose ~rtol:5e-2 ~atol:3e-2 z z_ref)

(* ----- split-K: a two-kernel decomposition ----- *)

let test_split_k () =
  let arch = Arch.SM86 in
  let m = 32 and n = 64 and k = 128 and splits = 2 in
  let cfg = { (Kernels.Gemm.test_config arch) with Kernels.Gemm.bm = 32; wm = 32; wn = 16 } in
  let partial, reduce =
    Kernels.Gemm.split_k arch cfg ~epilogue:Kernels.Epilogue.bias_relu ~splits
      ~m ~n ~k ()
  in
  ignore (validated arch partial);
  ignore (validated arch reduce);
  let a = Ref.random_fp16 ~seed:71 (m * k) in
  let b = Ref.random_fp16 ~seed:72 (k * n) in
  let bias = Ref.random_fp16 ~seed:73 n in
  let c = Array.make (m * n) 0.0 in
  (* The partial kernel writes each split's fp32 sums into Cp; the reduce
     kernel sums them, adds the bias and applies relu into C. *)
  let cp = Array.make (splits * m * n) 0.0 in
  let _ = Interp.run ~arch partial ~args:[ ("A", a); ("B", b); ("Cp", cp) ] () in
  let _ =
    Interp.run ~arch reduce ~args:[ ("Cp", cp); ("bias", bias); ("C", c) ] ()
  in
  let c_ref = Array.make (m * n) 0.0 in
  Ref.gemm ~m ~n ~k a b c_ref;
  Ref.bias_add ~rows:m ~cols:n c_ref bias;
  Ref.relu c_ref;
  check_bool "matches reference" true (Ref.allclose c c_ref)

let () =
  Alcotest.run "fused"
    [ ( "mlp"
      , [ Alcotest.test_case "single layer" `Quick test_mlp_single_layer
        ; Alcotest.test_case "three layers" `Quick test_mlp_three_layers
        ; Alcotest.test_case "multi block" `Quick test_mlp_multi_block
        ; Alcotest.test_case "sm70" `Quick test_mlp_sm70
        ] )
    ; ( "lstm"
      , [ Alcotest.test_case "sm86" `Quick test_lstm_sm86
        ; Alcotest.test_case "sm70" `Quick test_lstm_sm70
        ] )
    ; ( "fmha"
      , [ Alcotest.test_case "tiny" `Quick test_fmha_tiny
        ; Alcotest.test_case "two heads" `Quick test_fmha_two_heads
        ; Alcotest.test_case "longer sequence" `Quick test_fmha_longer_seq
        ; Alcotest.test_case "sm70 (volta)" `Quick test_fmha_sm70
        ; Alcotest.test_case "causal masking" `Quick test_fmha_causal
        ; Alcotest.test_case "swizzle ablation" `Quick
            test_fmha_swizzle_ablation
        ; Alcotest.test_case "supports iff the kernel builds" `Quick
            test_fmha_supports
        ] )
    ; ( "split-k"
      , [ Alcotest.test_case "two-kernel decomposition" `Quick test_split_k ] )
    ; ( "gemm+layernorm (custom fusion)"
      , [ Alcotest.test_case "sm86" `Quick test_gemm_ln_sm86
        ; Alcotest.test_case "multi block" `Quick test_gemm_ln_multi_block
        ] )
    ]
