(* Code generation tests: the CUDA C++ emitter must print the IR the way
   the paper's Figures 1c and 8 show — hoisted launch indices, unrolled
   loops, inline PTX for the tensor instructions. *)

module Arch = Graphene.Arch
module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.equal (String.sub hay i nl) needle || go (i + 1))
  in
  go 0

let assert_contains cuda needles =
  List.iter
    (fun n ->
      if not (contains cuda n) then
        Alcotest.failf "generated CUDA lacks %S:\n%s" n cuda)
    needles

(* ----- Index generation ----- *)

let test_element_offset () =
  let a = Ts.create_rm "A" [ 4; 8 ] Gpu_tensor.Dtype.FP32 Gpu_tensor.Memspace.Global in
  Alcotest.(check int) "k=0" 0
    (E.to_int_exn (Codegen.Index_gen.element_offset a 0));
  (* Enumeration is leftmost-fastest: element 1 is (1,0) -> offset 8. *)
  Alcotest.(check int) "k=1" 8
    (E.to_int_exn (Codegen.Index_gen.element_offset a 1));
  check_str "symbolic ref" "A[i * 8 + 2]"
    (Codegen.Index_gen.ref_string
       (Ts.select a [ E.var "i"; E.const 2 ])
       0)

let test_swizzled_ref () =
  let sw = Shape.Swizzle.make ~bits:2 ~base:3 ~shift:3 in
  let a =
    Ts.create ~swizzle:sw "S" (L.row_major [ 8; 8 ]) Gpu_tensor.Dtype.FP16
      Gpu_tensor.Memspace.Shared
  in
  let r = Codegen.Index_gen.ref_string (Ts.select a [ E.var "r"; E.zero ]) 0 in
  check_bool "xor appears" true (contains r "^")

(* ----- Figure 8: the naive GEMM ----- *)

let fig8_cuda () =
  let k = Kernels.Gemm.naive ~m:1024 ~n:1024 ~k:1024 ~bm:128 ~bn:128 ~tm:8 ~tn:8 () in
  Codegen.Emit.cuda Arch.SM86 k

let test_fig8_structure () =
  let cuda = fig8_cuda () in
  assert_contains cuda
    [ "extern \"C\" __global__ void gemm_naive"
    ; "const half* __restrict__ A"
    ; "const half* __restrict__ B"
    ; "half* __restrict__ C"  (* output is not const *)
    ; "#pragma unroll"
    ; "for (int k = 0; k < 1024; k += 1)"
    ; "__hfma("
    ; (* hoisted launch indices, as in the paper's generated code *)
      "int idx0 = blockIdx.x % 8 * 131072"
    ; "launch: <<<64, 256>>>"
    ]

let read_file path =
  (* dune runtest runs in _build/default/test; dune exec from the root. *)
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Golden files: the exact generated CUDA is locked in (regenerate with
   bin/gen_golden.exe after an intentional change). *)
let test_listing file () =
  let _, arch, build =
    List.find (fun (f, _, _) -> f = file) Experiments.Cuda_digest.listings
  in
  check_str file (read_file ("golden/" ^ file)) (Codegen.Emit.cuda arch (build ()))

(* One digest per kernel of the corpus in [Experiments.Cuda_digest]:
   every kernel-building function's emitted CUDA is pinned, line by line. *)
let test_cuda_digests () =
  let expected =
    String.split_on_char '\n' (read_file "golden/cuda_digests.txt")
    |> List.filter (fun l -> l <> "")
  in
  let actual = Experiments.Cuda_digest.lines () in
  Alcotest.(check int) "one line per kernel" (List.length expected)
    (List.length actual);
  List.iter2
    (fun e a -> check_str (List.hd (String.split_on_char ' ' e)) e a)
    expected actual

let test_fig8_stable () =
  (* Emission is deterministic. *)
  check_str "deterministic" (fig8_cuda ()) (fig8_cuda ())

(* ----- Figure 1: ldmatrix ----- *)

let test_fig1_ldmatrix_asm () =
  let k = Kernels.Ldmatrix_demo.kernel () in
  let cuda = Codegen.Emit.cuda Arch.SM86 k in
  assert_contains cuda
    [ "ldmatrix.sync.aligned.m8n8.x4.shared.b16"
    ; "__cvta_generic_to_shared"
    ; "__shared__ half smem[256];"
    ; "__syncthreads();"
    ; "\"=r\"(*reinterpret_cast<uint32_t*>(&regs["
    ]

(* ----- tensor-core GEMM ----- *)

let test_tc_sm86_cuda () =
  let cfg = Kernels.Gemm.test_config Arch.SM86 in
  let k =
    Kernels.Gemm.tensor_core Arch.SM86 cfg ~epilogue:Kernels.Epilogue.bias_relu
      ~m:64 ~n:64 ~k:32 ()
  in
  let cuda = Codegen.Emit.cuda Arch.SM86 k in
  assert_contains cuda
    [ "mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32"
    ; "ldmatrix.sync.aligned.m8n8.x4.shared.b16"
    ; "ldmatrix.sync.aligned.m8n8.x2.trans.shared.b16"
    ; "cp.async.cg.shared.global"
    ; "__shared__ half As["
    ; "fmaxf("  (* relu *)
    ; "__float2half"  (* fp32 accumulator conversion *)
    ]

let test_tc_sm70_cuda () =
  let cfg = Kernels.Gemm.test_config Arch.SM70 in
  let k =
    Kernels.Gemm.tensor_core Arch.SM70 cfg ~epilogue:Kernels.Epilogue.none
      ~m:32 ~n:32 ~k:32 ()
  in
  let cuda = Codegen.Emit.cuda Arch.SM70 k in
  assert_contains cuda
    [ "mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32" ];
  (* No Ampere-only instructions on Volta. *)
  check_bool "no cp.async" false (contains cuda "cp.async");
  check_bool "no ldmatrix" false (contains cuda "ldmatrix")

let test_swizzled_smem_decl () =
  let cfg = Kernels.Gemm.test_config Arch.SM86 in
  let k =
    Kernels.Gemm.tensor_core Arch.SM86 cfg ~epilogue:Kernels.Epilogue.none
      ~m:64 ~n:64 ~k:32 ()
  in
  let cuda = Codegen.Emit.cuda Arch.SM86 k in
  (* Swizzled stores/loads xor their index bits. *)
  check_bool "swizzle xor in smem accesses" true (contains cuda " ^ ")

(* ----- fused kernels ----- *)

let test_layernorm_cuda () =
  let k = Kernels.Layernorm.kernel ~rows:4 ~cols:1024 ~nthreads:128 () in
  let cuda = Codegen.Emit.cuda Arch.SM86 k in
  assert_contains cuda
    [ "__shfl_xor_sync(0xffffffffu"
    ; "rsqrtf("
    ; "__shared__ float warp_parts"
    ]

let test_gelu_helper_emitted () =
  let cfg = Kernels.Gemm.test_config Arch.SM86 in
  let k =
    Kernels.Gemm.tensor_core Arch.SM86 cfg ~epilogue:Kernels.Epilogue.bias_gelu
      ~m:64 ~n:64 ~k:32 ()
  in
  let cuda = Codegen.Emit.cuda Arch.SM86 k in
  assert_contains cuda [ "__device__ __forceinline__ float gelu(float x)" ]

let test_fmha_cuda () =
  let k =
    Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:64 ~dh:32 ~chunk:16
      ~nthreads:64 ()
  in
  let cuda = Codegen.Emit.cuda Arch.SM86 k in
  assert_contains cuda
    [ "__expf("; "mma.sync.aligned.m16n8k16"; "__shared__ half Ss[" ]

(* ----- scalar (parametric) kernel parameters ----- *)

let test_scalar_params () =
  let a =
    Ts.create "A"
      (L.row_major_e [ E.var "M"; E.var "N" ])
      Gpu_tensor.Dtype.FP16 Gpu_tensor.Memspace.Global
  in
  let grid = Gpu_tensor.Thread_tensor.grid "grid" [ 1 ] in
  let cta = Gpu_tensor.Thread_tensor.cta "cta" [ 32 ] in
  let thr = Gpu_tensor.Thread_tensor.select cta [ Graphene.Builder.thread_idx ] in
  let kernel =
    Graphene.Builder.kernel "param_test" ~scalar_params:[ "M"; "N" ] ~grid ~cta
      ~params:[ a ]
      [ Graphene.Builder.if_
          Graphene.Builder.(Graphene.Builder.thread_idx <. E.var "N")
          [ Graphene.Builder.init ~threads:thr 0.0
              ~dst:(Ts.select a [ E.zero; Graphene.Builder.thread_idx ])
              ()
          ]
      ]
  in
  let cuda = Codegen.Emit.cuda Arch.SM86 kernel in
  assert_contains cuda [ "int M"; "int N"; "threadIdx.x < N" ]

(* ----- IR pretty-printing (the paper's listing style) ----- *)

let test_ir_listing () =
  let k = Kernels.Gemm.naive ~m:64 ~n:64 ~k:64 ~bm:16 ~bn:16 ~tm:4 ~tn:4 () in
  let ir = Graphene.Spec.kernel_to_string k in
  List.iter
    (fun n ->
      if not (contains ir n) then Alcotest.failf "IR listing lacks %S:\n%s" n ir)
    [ "%A:((64,64):(64,1)).fp16.GL"
    ; "#grid:((4,4):(1,4)).block"
    ; "MatMul <<<#cta>>>"
    ; "#unroll"
    ]

let () =
  Alcotest.run "codegen"
    [ ( "index_gen"
      , [ Alcotest.test_case "element offsets" `Quick test_element_offset
        ; Alcotest.test_case "swizzled refs" `Quick test_swizzled_ref
        ] )
    ; ( "figures"
      , [ Alcotest.test_case "fig8 naive gemm" `Quick test_fig8_structure
        ; Alcotest.test_case "fig8 deterministic" `Quick test_fig8_stable
        ; Alcotest.test_case "fig8 golden file" `Quick
            (test_listing "fig8_sm86.cu")
        ; Alcotest.test_case "ldmatrix golden file" `Quick
            (test_listing "ldmatrix_sm86.cu")
        ; Alcotest.test_case "tensor-core gemm golden file" `Quick
            (test_listing "gemm_tc_sm86.cu")
        ; Alcotest.test_case "bf16 tensor-core gemm golden file" `Quick
            (test_listing "gemm_tc_bf16_sm86.cu")
        ; Alcotest.test_case "sm70 tensor-core gemm golden file" `Quick
            (test_listing "gemm_tc_sm70.cu")
        ; Alcotest.test_case "cuda digests of the kernel corpus" `Quick
            test_cuda_digests
        ; Alcotest.test_case "fig1 ldmatrix asm" `Quick test_fig1_ldmatrix_asm
        ] )
    ; ( "kernels"
      , [ Alcotest.test_case "sm86 tensor core" `Quick test_tc_sm86_cuda
        ; Alcotest.test_case "sm70 tensor core" `Quick test_tc_sm70_cuda
        ; Alcotest.test_case "swizzled smem" `Quick test_swizzled_smem_decl
        ; Alcotest.test_case "layernorm" `Quick test_layernorm_cuda
        ; Alcotest.test_case "gelu helper" `Quick test_gelu_helper_emitted
        ; Alcotest.test_case "fmha" `Quick test_fmha_cuda
        ; Alcotest.test_case "scalar params" `Quick test_scalar_params
        ] )
    ; ( "ir"
      , [ Alcotest.test_case "paper-style listing" `Quick test_ir_listing ] )
    ]
