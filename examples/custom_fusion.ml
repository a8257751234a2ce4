(* Building a NEW fused kernel with the library — beyond the paper's
   evaluation. The transformer "output block"

       Z = LayerNorm(X @ W + bias + R)

   (projection + bias + residual + layer normalization) fuses into a single
   kernel by composing the library's decomposition vocabulary: the
   tensor-core pipeline, cooperative staging, and shfl-based reductions.
   Nothing in the IR, code generator, or simulator had to change — that is
   Graphene's extensibility claim. Exits 1 if the simulated kernel does
   not match the composed CPU reference.

   Run with: dune exec examples/custom_fusion.exe *)

module Ref = Reference.Cpu_ref

let () =
  let arch = Graphene.Arch.SM86 in
  let m = 128 and k = 64 and width = 64 in
  let kernel =
    Kernels.Gemm_layernorm.kernel arch ~m ~k ~width ~bm:64 ~wm:32 ~wn:32 ()
  in
  Graphene.Validate.check_exn arch kernel;

  print_endline "===== IR of the custom fusion =====";
  print_endline (Graphene.Spec.kernel_to_string kernel);

  (* Execute on the simulator and verify against the composed reference. *)
  let x = Ref.random_fp16 ~seed:1 (m * k) in
  let w = Array.map (fun v -> v /. 4.0) (Ref.random_fp16 ~seed:2 (k * width)) in
  let bias = Ref.random_fp16 ~seed:3 width in
  let r = Ref.random_fp16 ~seed:4 (m * width) in
  let gamma = Ref.random_fp16 ~seed:5 width in
  let beta = Ref.random_fp16 ~seed:6 width in
  let z = Array.make (m * width) 0.0 in
  let counters =
    Gpu_sim.Interp.run ~arch kernel
      ~args:
        [ ("X", x); ("W", w); ("bias", bias); ("R", r); ("gamma", gamma)
        ; ("beta", beta); ("Z", z)
        ]
      ()
  in
  let z_ref = Array.make (m * width) 0.0 in
  Ref.gemm ~m ~n:width ~k x w z_ref;
  Ref.bias_add ~rows:m ~cols:width z_ref bias;
  Ref.add_into ~dst:z_ref r;
  Ref.layernorm ~rows:m ~cols:width ~gamma ~beta z_ref;
  let ok = Ref.allclose ~rtol:5e-2 ~atol:3e-2 z z_ref in
  Format.printf "\nmatches composed CPU reference: %b@." ok;
  Format.printf "%a@." Gpu_sim.Counters.pp counters;

  (* What the fusion buys: compare against the library lowering (GEMM with
     fused bias via cuBLASLt, then add + layernorm kernels). *)
  let machine = Gpu_sim.Machine.a6000 in
  let m = 8192 and k = 512 and width = 128 in
  let fused_kernel =
    Kernels.Gemm_layernorm.kernel arch ~m ~k ~width ~bm:64 ~wm:32 ~wn:64 ()
  in
  let fused = Gpu_sim.Perf_model.of_kernel machine fused_kernel () in
  let unfused =
    Gpu_sim.Perf_model.sequence
      [ Baselines.Cublaslt.gemm_epilogue machine
          ~epilogue:Kernels.Epilogue.bias ~m ~n:width ~k ()
      ; Baselines.Cudnn.add machine ~elems:(m * width)
      ; Baselines.Pytorch.layernorm machine ~impl:Baselines.Pytorch.Fused
          ~rows:m ~cols:width
      ]
  in
  Format.printf
    "\n===== Fused output block vs library lowering (M=%d, K=%d, N=%d, \
     Ampere) =====@."
    m k width;
  Format.printf "library (3 kernels): %7.1f us@."
    (unfused.Gpu_sim.Perf_model.time_s *. 1e6);
  Format.printf "fused   (1 kernel):  %7.1f us -> speedup %.2fx@."
    (fused.Gpu_sim.Perf_model.time_s *. 1e6)
    (unfused.Gpu_sim.Perf_model.time_s /. fused.Gpu_sim.Perf_model.time_s);
  if not ok then exit 1
