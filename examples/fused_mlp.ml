(* Fused multi-layer MLP (paper Figure 11): one kernel runs every layer,
   keeping activations in shared memory; compare against the cuBLASLt
   lowering of one fused-epilogue GEMM per layer.

   Run with: dune exec examples/fused_mlp.exe *)

let () =
  let arch = Graphene.Arch.SM86 in
  let machine = Gpu_sim.Machine.a6000 in

  (* Correctness on the simulator at a reduced size. *)
  let m = 64 and width = 64 and layers = 4 in
  let kernel = Kernels.Mlp.kernel arch ~m ~width ~layers ~bm:64 ~wm:32 ~wn:32 () in
  Graphene.Validate.check_exn arch kernel;
  let x = Reference.Cpu_ref.random_fp16 ~seed:1 (m * width) in
  let w =
    Array.map
      (fun v -> v /. 8.0)
      (Reference.Cpu_ref.random_fp16 ~seed:2 (layers * width * width))
  in
  let biases = Reference.Cpu_ref.random_fp16 ~seed:3 (layers * width) in
  let y = Array.make (m * width) 0.0 in
  let counters =
    Gpu_sim.Interp.run ~arch kernel
      ~args:[ ("X", x); ("W", w); ("biases", biases); ("Y", y) ]
      ()
  in
  Format.printf "===== Fused %d-layer MLP, simulated (%dx%d) =====@." layers m
    width;
  Format.printf "%a@." Gpu_sim.Counters.pp counters;

  (* The Figure 11 sweep: fused kernel vs per-layer cuBLASLt calls. *)
  Format.printf
    "\n===== Figure 11: fused MLP vs cuBLASLt (M=4096, N=K=128, Ampere) \
     =====@.";
  List.iter
    (fun layers ->
      let fused =
        Kernels.Mlp.kernel arch ~m:4096 ~width:128 ~layers ~bm:64 ~wm:32
          ~wn:64 ()
      in
      let g = Gpu_sim.Perf_model.of_kernel machine fused () in
      let c =
        Baselines.Cublaslt.mlp_layers machine ~m:4096 ~width:128 ~layers ()
      in
      Format.printf
        "%2d layers: fused %7.1f us, cuBLASLt %7.1f us -> speedup %.2fx@."
        layers
        (g.Gpu_sim.Perf_model.time_s *. 1e6)
        (c.Gpu_sim.Perf_model.time_s *. 1e6)
        (c.Gpu_sim.Perf_model.time_s /. g.Gpu_sim.Perf_model.time_s))
    [ 1; 2; 4; 8; 12; 16; 20 ];
  let smem =
    (Gpu_sim.Static_analysis.of_kernel arch
       (Kernels.Mlp.kernel arch ~m:4096 ~width:128 ~layers:1 ~bm:64 ~wm:32
          ~wn:64 ())
       ())
      .Gpu_sim.Static_analysis.smem_bytes_per_block
  in
  Format.printf
    "(the paper reports up to 2.39x at 20 layers; shared memory required \
     per block: %d bytes)@."
    smem
