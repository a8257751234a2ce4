module Arch = Graphene.Arch
module PM = Gpu_sim.Perf_model
module Machine = Gpu_sim.Machine
module Counters = Gpu_sim.Counters
module Epi = Kernels.Epilogue
module Ref = Reference.Cpu_ref

let machines = [ Machine.v100; Machine.a6000 ]

let us e = e.PM.time_s *. 1e6

(* ----- Figure 9 ----- *)

type fig9_row =
  { arch : Arch.t
  ; m : int
  ; n : int
  ; k : int
  ; graphene_us : float
  ; cublas_us : float
  ; speedup : float
  ; graphene_compute_pct : float
  ; cublas_compute_pct : float
  ; graphene_memory_pct : float
  ; cublas_memory_pct : float
  }

let fig9_size = function
  | Arch.SM70 -> (5120, 5120, 2048)
  | Arch.SM86 -> (5376, 5376, 2048)

let fig9 () =
  List.map
    (fun machine ->
      let arch = machine.Machine.arch in
      let m, n, k = fig9_size arch in
      let cfg = Kernels.Gemm.default_config arch in
      let kernel =
        Kernels.Gemm.tensor_core arch cfg ~epilogue:Epi.none ~m ~n ~k ()
      in
      let g = PM.of_kernel machine kernel () in
      let c = Baselines.Cublas.gemm machine ~m ~n ~k () in
      { arch
      ; m
      ; n
      ; k
      ; graphene_us = us g
      ; cublas_us = us c
      ; speedup = c.PM.time_s /. g.PM.time_s
      ; graphene_compute_pct = 100. *. g.PM.tc_util
      ; cublas_compute_pct = 100. *. c.PM.tc_util
      ; graphene_memory_pct = 100. *. g.PM.dram_util
      ; cublas_memory_pct =
          100. *. Baselines.Cublas.memory_util machine ~m ~n ~k
      })
    machines

let print_fig9 fmt =
  Format.fprintf fmt
    "@[<v>== Figure 9: GEMM vs cuBLAS (speedup and achieved throughput) ==@,\
     paper: speedup 1.00 on both architectures; kernels compute-bound@,";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-18s M=N=%d K=%d | graphene %8.1f us, cuBLAS %8.1f us, speedup \
         %.2fx | compute %3.0f%%/%3.0f%% memory %3.0f%%/%3.0f%% \
         (graphene/cuBLAS)@,"
        (Arch.display_name r.arch) r.m r.k r.graphene_us r.cublas_us r.speedup
        r.graphene_compute_pct r.cublas_compute_pct r.graphene_memory_pct
        r.cublas_memory_pct)
    (fig9 ());
  Format.fprintf fmt "@]@."

(* ----- Figure 10 ----- *)

type fig10_row =
  { arch : Arch.t
  ; epilogue : string
  ; graphene_us : float
  ; cublaslt_us : float
  ; speedup : float
  }

let fig10_epilogues = [ Epi.bias; Epi.relu; Epi.bias_relu; Epi.bias_gelu ]

let fig10 () =
  List.concat_map
    (fun machine ->
      let arch = machine.Machine.arch in
      let m, n, k = fig9_size arch in
      List.map
        (fun epi ->
          let cfg = Kernels.Gemm.default_config arch in
          let kernel =
            Kernels.Gemm.tensor_core arch cfg ~epilogue:epi ~m ~n ~k ()
          in
          let g = PM.of_kernel machine kernel () in
          let c = Baselines.Cublaslt.gemm_epilogue machine ~epilogue:epi ~m ~n ~k () in
          { arch
          ; epilogue = Epi.name epi
          ; graphene_us = us g
          ; cublaslt_us = us c
          ; speedup = c.PM.time_s /. g.PM.time_s
          })
        fig10_epilogues)
    machines

let print_fig10 fmt =
  Format.fprintf fmt
    "@[<v>== Figure 10: fused GEMM+pointwise vs cuBLASLt ==@,\
     paper: speedup 1.00 for all epilogues on both architectures@,";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-18s %-10s | graphene %8.1f us, cuBLASLt %8.1f us, speedup %.2fx@,"
        (Arch.display_name r.arch) r.epilogue r.graphene_us r.cublaslt_us
        r.speedup)
    (fig10 ());
  Format.fprintf fmt "@]@."

(* ----- Figure 11 ----- *)

type fig11_row =
  { arch : Arch.t
  ; layers : int
  ; graphene_us : float
  ; cublaslt_us : float
  ; speedup : float
  }

let fig11 ?(m = 4096) ?(width = 128) () =
  let layer_counts = [ 1; 2; 4; 8; 12; 16; 20 ] in
  List.concat_map
    (fun machine ->
      let arch = machine.Machine.arch in
      List.map
        (fun layers ->
          let kernel =
            Kernels.Mlp.kernel arch ~m ~width ~layers ~bm:64 ~wm:32 ~wn:64 ()
          in
          let g = PM.of_kernel machine kernel () in
          let c = Baselines.Cublaslt.mlp_layers machine ~m ~width ~layers () in
          { arch
          ; layers
          ; graphene_us = us g
          ; cublaslt_us = us c
          ; speedup = c.PM.time_s /. g.PM.time_s
          })
        layer_counts)
    machines

let print_fig11 fmt =
  Format.fprintf fmt
    "@[<v>== Figure 11: fused multi-layer MLP vs cuBLASLt (N=K=128, M=4096) \
     ==@,paper: fusion wins, growing with depth, up to 2.39x at 20 layers@,";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-18s L=%2d | graphene %8.1f us, cuBLASLt %8.1f us, speedup %.2fx@,"
        (Arch.display_name r.arch) r.layers r.graphene_us r.cublaslt_us
        r.speedup)
    (fig11 ());
  Format.fprintf fmt "@]@."

(* ----- Figure 12 ----- *)

type fig12_row =
  { arch : Arch.t
  ; impl : string
  ; kernels : int
  ; us : float
  ; speedup_vs_baseline : float
  }

let fig12 ?(m = 1024) ?(n = 1024) ?(k = 1024) () =
  List.concat_map
    (fun machine ->
      let arch = machine.Machine.arch in
      let elems = m * n in
      (* 1) one library kernel per graph node: gemm, gemm, add, bias, relu *)
      let baseline =
        PM.sequence
          [ Baselines.Cublas.gemm machine ~m ~n ~k ()
          ; Baselines.Cublas.gemm machine ~m ~n ~k ()
          ; Baselines.Cudnn.add machine ~elems
          ; Baselines.Cudnn.bias_add machine ~rows:m ~cols:n
          ; Baselines.Cudnn.activation machine ~elems
          ]
      in
      (* 2) cuBLASLt: accumulate the second GEMM into the first's output and
         fuse bias+relu *)
      let lt = Baselines.Cublaslt.lstm_two_kernels machine ~m ~n ~k () in
      (* 3) Graphene: everything in one kernel *)
      let cfg = Kernels.Gemm.default_config arch in
      let fused_kernel = Kernels.Lstm.kernel arch cfg ~m ~n ~k () in
      let fused = PM.of_kernel machine fused_kernel () in
      let row impl kernels est =
        { arch
        ; impl
        ; kernels
        ; us = us est
        ; speedup_vs_baseline = baseline.PM.time_s /. est.PM.time_s
        }
      in
      [ row "cuBLAS+cuDNN (5 kernels)" 5 baseline
      ; row "cuBLASLt (2 kernels)" 2 lt
      ; row "Graphene fused (1 kernel)" 1 fused
      ])
    machines

let print_fig12 fmt =
  Format.fprintf fmt
    "@[<v>== Figure 12: simplified LSTM cell (2xGEMM + add + bias + relu) \
     ==@,paper: Graphene fused kernel 1.75x (Volta) / 1.82x (Ampere) over \
     the 5-kernel baseline@,";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-18s %-26s | %8.1f us, speedup %.2fx@,"
        (Arch.display_name r.arch) r.impl r.us r.speedup_vs_baseline)
    (fig12 ());
  Format.fprintf fmt "@]@."

(* ----- Figure 13 ----- *)

type fig13_row =
  { arch : Arch.t
  ; impl : string
  ; hidden : int
  ; us : float
  }

let fig13 ?(rows = 32 * 384) ?(hiddens = [ 1024; 2048; 4096; 8192 ]) () =
  List.concat_map
    (fun machine ->
      let arch = machine.Machine.arch in
      List.concat_map
        (fun hidden ->
          let torch =
            List.map
              (fun impl ->
                { arch
                ; impl = Baselines.Pytorch.impl_name impl
                ; hidden
                ; us =
                    us (Baselines.Pytorch.layernorm machine ~impl ~rows ~cols:hidden)
                })
              Baselines.Pytorch.layernorm_impls
          in
          let nthreads = if hidden >= 2048 then 256 else 128 in
          let kernel =
            Kernels.Layernorm.kernel ~rows ~cols:hidden ~nthreads ()
          in
          let g = PM.of_kernel machine kernel () in
          torch @ [ { arch; impl = "Graphene"; hidden; us = us g } ])
        hiddens)
    machines

let print_fig13 fmt =
  Format.fprintf fmt
    "@[<v>== Figure 13: Layernorm (rows = 32x384) ==@,\
     paper: Graphene matches the best fused implementations (Apex / fused); \
     Eager and JIT are slower@,";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-18s hidden %5d %-14s | %8.1f us@,"
        (Arch.display_name r.arch) r.hidden r.impl r.us)
    (fig13 ());
  Format.fprintf fmt "@]@."

(* ----- Figure 14 ----- *)

type fig14_row =
  { arch : Arch.t
  ; impl : string
  ; us : float
  ; speedup_vs_unfused : float
  }

(* Bank-conflict degradation of the unswizzled score layout, measured by
   executing a scaled-down FMHA on the simulator. *)
let fmha_smem_penalty ~swizzle =
  let kernel =
    Kernels.Fmha.kernel ~swizzle_smem:swizzle Arch.SM86 ~batch:1 ~heads:1
      ~seq:64 ~dh:32 ~chunk:16 ~nthreads:64 ()
  in
  let n = 64 * 32 in
  let q = Ref.random_fp16 ~seed:61 n in
  let k = Ref.random_fp16 ~seed:62 n in
  let v = Ref.random_fp16 ~seed:63 n in
  let o = Array.make n 0.0 in
  let c =
    Gpu_sim.Interp.run ~arch:Arch.SM86 kernel
      ~args:[ ("Q", q); ("K", k); ("V", v); ("O", o) ]
      ()
  in
  let base_cycles =
    float_of_int (c.Counters.shared_load_bytes + c.Counters.shared_store_bytes)
    /. 128.0
  in
  1.0 +. (float_of_int c.Counters.shared_bank_conflicts /. base_cycles)

let fig14 () =
  let machine = Machine.a6000 in
  let arch = machine.Machine.arch in
  let batch = 32 and heads = 16 and seq = 384 and dh = 64 in
  let unfused =
    Baselines.Pytorch.unfused_attention machine ~batch ~heads ~seq ~dh
  in
  let naive_penalty = fmha_smem_penalty ~swizzle:false in
  let graphene_penalty = fmha_smem_penalty ~swizzle:true in
  let trt =
    Baselines.Trt_fmha.estimate machine ~smem_penalty_naive:naive_penalty
      ~smem_penalty_swizzled:graphene_penalty ~batch ~heads ~seq ~dh
      ~chunk:48 ~nthreads:64
  in
  let kernel =
    Kernels.Fmha.kernel arch ~batch ~heads ~seq ~dh ~chunk:48 ~nthreads:64 ()
  in
  let g = PM.of_kernel ~smem_penalty:graphene_penalty machine kernel () in
  let row impl est =
    { arch
    ; impl
    ; us = us est
    ; speedup_vs_unfused = unfused.PM.time_s /. est.PM.time_s
    }
  in
  [ row "cuBLAS + softmax (unfused)" unfused
  ; row "TensorRT fused MHA (MLPerf)" trt
  ; row "Graphene fused MHA" g
  ]

let print_fig14 fmt =
  Format.fprintf fmt
    "@[<v>== Figure 14: FMHA, MLPerf BERT config (batch 32, 16 heads, seq \
     384, d 64) ==@,paper: fused kernels >2x over unfused; Graphene \
     slightly ahead of the MLPerf kernels via better shared-memory layouts@,";
  List.iter
    (fun r ->
      Format.fprintf fmt "%-18s %-28s | %8.1f us, speedup %.2fx@,"
        (Arch.display_name r.arch) r.impl r.us r.speedup_vs_unfused)
    (fig14 ());
  Format.fprintf fmt "@]@."

(* ----- Figure 15 ----- *)

type fig15_row =
  { network : string
  ; baseline_ms : float
  ; injected_ms : float
  ; speedup : float
  ; fmha_fraction : float
  }

let fig15 () =
  let machine = Machine.a6000 in
  List.map
    (fun cfg ->
      let base = Workloads.Transformer.baseline_time machine cfg in
      let inj = Workloads.Transformer.fmha_injected_time machine cfg in
      { network = cfg.Workloads.Transformer.name
      ; baseline_ms = base.Workloads.Transformer.total_s *. 1e3
      ; injected_ms = inj.Workloads.Transformer.total_s *. 1e3
      ; speedup =
          base.Workloads.Transformer.total_s
          /. inj.Workloads.Transformer.total_s
      ; fmha_fraction = base.Workloads.Transformer.attention_fraction
      })
    Workloads.Transformer.all

let print_fig15 fmt =
  Format.fprintf fmt
    "@[<v>== Figure 15: end-to-end Transformer inference with injected \
     Graphene FMHA (Ampere) ==@,paper: up to 1.59x; speedup correlates with \
     each network's FMHA fraction@,";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-14s | baseline %8.1f ms -> %8.1f ms, speedup %.2fx (attention \
         fraction %2.0f%%)@,"
        r.network r.baseline_ms r.injected_ms r.speedup
        (100. *. r.fmha_fraction))
    (fig15 ());
  Format.fprintf fmt "@]@."

(* ----- supplementary GEMM sweep ----- *)

type sweep_row =
  { arch : Arch.t
  ; m : int
  ; n : int
  ; k : int
  ; us : float
  ; tflops : float
  ; tc_pct : float
  }

let gemm_sweep () =
  let sizes =
    [ (512, 512, 512); (1024, 1024, 1024); (2048, 2048, 2048)
    ; (4096, 4096, 4096); (8192, 8192, 1024); (512, 8192, 2048)
    ]
  in
  List.concat_map
    (fun machine ->
      let arch = machine.Machine.arch in
      let cfg = Kernels.Gemm.default_config arch in
      List.map
        (fun (m, n, k) ->
          let kernel =
            Kernels.Gemm.tensor_core arch cfg ~epilogue:Epi.none ~m ~n ~k ()
          in
          let e = PM.of_kernel machine kernel () in
          { arch
          ; m
          ; n
          ; k
          ; us = us e
          ; tflops =
              PM.tflops e
                ~flops:(2.0 *. float_of_int m *. float_of_int n *. float_of_int k)
          ; tc_pct = 100. *. e.PM.tc_util
          })
        sizes)
    machines

let print_gemm_sweep fmt =
  Format.fprintf fmt
    "@[<v>== Supplementary: tensor-core GEMM across problem sizes ==@,";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-18s %5dx%5dx%5d | %9.1f us, %6.1f TFLOP/s (%3.0f%% of TC peak)@,"
        (Arch.display_name r.arch) r.m r.n r.k r.us r.tflops r.tc_pct)
    (gemm_sweep ());
  Format.fprintf fmt "@]@."

(* ----- Table 2 ----- *)

let print_table2 fmt =
  Format.fprintf fmt
    "== Table 2: atomic specifications and associated instructions ==@.";
  Graphene.Atomic.pp_table fmt None

(* ----- ablations ----- *)

type ablation_row =
  { name : string
  ; variant : string
  ; instructions : int
  ; shared_conflicts : int
  ; correct : bool
  }

let run_gemm_variant cfg =
  let m = 64 and n = 64 and k = 32 in
  let kernel =
    Kernels.Gemm.tensor_core Arch.SM86 cfg ~epilogue:Epi.none ~m ~n ~k ()
  in
  let a = Ref.random_fp16 ~seed:71 (m * k) in
  let b = Ref.random_fp16 ~seed:72 (k * n) in
  let c = Array.make (m * n) 0.0 in
  let counters =
    Gpu_sim.Interp.run ~arch:Arch.SM86 kernel
      ~args:[ ("A", a); ("B", b); ("C", c) ]
      ()
  in
  let c_ref = Array.make (m * n) 0.0 in
  Ref.gemm ~m ~n ~k a b c_ref;
  (counters, Ref.allclose c c_ref)

let ablations () =
  let cfg = Kernels.Gemm.test_config Arch.SM86 in
  let variants =
    [ ("ldmatrix", "ldmatrix.x4/.x2.trans", cfg)
    ; ("ldmatrix", "per-lane ld.shared", { cfg with Kernels.Gemm.use_ldmatrix = false })
    ; ("smem layout", "swizzled", cfg)
    ; ("smem layout", "linear", { cfg with Kernels.Gemm.swizzle = false })
    ; ("staging", "cp.async", cfg)
    ; ("staging", "through registers", { cfg with Kernels.Gemm.use_cp_async = false })
    ]
  in
  List.map
    (fun (name, variant, cfg) ->
      let counters, correct = run_gemm_variant cfg in
      { name
      ; variant
      ; instructions = counters.Counters.instructions
      ; shared_conflicts = counters.Counters.shared_bank_conflicts
      ; correct
      })
    variants

let print_ablations fmt =
  Format.fprintf fmt
    "@[<v>== Ablations (simulator-measured, 64x64x32 GEMM on SM86) ==@,";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-12s %-22s | %6d instructions, %4d smem conflict cycles, %s@,"
        r.name r.variant r.instructions r.shared_conflicts
        (if r.correct then "correct" else "WRONG RESULTS"))
    (ablations ());
  Format.fprintf fmt "@]@."

let print_all fmt =
  print_table2 fmt;
  Format.pp_print_newline fmt ();
  print_fig9 fmt;
  print_fig10 fmt;
  print_fig11 fmt;
  print_fig12 fmt;
  print_fig13 fmt;
  print_fig14 fmt;
  print_fig15 fmt;
  print_gemm_sweep fmt;
  print_ablations fmt
