type t =
  { arch : Graphene.Arch.t
  ; name : string
  ; sm_count : int
  ; clock_ghz : float
  ; tc_flops_per_sm_cycle : int
  ; fma_flops_per_sm_cycle : int
  ; dram_bytes_per_sec : float
  ; smem_bytes_per_sm_cycle : int
  ; max_threads_per_sm : int
  ; registers_per_sm : int
  ; kernel_launch_overhead_s : float
  ; l2_amplification : float
  ; tc_efficiency : float
  ; mem_efficiency : float
  }

let v100 =
  { arch = Graphene.Arch.SM70
  ; name = "Tesla V100 (SM70)"
  ; sm_count = 80
  ; clock_ghz = 1.312
  ; (* 8 first-gen tensor cores per SM, 64 FMA each: 1024 flops/cycle *)
    tc_flops_per_sm_cycle = 1024
  ; (* 64 fp32 cores per SM, FMA = 2 flops *)
    fma_flops_per_sm_cycle = 128
  ; dram_bytes_per_sec = 900.0e9
  ; smem_bytes_per_sm_cycle = 128
  ; max_threads_per_sm = 2048
  ; registers_per_sm = 65536
  ; kernel_launch_overhead_s = 4.5e-6
  ; l2_amplification = 5.0
  ; tc_efficiency = 0.93
  ; mem_efficiency = 0.82
  }

let a6000 =
  { arch = Graphene.Arch.SM86
  ; name = "RTX A6000 (SM86)"
  ; sm_count = 84
  ; clock_ghz = 1.41
  ; (* 4 third-gen tensor cores per SM, 128 fp16 FMA each: 1024 flops/cycle *)
    tc_flops_per_sm_cycle = 1024
  ; (* 128 fp32 cores per SM *)
    fma_flops_per_sm_cycle = 256
  ; dram_bytes_per_sec = 768.0e9
  ; smem_bytes_per_sm_cycle = 128
  ; max_threads_per_sm = 1536
  ; registers_per_sm = 65536
  ; kernel_launch_overhead_s = 4.0e-6
  ; l2_amplification = 7.0
  ; tc_efficiency = 0.95
  ; mem_efficiency = 0.85
  }

let of_arch = function
  | Graphene.Arch.SM70 -> v100
  | Graphene.Arch.SM86 -> a6000

let tc_peak_flops m =
  float_of_int (m.sm_count * m.tc_flops_per_sm_cycle) *. m.clock_ghz *. 1.0e9

let fma_peak_flops m =
  float_of_int (m.sm_count * m.fma_flops_per_sm_cycle) *. m.clock_ghz *. 1.0e9

let smem_peak_bytes m =
  float_of_int (m.sm_count * m.smem_bytes_per_sm_cycle) *. m.clock_ghz *. 1.0e9
