(** Machine descriptors for the two GPUs of the paper's evaluation.

    Peak rates are derived from the public datasheets at the base (locked)
    clocks the paper measures at ("Nsight-Compute ... automatically locks the
    clocks to base frequencies"). The performance model only needs ratios and
    roofline positions to reproduce the *shape* of the paper's figures. *)

type t =
  { arch : Graphene.Arch.t
  ; name : string
  ; sm_count : int
  ; clock_ghz : float  (** base clock *)
  ; tc_flops_per_sm_cycle : int
        (** fp16 tensor-core flops (mul+add counted separately) per SM per
            cycle *)
  ; fma_flops_per_sm_cycle : int  (** fp32 CUDA-core flops per SM per cycle *)
  ; dram_bytes_per_sec : float
  ; smem_bytes_per_sm_cycle : int  (** shared-memory bandwidth per SM *)
  ; max_threads_per_sm : int
  ; registers_per_sm : int  (** 32-bit registers in the SM register file *)
  ; kernel_launch_overhead_s : float
  ; l2_amplification : float
        (** upper bound on DRAM-traffic reduction the L2 can provide for
            tiled streaming kernels *)
  ; tc_efficiency : float
        (** achievable fraction of tensor-core peak for a well-tuned kernel
            (both cuBLAS and Graphene reach this, paper Figure 9) *)
  ; mem_efficiency : float  (** achievable fraction of DRAM peak *)
  }

(** Tesla V100 (SM70). *)
val v100 : t

(** RTX A6000 (SM86). *)
val a6000 : t

val of_arch : Graphene.Arch.t -> t

(** Peak tensor-core throughput in flop/s at base clock. *)
val tc_peak_flops : t -> float

(** Peak fp32 FMA throughput in flop/s. *)
val fma_peak_flops : t -> float

(** Aggregate shared-memory bandwidth in bytes/s. *)
val smem_peak_bytes : t -> float
