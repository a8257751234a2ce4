(** Synthetic serving traffic: seeded Poisson arrivals of kernel-launch
    requests whose shapes are drawn from the BERT/GPT-2 network
    distributions of [lib/workloads] (scaled to simulator-proxy sizes).

    Generation is a pure function of {!params}: the same parameters
    always produce the identical request list, byte for byte — the
    determinism contract behind the serving benchmark
    (`BENCH_serve.json` is reproducible modulo wall-clock fields). The
    generator uses its own splitmix64 stream, never [Stdlib.Random], so
    determinism survives OCaml version changes. *)

type params =
  { seed : int
  ; requests : int  (** number of requests to generate *)
  ; rate_rps : float  (** Poisson arrival rate, requests per simulated second *)
  ; attention_frac : float
        (** probability a request is a fused-attention launch (the rest
            are FFN GEMM launches) *)
  ; sm70_frac : float  (** probability a request targets SM70 (rest SM86) *)
  }

val default : params

(** The networks requests are drawn from (uniformly):
    [Workloads.Transformer.all]. *)
val models : Workloads.Transformer.config list

(** Proxy attention shape for a network at a given drawn context length:
    [seq] scales the network's sequence length by 1/8 (384 -> 48,
    512 -> 64), [heads] scales head count by 1/8 ([<= 12] -> 1,
    BERT-large's 16 -> 2), [dh] is a scaled 16-element head slice.
    SM70's quad-pair tensor cores need a 32-wide head and a 32-row K/V
    chunk, so on Volta [dh]/[chunk] are 32 and [seq] rounds down to a
    32-multiple. Exposed so tests can pin the shape derivation. *)
val attention_proxy :
  Workloads.Transformer.config ->
  arch:Graphene.Arch.t ->
  short:bool ->
  Request.kind

(** Proxy FFN GEMM shape: [n] scales [ffn] by 1/64, [k] scales [hidden]
    by 1/32, and [m] (the token tile) is the caller-drawn ragged batch
    size in [1, 32]. *)
val ffn_proxy : Workloads.Transformer.config -> m:int -> Request.kind

(** [generate params] — the request list, in arrival order, ids [0..n-1].
    Raises [Invalid_argument] naming the field when [requests < 0] or
    [rate_rps] is not finite and positive. *)
val generate : params -> Request.t list
