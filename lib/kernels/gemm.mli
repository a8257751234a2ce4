(** GEMM kernels expressed in Graphene IR.

    [C := A @ B (+ bias) (act)] with fp16 inputs. Two families:

    - {!naive} — the paper's Figure 8: every thread computes a tile of
      scalar outputs with per-scalar [hfma]s straight on global views. The
      simplest complete decomposition; terrible performance, but it shows
      the IR end to end.
    - {!tensor_core} — the optimized decomposition of Section 6 / Figure 9:
      staged through swizzled shared memory, fragments loaded with
      [ldmatrix] (SM86) or per-lane moves (SM70), computed on tensor cores
      ([mma.m16n8k16] / quad-pair [mma.m8n8k4]), with an optional fused
      pointwise epilogue (Figure 10).

    The tensor-core kernels — {!tensor_core} in every operand layout,
    {!split_k}'s partial kernel and the fused LSTM cell ({!Lstm}) — share
    one {!block} program: the shared A/B staging tiles, the fragment and
    staging registers, and the {!k_loop} that stages and accumulates one
    A and one B tile per k-tile. *)

(** Tile configuration of the optimized kernel. All divisibility
    constraints are checked at construction time. *)
type config =
  { bm : int  (** thread-block tile M (paper uses 128) *)
  ; bn : int  (** thread-block tile N (128) *)
  ; bk : int  (** K tile staged in shared memory (32) *)
  ; wm : int  (** warp tile M *)
  ; wn : int  (** warp tile N *)
  ; swizzle : bool
        (** conflict-free A/B staging ({!Tc_pipeline.staging_swizzle}) *)
  ; use_ldmatrix : bool  (** ablation: false = per-lane shared loads *)
  ; use_cp_async : bool  (** SM86 only; false = stage through registers *)
  }

(** Defaults per architecture (cuBLAS-style 128x128x32 CTA tile). Its
    [use_ldmatrix]/[use_cp_async] are the architecture's choice for every
    tensor-core kernel, fused ones included. *)
val default_config : Graphene.Arch.t -> config

(** A small configuration suitable for simulator tests. *)
val test_config : Graphene.Arch.t -> config

val naive :
  ?name:string ->
  m:int -> n:int -> k:int -> bm:int -> bn:int -> tm:int -> tn:int -> unit ->
  Graphene.Spec.kernel

(** A {!block}'s shared A/B staging tiles and the stagings filling them. *)
type tiles

(** The tensor-core block program of a [cfg] tile: its [cta] of
    [(bm/wm) * (bn/wn) * 32] threads, the calling thread [thr], the
    fragment pipeline [pipe], and the shared A/B staging [tiles]. [ta]
    ([tb]) stages A (B) from transposed storage, [k x m] ([n x k]): the
    tile keeps that orientation, unswizzled, and the fragment loaders
    absorb the transpose. Untransposed tiles are swizzled when
    [cfg.swizzle]. *)
type block =
  { cta : Gpu_tensor.Thread_tensor.t
  ; thr : Gpu_tensor.Thread_tensor.t
  ; pipe : Tc_pipeline.t
  ; tiles : tiles
  }

val block :
  ?dtype:Gpu_tensor.Dtype.t -> ?ta:bool -> ?tb:bool -> Graphene.Arch.t ->
  config -> block

(** [k_loop blk ~a ~b ~m0 ~n0 ~k] — the single-buffered k-loop over
    [k / bk] tiles: each iteration stages the A tile at rows [m0], k
    columns [a_k0 + kk*bk] and the B tile at k rows [b_k0 + kk*bk],
    columns [n0] ({!Staging.step}), then accumulates them into the
    block's accumulators. Coordinates are logical (m, k) / (k, n); a
    transposed operand's are swapped to address its storage. *)
val k_loop :
  ?a_k0:Shape.Int_expr.t -> ?b_k0:Shape.Int_expr.t -> block ->
  a:Gpu_tensor.Tensor.t -> b:Gpu_tensor.Tensor.t ->
  m0:Shape.Int_expr.t -> n0:Shape.Int_expr.t -> k:int -> Graphene.Spec.stmt

(** [block_body blk ~allocs main] — the block's shared-tile allocations,
    then the kernel's own [allocs], the register allocations, zeroed
    accumulators, and [main]. *)
val block_body :
  block -> allocs:Graphene.Spec.stmt list -> Graphene.Spec.stmt list ->
  Graphene.Spec.stmt list

(** [tensor_core arch cfg ~epilogue ~m ~n ~k ()] — raises
    [Invalid_argument] when a size is not positive or does not divide per
    [cfg]. The kernel's parameters are [A], [B], [C] (and [bias] when the
    epilogue uses it).
    [ta] means A is stored transposed ([k x m]), [tb] that B is ([n x
    k]): the four operand layouts NN / TN / NT / TT. [batch > 1] makes it
    a batched GEMM (untransposed operands only): instances are
    concatenated along the rows of every operand and a third grid mode
    selects the instance (one launch for the whole batch). *)
val tensor_core :
  ?name:string ->
  ?batch:int ->
  ?dtype:Gpu_tensor.Dtype.t ->
  ?ta:bool ->
  ?tb:bool ->
  Graphene.Arch.t ->
  config ->
  epilogue:Epilogue.t ->
  m:int -> n:int -> k:int -> unit ->
  Graphene.Spec.kernel

(** The shared tensor-core epilogue used by the GEMM-family kernels:
    convert each accumulator group, optionally add bias and apply the
    activation, and store to [c] at the coordinates given by
    [grow]/[gcol]. Returns the register [Alloc]s and the store
    statements. *)
val epilogue_stores :
  thr:Gpu_tensor.Thread_tensor.t ->
  pipe:Tc_pipeline.t ->
  epilogue:Epilogue.t ->
  c:Gpu_tensor.Tensor.t ->
  bias:Gpu_tensor.Tensor.t ->
  grow:(Shape.Int_expr.t -> Shape.Int_expr.t) ->
  gcol:(Shape.Int_expr.t -> Shape.Int_expr.t) ->
  Graphene.Spec.stmt list * Graphene.Spec.stmt list

(** Parametric variant of {!naive} (paper Section 3.4): tensor shapes are
    the symbolic parameters [M], [N], [K] (kernel arguments in the
    generated CUDA), and every access is predicated against the real
    bounds, so tile sizes need not divide the problem (partial tiles are
    overapproximated and guarded). [launch_m]/[launch_n] size the grid for
    a concrete launch; the generated code itself works for any sizes
    covered by that grid. *)
val naive_parametric :
  ?name:string ->
  launch_m:int ->
  launch_n:int ->
  bm:int ->
  bn:int ->
  tm:int ->
  tn:int ->
  unit ->
  Graphene.Spec.kernel

(** Split-K decomposition: for tall-skinny problems the K dimension is
    split across [splits] block groups, each writing fp32 partial sums;
    a second kernel reduces the partials and applies the epilogue. Returns
    [(partial_kernel, reduce_kernel)]; the intermediate parameter is
    [Cp] ([splits*m x n] fp32). *)
val split_k :
  ?name:string ->
  Graphene.Arch.t ->
  config ->
  epilogue:Epilogue.t ->
  splits:int ->
  m:int ->
  n:int ->
  k:int ->
  unit ->
  Graphene.Spec.kernel * Graphene.Spec.kernel
