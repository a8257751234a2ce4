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
      pointwise epilogue (Figure 10). *)

(** Tile configuration of the optimized kernel. All divisibility
    constraints are checked at construction time. *)
type config =
  { bm : int  (** thread-block tile M (paper uses 128) *)
  ; bn : int  (** thread-block tile N (128) *)
  ; bk : int  (** K tile staged in shared memory (32) *)
  ; wm : int  (** warp tile M *)
  ; wn : int  (** warp tile N *)
  ; swizzle_a : bool  (** bank-conflict-free A staging *)
  ; swizzle_b : bool
  ; use_ldmatrix : bool  (** ablation: false = per-lane shared loads *)
  ; use_cp_async : bool  (** SM86 only; false = stage through registers *)
  ; vector_width : int  (** global-load vector width in elements *)
  }

(** Defaults per architecture (cuBLAS-style 128x128x32 CTA tile). *)
val default_config : Graphene.Arch.t -> config

(** A small configuration suitable for simulator tests. *)
val test_config : Graphene.Arch.t -> config

val naive :
  ?name:string ->
  m:int -> n:int -> k:int -> bm:int -> bn:int -> tm:int -> tn:int -> unit ->
  Graphene.Spec.kernel

(** [tensor_core arch cfg ~epilogue ~m ~n ~k ()] — raises
    [Invalid_argument] when sizes do not divide per [cfg]. The kernel's
    parameters are [A], [B], [C] (and [bias] when the epilogue uses it).
    [batch > 1] makes it a batched GEMM: instances are concatenated along
    the rows of every operand and a third grid mode selects the instance
    (one launch for the whole batch). *)
val tensor_core :
  ?name:string ->
  ?batch:int ->
  ?dtype:Gpu_tensor.Dtype.t ->
  Graphene.Arch.t ->
  config ->
  epilogue:Epilogue.t ->
  m:int -> n:int -> k:int -> unit ->
  Graphene.Spec.kernel

(** Flop count of the computation (for perf reporting): [2mnk] plus
    epilogue. *)
val flop_count : epilogue:Epilogue.t -> m:int -> n:int -> k:int -> int

(** The shared tensor-core epilogue used by the GEMM-family kernels:
    convert each accumulator group, optionally add bias and apply the
    activation, and store to [c] at the coordinates given by
    [grow]/[gcol]. Returns the register [Alloc]s and the store
    statements. *)
val epilogue_stores :
  arch:Graphene.Arch.t ->
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

(** [tensor_core_layouts ~ta ~tb ...] — the four GEMM operand layouts:
    [ta] means A is stored transposed ([k x m]), [tb] means B is stored
    transposed ([n x k]). Staging keeps each operand's storage orientation;
    the transposes are absorbed by the fragment loaders (plain vs [.trans]
    [ldmatrix] on SM86, swapped index roles on SM70). *)
val tensor_core_layouts :
  ?name:string ->
  ?ta:bool ->
  ?tb:bool ->
  Graphene.Arch.t ->
  config ->
  epilogue:Epilogue.t ->
  m:int ->
  n:int ->
  k:int ->
  unit ->
  Graphene.Spec.kernel
