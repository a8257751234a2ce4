(** Reusable warp-level tensor-core matmul pipeline.

    Encapsulates the per-architecture fragment staging and mma issue
    pattern: on SM86, [ldmatrix]/[ldmatrix.trans] loads and
    [mma.m16n8k16]; on SM70, per-lane shared-memory moves and quad-pair
    [mma.m8n8k4]. The GEMM family shares one block program on it
    ({!Gemm.block}); MLP, GEMM-LayerNorm and FMHA compose it with their
    own staging and epilogues — the paper's story: one decomposition
    vocabulary shared by every kernel, down to the staging swizzle and
    the accumulator group width. *)

type t

(** Where the A operand lives in shared memory. *)
type a_operand =
  | A_m_major of
      { t : Gpu_tensor.Tensor.t  (** storage [*, k], m rows (the NN case) *)
      ; row0 : Shape.Int_expr.t  (** first m row *)
      ; col0 : Shape.Int_expr.t  (** first k column *)
      ; ld : int
      }
  | A_k_major of
      { t : Gpu_tensor.Tensor.t  (** storage [*, m], k rows (A transposed) *)
      ; row0 : Shape.Int_expr.t  (** first k row *)
      ; col0 : Shape.Int_expr.t  (** first m column *)
      ; ld : int
      }

(** Where the B operand lives in shared memory. *)
type b_operand =
  | B_k_major of
      { t : Gpu_tensor.Tensor.t  (** storage [*, n], k rows *)
      ; row0 : Shape.Int_expr.t  (** first k row *)
      ; col0 : Shape.Int_expr.t  (** first n column *)
      ; ld : int  (** leading dimension (elements per k row) *)
      }
  | B_n_major of
      { t : Gpu_tensor.Tensor.t  (** storage [*, k], n rows *)
      ; row0 : Shape.Int_expr.t  (** first n row *)
      ; col0 : Shape.Int_expr.t  (** first k column *)
      ; ld : int
      }

(** [create arch ~cta ~bm ~bn ~wm ~wn ~use_ldmatrix] — the block computes a
    [bm x bn] output, tiled over warps as [wm x wn]. Requires [Tt.size cta
    = (bm/wm) * (bn/wn) * 32] and a warp tile that {!fits}. [prefix]
    namespaces the register allocations so that a kernel can host several
    pipelines. *)
val create :
  ?prefix:string ->
  ?dtype:Gpu_tensor.Dtype.t ->
  Graphene.Arch.t ->
  cta:Gpu_tensor.Thread_tensor.t ->
  bm:int ->
  bn:int ->
  wm:int ->
  wn:int ->
  use_ldmatrix:bool ->
  t

(** [fits arch ~wm ~wn ~kc] — does a [wm x wn] warp tile accumulating
    [kc]-deep steps fit the architecture's mma: whole m16n8k16 tiles on
    SM86; on SM70 whole 16x16 quad-pair footprints of m8n8k4, [kc] a
    multiple of 4? {!create} refuses a warp tile, and {!accumulate} a
    [kc], exactly where this rule does. *)
val fits : Graphene.Arch.t -> wm:int -> wn:int -> kc:int -> bool

(** Register allocations ([Alloc] statements), to place in the kernel
    preamble. *)
val allocs : t -> Graphene.Spec.stmt list

(** Zero the fp32 accumulators. *)
val init_acc : t -> Graphene.Spec.stmt list

(** The width of an accumulator group {!foreach_out} visits (2 on SM86,
    4 on SM70): the vector width of every epilogue register and store. *)
val group_width : t -> int

(** [staging_swizzle ~bits width] — the conflict-free swizzle of a
    row-major fp16 shared tile [width] (a power of two) elements wide:
    up to [bits] row-index bits XORed into the 16-byte-chunk bits, so the
    rows an ldmatrix or a staging wavefront touches fall in distinct
    banks; the identity for rows under 16 elements. The GEMM family uses
    2 bits for its A tile and 3 for its B tile, FMHA 2 for every tile. *)
val staging_swizzle : bits:int -> int -> Shape.Swizzle.t

(** [accumulate t ~a ~b ~kc] — accumulate the [bm x kc] A region [a]
    times the [kc x bn] B region [b] into the block accumulators. An
    [A_k_major] A (TN/TT layouts) loads its fragments with
    [ldmatrix.trans] (per-lane moves on SM70). [kc] must divide by the
    mma's K (16 on SM86, 4 on SM70; see {!fits}). *)
val accumulate :
  t -> a:a_operand -> b:b_operand -> kc:int -> Graphene.Spec.stmt list

(** [foreach_out t f] — visit every contiguous accumulator group owned by
    the calling thread: [f ~row ~col ~width ~acc] receives block-local
    output coordinates, the {!group_width}, and an fp32
    register view of the group; it returns the statements of the epilogue
    (convert / bias / activate / store). *)
val foreach_out :
  t ->
  (row:Shape.Int_expr.t ->
  col:Shape.Int_expr.t ->
  width:int ->
  acc:Gpu_tensor.Tensor.t ->
  Graphene.Spec.stmt list) ->
  Graphene.Spec.stmt list
