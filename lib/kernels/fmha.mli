(** Fused Multi-Head Attention kernel (paper Figure 14).

    [O = softmax(Q K^T / sqrt(dh)) V] per (batch, head), fused into a
    single kernel: each thread block owns a strip of query rows, streams K
    and V through shared memory chunk by chunk, keeps the score matrix [S]
    in shared memory, and performs the softmax in place between the two
    tensor-core GEMMs — the structure of NVIDIA's MLPerf BERT kernels. The
    score buffer can be padded-and-swizzled ("optimized shared memory
    layouts"), the detail the paper credits for its edge over the TensorRT
    kernels. *)

(** Do the structural constraints of {!kernel} hold for this (seq, dh,
    chunk, nthreads) point on [arch]? Sizes must be positive, and the
    rules of the building blocks are their owners': the tensor-core rule
    ({!Tc_pipeline.fits}) of both fragment pipelines, which is why the
    answer depends on the architecture, the cooperative staging of the
    Q strip and the K/V chunk ({!Staging.fits}) and the softmax's warp
    reduction over [nthreads / 16] lanes ({!Block_reduce.valid_width}).
    [kernel arch] raises [Invalid_argument] exactly when this is
    [false]; the schedule search ({!Tuner.Search.fmha_space}) enumerates
    against it. *)
val supports :
  Graphene.Arch.t -> seq:int -> dh:int -> chunk:int -> nthreads:int -> bool

(** [kernel arch ~batch ~heads ~seq ~dh ~chunk ~nthreads ()].
    Q/K/V/O parameters are [(batch*heads*seq) x dh] row-major, heads
    concatenated. Each block processes 16 query rows; [chunk] K/V rows are
    staged per iteration ([seq mod chunk = 0], [chunk mod (8 *
    nthreads/32) = 0]). Raises [Invalid_argument] on a non-positive size
    and wherever {!supports} is false. *)
val kernel :
  ?name:string ->
  ?swizzle_smem:bool ->
  ?causal:bool
    (** autoregressive masking: keys after the query contribute nothing *) ->
  Graphene.Arch.t ->
  batch:int ->
  heads:int ->
  seq:int ->
  dh:int ->
  chunk:int ->
  nthreads:int ->
  unit ->
  Graphene.Spec.kernel

val flop_count : batch:int -> heads:int -> seq:int -> dh:int -> int
