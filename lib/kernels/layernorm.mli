(** Fused Layernorm kernel (paper Figure 13).

    [Y = (X - mean(X)) / sqrt(var(X) + eps) * gamma + beta], normalizing
    each row. One thread block per row; a single fused kernel performs the
    two reductions (mean and mean-of-squares) and the normalization without
    touching global memory for intermediates — the structure of the fastest
    known implementations (NVIDIA Apex), built purely from Graphene specs:
    vectorized Moves, thread-local Reductions, Shfl butterflies, and
    pointwise ops. *)

(** [kernel ~rows ~cols ~nthreads ()] — requires [cols] divisible by
    [8 * nthreads] or equal to [nthreads * npt] with [npt] in {1,2,4,8,16,
    24,32,...} (vector width 8 used when possible). Parameters: [X] (rows x
    cols fp16), [gamma], [beta] (cols fp16), [Y]. *)
val kernel :
  ?name:string ->
  ?eps:float ->
  rows:int ->
  cols:int ->
  nthreads:int ->
  unit ->
  Graphene.Spec.kernel
