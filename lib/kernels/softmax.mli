(** Row-wise softmax kernel.

    Numerically-stable softmax per row: a max reduction, exponentiation, a
    sum reduction, and normalization, fused into one kernel. Used standalone
    as the unfused attention baseline of paper Figure 14 and as a building
    block reference for the FMHA kernel's internal softmax. *)

(** [kernel ~rows ~cols ~nthreads ()] — parameters [X] (rows x cols fp16)
    and [Y] (same shape). *)
val kernel :
  ?name:string ->
  rows:int ->
  cols:int ->
  nthreads:int ->
  unit ->
  Graphene.Spec.kernel
