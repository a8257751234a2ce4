(** Fused simplified-LSTM-cell kernel (paper Figure 12).

    [Z = relu(X1 @ W1 + X2 @ W2 + bias)] — two independent GEMMs whose
    results are added, plus a bias and a pointwise activation: the
    computational core of an LSTM cell (the paper substitutes ReLU for tanh
    to enable a library comparison). Graphene fuses all five nodes into one
    kernel by accumulating {e both} GEMMs into the same register
    accumulators — a fusion beyond what cuBLASLt can express. *)

(** Parameters: [X1], [X2] (m x k), [W1], [W2] (k x n), [bias] (n), [Z]
    (m x n). *)
val kernel :
  ?name:string ->
  ?act:Graphene.Op.unary ->
  Graphene.Arch.t ->
  Gemm.config ->
  m:int ->
  n:int ->
  k:int ->
  unit ->
  Graphene.Spec.kernel
