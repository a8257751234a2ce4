(** Fused Multi-Layer Perceptron kernel (paper Figure 11).

    [L] layers of [Y = relu(X @ W_l + bias_l)] with square layers
    [N = K <= 128], fused into a {e single} kernel: every intermediate
    activation stays in shared memory, avoiding the global-memory
    round-trips that a sequence of cuBLASLt calls must pay. This is the
    fusion the paper credits for up to 2.39x over cuBLASLt. *)

(** [kernel arch ~m ~width ~layers ~bm ~wm ~wn ()] — [width] is the layer
    size (N = K), [bm] the per-block row stripe. Parameters: [X] (m x
    width), [W] (layers*width x width, layer-major), [biases]
    (layers*width), [Y] (m x width). *)
val kernel :
  ?name:string ->
  ?act:Graphene.Op.unary ->
  Graphene.Arch.t ->
  m:int ->
  width:int ->
  layers:int ->
  bm:int ->
  wm:int ->
  wn:int ->
  unit ->
  Graphene.Spec.kernel
