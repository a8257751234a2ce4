(** CPU reference numerics for verifying simulated kernels.

    All tensors are dense row-major [float array]s; GEMM accumulates in
    fp64-backed OCaml floats (a superset of the fp32 accumulation the
    kernels use), so comparisons use tolerances scaled to fp16 inputs. *)

(** [gemm ~m ~n ~k a b c] — [c := a @ b + beta * c] with [a] m-by-k, [b]
    k-by-n, [c] m-by-n, all row-major. *)
val gemm :
  m:int -> n:int -> k:int -> ?beta:float -> float array -> float array ->
  float array -> unit

(** [bias_add ~rows ~cols x bias] adds [bias] (length [cols]) to each row. *)
val bias_add : rows:int -> cols:int -> float array -> float array -> unit

val relu : float array -> unit
val gelu : float array -> unit
val tanh_ : float array -> unit
val sigmoid : float array -> unit

(** Elementwise [dst := dst + src]. *)
val add_into : dst:float array -> float array -> unit

(** [softmax_rows ~rows ~cols x] — numerically-stable softmax per row. *)
val softmax_rows : rows:int -> cols:int -> float array -> unit

(** [layernorm ~rows ~cols ?eps ~gamma ~beta x] normalizes each row. *)
val layernorm :
  rows:int -> cols:int -> ?eps:float -> gamma:float array ->
  beta:float array -> float array -> unit

(** [attention ?causal ~batch ~heads ~seq ~dh q k v] — multi-head
    scaled-dot-product attention, [softmax(q k^T / sqrt dh) v] per
    (batch, head) slice; [q]/[k]/[v] and the returned output are
    [batch * heads] consecutive seq-by-dh row-major slices ([k] is
    transposed internally). [causal] (default [false]) masks out the key
    positions after each query. *)
val attention :
  ?causal:bool -> batch:int -> heads:int -> seq:int -> dh:int ->
  float array -> float array -> float array -> float array

(** {1 Fused kernels} *)

(** [mlp ~m ~width ~layers x w biases] — [layers] square layers of
    [relu(x @ w_l + bias_l)], each output rounded to fp16 as the fused
    kernel's shared-memory activations are; [w] is layer-major
    ([layers * width] by [width]), [biases] has [layers * width]
    entries. Returns the last layer's [m]-by-[width] output. *)
val mlp :
  m:int -> width:int -> layers:int -> float array -> float array ->
  float array -> float array

(** [lstm ~m ~n ~k x1 w1 x2 w2 bias] — the fused LSTM-cell gate:
    [relu(x1 @ w1 + x2 @ w2 + bias)], [m]-by-[n]. *)
val lstm :
  m:int -> n:int -> k:int -> float array -> float array -> float array ->
  float array -> float array -> float array

(** {1 Comparison and data generation} *)

(** [allclose ?rtol ?atol a b] with defaults suited to fp16 data. *)
val allclose : ?rtol:float -> ?atol:float -> float array -> float array -> bool

(** Deterministic uniform data in [-1, 1), rounded to fp16. *)
val random_fp16 : seed:int -> int -> float array
