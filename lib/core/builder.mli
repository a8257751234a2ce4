(** Convenience constructors for Graphene IR — the OCaml equivalent of the
    Python API the paper uses to generate Graphene IR (Section 5.4). *)

module E := Shape.Int_expr

type stmt = Spec.stmt

(** {1 Specs as statements} *)

val move :
  ?label:string ->
  threads:Gpu_tensor.Thread_tensor.t ->
  src:Gpu_tensor.Tensor.t ->
  dst:Gpu_tensor.Tensor.t ->
  unit ->
  stmt

val matmul :
  ?label:string ->
  threads:Gpu_tensor.Thread_tensor.t ->
  a:Gpu_tensor.Tensor.t ->
  b:Gpu_tensor.Tensor.t ->
  c:Gpu_tensor.Tensor.t ->
  unit ->
  stmt

val unary :
  ?label:string ->
  threads:Gpu_tensor.Thread_tensor.t ->
  Op.unary ->
  src:Gpu_tensor.Tensor.t ->
  dst:Gpu_tensor.Tensor.t ->
  unit ->
  stmt

val binary :
  ?label:string ->
  threads:Gpu_tensor.Thread_tensor.t ->
  Op.binary ->
  lhs:Gpu_tensor.Tensor.t ->
  rhs:Gpu_tensor.Tensor.t ->
  dst:Gpu_tensor.Tensor.t ->
  unit ->
  stmt

val reduction :
  ?label:string ->
  threads:Gpu_tensor.Thread_tensor.t ->
  Op.binary ->
  axes:int list ->
  src:Gpu_tensor.Tensor.t ->
  dst:Gpu_tensor.Tensor.t ->
  unit ->
  stmt

val shfl :
  ?label:string ->
  threads:Gpu_tensor.Thread_tensor.t ->
  Spec.shfl_kind ->
  src:Gpu_tensor.Tensor.t ->
  dst:Gpu_tensor.Tensor.t ->
  unit ->
  stmt

val init :
  ?label:string ->
  threads:Gpu_tensor.Thread_tensor.t ->
  float ->
  dst:Gpu_tensor.Tensor.t ->
  unit ->
  stmt

(** A decomposed spec of any kind. *)
val decomposed : Spec.t -> stmt list -> stmt

(** A generic (fused) spec defined entirely by its decomposition. *)
val generic :
  ?label:string ->
  string ->
  threads:Gpu_tensor.Thread_tensor.t ->
  ins:Gpu_tensor.Tensor.t list ->
  outs:Gpu_tensor.Tensor.t list ->
  stmt list ->
  stmt

(** {1 Control flow} *)

(** [for_ v n body] — loop [v] from 0 (inclusive) to [n] (exclusive) in unit
    steps; the body receives the loop variable as an expression. *)
val for_ : ?unroll:bool -> string -> E.t -> (E.t -> stmt list) -> stmt

val if_ : Spec.pred -> stmt list -> stmt
val if_else : Spec.pred -> stmt list -> stmt list -> stmt
val sync : stmt

(** [commit_group] / [wait_group n] — cp.async group fences: commit seals
    everything issued since the previous commit into one in-flight group
    (possibly empty); wait blocks until at most [n] committed groups remain
    in flight. See docs/LOWERING.md, "The pipelining pass". *)
val commit_group : stmt

val wait_group : int -> stmt
val comment : string -> stmt

(** {1 Predicates} *)

val ( <. ) : E.t -> E.t -> Spec.pred
val ( <=. ) : E.t -> E.t -> Spec.pred
val ( ==. ) : E.t -> E.t -> Spec.pred
val ( &&. ) : Spec.pred -> Spec.pred -> Spec.pred

(** {1 Allocations} *)

(** [alloc_shared name layout dtype] — returns the view and its [Alloc]
    statement. *)
val alloc_shared :
  ?swizzle:Shape.Swizzle.t ->
  string ->
  Shape.Layout.t ->
  Gpu_tensor.Dtype.t ->
  Gpu_tensor.Tensor.t * stmt

(** [alloc_regs name layout dtype] — a thread-local register tensor. *)
val alloc_regs :
  string -> Shape.Layout.t -> Gpu_tensor.Dtype.t -> Gpu_tensor.Tensor.t * stmt

(** {1 Tiling} *)

(** [vec_tile t w] groups [w] consecutive innermost elements of a rank-1 or
    rank-2 view into one vector tile by logical division: the tiler is
    [\[tile_spec w\]] (rank 1) or [\[tile_spec 1; tile_spec w\]] (rank 2),
    so selecting one outer coordinate yields a contiguous width-[w] vector
    view. This is the canonical per-thread vector grouping used by the
    staged-copy and kernel builders. *)
val vec_tile : Gpu_tensor.Tensor.t -> int -> Gpu_tensor.Tensor.t

(** {1 Special variables} *)

val thread_idx : E.t
val block_idx : E.t

(** [block_coords grid] / [thread_coords cta] — coordinate expressions of
    the current block/thread in the given arrangement ([#4.indices()] /
    [#5.indices()] of paper Figure 8). *)
val block_coords : Gpu_tensor.Thread_tensor.t -> E.t list

val thread_coords : Gpu_tensor.Thread_tensor.t -> E.t list

(** {1 Kernels} *)

val kernel :
  string ->
  ?scalar_params:string list ->
  grid:Gpu_tensor.Thread_tensor.t ->
  cta:Gpu_tensor.Thread_tensor.t ->
  params:Gpu_tensor.Tensor.t list ->
  stmt list ->
  Spec.kernel
