(** Cooperative global-to-shared tile staging.

    A thread block copies a [rows x cols] sub-tile of a global row-major
    tensor into a shared-memory tensor, vectorized and coalesced
    (consecutive threads access consecutive vectors). On SM86 each access
    is one [cp.async] — an {e asynchronous} copy: the simulator (like the
    hardware) defers the shared-memory write onto the block's async-copy
    queue, and the data lands only when a [cp.async.wait_group] drains
    its commit group. Callers must therefore place {!fence} between the
    last {!copy} and the barrier that publishes the tile (kernels built
    before the async semantics omitted this; the copy used to complete
    eagerly). On architectures without cp.async the copy is staged
    through registers (vectorized global load + shared store, complete
    on issue), matching what Volta kernels must do. *)

type t

(** Elements per staged vector (8 fp16 = 16 bytes, one [cp.async]). *)
val vector_width : int

(** [create ~thr ~nthreads ~use_cp_async ~prefix] — [nthreads] threads
    of [thr] stage each tile cooperatively. *)
val create :
  ?dtype:Gpu_tensor.Dtype.t ->
  thr:Gpu_tensor.Thread_tensor.t ->
  nthreads:int ->
  use_cp_async:bool ->
  prefix:string ->
  unit ->
  t

(** The staging-register allocations the register-staged path needs.
    Deliberately empty when cp.async is used — the async path writes
    shared memory straight from the copy queue and allocates nothing —
    so callers can splice the result unconditionally. *)
val allocs : t -> Graphene.Spec.stmt list

(** [fence stgs] — the commit/wait pair ([cp.async.commit_group;
    cp.async.wait_group 0]) that forces every cp.async copy issued by the
    stagings in [stgs] to complete, or [] when none of them uses
    cp.async. Insert between the last {!copy} and the publishing
    [B.sync]; {!step} does so for a staged loop body. *)
val fence : t list -> Graphene.Spec.stmt list

(** [step stgs ~copies compute] — one staged step: [copies] (the
    {!copy}s of the stagings [stgs]), their {!fence}, a barrier that
    publishes the tiles, [compute], and a barrier before the next step
    overwrites them. This is the one constructor of the loop-body shape the
    software-pipelining pass (see docs/LOWERING.md, "The pipelining
    pass") recognizes and deepens to a rotating multi-stage schedule. *)
val step :
  t list ->
  copies:Graphene.Spec.stmt list ->
  Graphene.Spec.stmt list ->
  Graphene.Spec.stmt list

(** [fits ~rows ~cols ~nthreads] — can [nthreads] threads stage a
    [rows x cols] tile cooperatively? [cols] must divide by
    {!vector_width} and the tile's vector count must divide, or be
    divided by, [nthreads]. {!copy} refuses exactly the tiles this
    rejects; the schedule search and {!Fmha.supports} call it rather
    than restating the rule. *)
val fits : rows:int -> cols:int -> nthreads:int -> bool

(** [copy t ~src ~src_row0 ~src_col0 ~dst] — stage [dst]'s full extent
    ([rows x cols], from its layout) from [src] starting at the given
    coordinates. [dst] must be rank 2 and {!fits} its [nthreads];
    violations raise [Invalid_argument] naming the tile shape and thread
    count. *)
val copy :
  t ->
  src:Gpu_tensor.Tensor.t ->
  src_row0:Shape.Int_expr.t ->
  src_col0:Shape.Int_expr.t ->
  dst:Gpu_tensor.Tensor.t ->
  Graphene.Spec.stmt
