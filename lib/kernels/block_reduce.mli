(** Reusable cross-thread reduction decompositions.

    A block-wide reduction decomposes into: a per-thread sequential
    [Reduction] over register values, a warp-level butterfly exchange built
    from [Shfl] specs, and a cross-warp step through a small shared-memory
    buffer — exactly the spec-level building blocks the paper's Layernorm
    and FMHA kernels are made of (Table 1: Reduction, Shfl). *)

(** The lane widths {!warp_reduce} and {!warp_scan_inclusive} accept (a
    power of two, at most 32); both raise [Invalid_argument] on any
    other. {!Fmha.supports} calls it on FMHA's threads per score row. *)
val valid_width : int -> bool

(** [warp_reduce ~warp ~op ~value ~tmp ~width] — butterfly-reduce the [1]
    register view [value] across [width] lanes ({!valid_width}), using
    [tmp] as the exchange buffer. Afterwards every lane of each
    [width]-group holds the group's reduction. *)
val warp_reduce :
  warp:Gpu_tensor.Thread_tensor.t ->
  op:Graphene.Op.binary ->
  value:Gpu_tensor.Tensor.t ->
  tmp:Gpu_tensor.Tensor.t ->
  width:int ->
  Graphene.Spec.stmt list

(** [block_reduce ~cta ~warp ~thr ~op ~value ~tmp ~partials ~identity]
    — full block reduction of the per-thread [1] register view [value]:
    warp butterflies, warp leaders publish to the shared [partials] buffer
    (one slot per warp), and after a barrier every thread re-reduces the
    partials into [value]. [identity] re-initializes [value] before the
    final accumulation. *)
val block_reduce :
  cta:Gpu_tensor.Thread_tensor.t ->
  warp:Gpu_tensor.Thread_tensor.t ->
  thr:Gpu_tensor.Thread_tensor.t ->
  op:Graphene.Op.binary ->
  value:Gpu_tensor.Tensor.t ->
  tmp:Gpu_tensor.Tensor.t ->
  partials:Gpu_tensor.Tensor.t ->
  identity:float ->
  Graphene.Spec.stmt list

(** [warp_scan_inclusive ~warp ~op ~value ~tmp ~width] — Hillis-Steele
    inclusive scan of the [1] register view [value] across each
    [width]-lane group, via [Shfl Up] exchanges predicated on the lane
    index. After it, lane [i] holds [op] over lanes [0..i] of its group. *)
val warp_scan_inclusive :
  warp:Gpu_tensor.Thread_tensor.t ->
  op:Graphene.Op.binary ->
  value:Gpu_tensor.Tensor.t ->
  tmp:Gpu_tensor.Tensor.t ->
  width:int ->
  Graphene.Spec.stmt list
