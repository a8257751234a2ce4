(** The lowering pipeline: [Spec.kernel] -> {!Plan.t} in six named
    passes (validate, swpipe, flatten, resolve, vectorize, compile). See
    docs/LOWERING.md.

    The vectorize pass proves per-thread unit-stride contiguity and
    alignment from the static stride/offset structure, widening eligible
    moves to width-2/4 vector atomics (see {!Vectorize}); the compile
    pass marks every view that reads [threadIdx.x] as per-lane, splits
    per-lane offsets and divergent guards into a uniform and a lane part
    (see {!Expr_comp.lanes}), keys every collective's member groups by
    the block and loop slots its member function reads, and carries the
    vector widths and bank-conflict lints onto the plan, where the
    executor reads them to enumerate a view per lane or once per call,
    to tabulate lane parts once per launch and to account its
    transactions.

    The pipeline promises to call [Atomic.find] exactly once per leaf
    spec: resolution happens at lowering, never during execution. An
    unmatched leaf (or a loop with thread-dependent bounds) lowers to a
    {!Plan.Fail} op, so the error fires only if control flow reaches
    it — the same lazy error semantics as the tree interpreter. *)

(** [lower ?log ?vectorize ?stages arch kernel] runs the full pipeline.
    When [log] is given it receives the rendered IR after every pass
    (plus the ["input"] kernel listing), in order. [vectorize] (default
    [true]) controls the widening pass: a disabled lowering still runs
    the pass for its diagnostics and bank lint, but every atomic stays
    scalar. [stages] controls the software-pipelining pass (see
    {!Swpipe}): it defaults to 1 (off); at [stages >= 2] eligible async
    staging loops are rewritten to rotating-buffer pipelines, and the
    swpipe outcome is recorded in the plan's [pipelining] field either
    way. The plan depends only on the arguments: lowering reads no
    environment variables. *)
val lower :
  ?log:Pass.log ->
  ?vectorize:bool ->
  ?stages:int ->
  Graphene.Arch.t ->
  Graphene.Spec.kernel ->
  Plan.t

(** The verdicts of passes 1-5 that a schedule search scores from. *)
type analysis =
  { pipelining : Plan.pipelining
        (** the swpipe outcome, as {!lower}'s plan records it *)
  ; widening : Plan.widening
        (** the vectorize pass's verdicts over the per-thread moves, as
            {!Plan.global_vec_width} and {!Plan.refusal_histogram} read
            them off {!lower}'s plan *)
  }

(** [analyze ?vectorize ?stages arch kernel] runs the passes {!lower}
    runs before compile (validate through vectorize, the same function) and
    returns their verdicts, equal to those of [lower]'s plan with the
    same arguments. It compiles no closures and touches no cache, so it
    costs a fraction of a lowering (about 0.3 of plain {!lower} on the
    search's GEMM candidates); it raises where [lower] would. *)
val analyze :
  ?vectorize:bool -> ?stages:int -> Graphene.Arch.t -> Graphene.Spec.kernel ->
  analysis

(** {1 Plan cache}

    Lowering is pure in [(arch, vectorize, stages, kernel)], and a
    kernel mentions its scalar parameters only by name (values bind per
    launch), so plans memoize under structural kernel equality — i.e.
    modulo scalar parameter values. The cache is process-wide and
    thread-safe (the schedule search lowers its tier-2 proxies from
    several domains concurrently; its tier 1 calls {!analyze} and never
    reaches the cache). *)

(** [lower_cached arch kernel] returns the memoized plan and whether it
    was a cache hit. [vectorize] and [stages] default as in {!lower} and
    are part of the cache key. For the per-pass renders, call {!lower}
    with [?log]. *)
val lower_cached :
  ?vectorize:bool ->
  ?stages:int ->
  Graphene.Arch.t ->
  Graphene.Spec.kernel ->
  Plan.t * bool

type cache_stats =
  { hits : int
  ; misses : int
  }

(** Cumulative hit/miss counts since start (or the last {!cache_clear}). *)
val cache_stats : unit -> cache_stats

val cache_clear : unit -> unit
