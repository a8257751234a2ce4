(** SIMT interpreter: executes Graphene IR kernels on the simulated GPU.

    One executor plus one oracle, producing bit-identical event counters
    (bar the request counters a vector-widened plan changes; see
    {!Counters.fields}), profiler reports and output buffers:

    - {!run_plan} executes a compiled {!Lower.Plan.t}: atomic
      resolution, cost lookup and index arithmetic all happened once,
      at lowering, and the plan's op tree is run by a recursive match
      with preallocated scratch (a divergence-mask arena sized by
      {!Lower.Plan.divergence_depth}) — no per-op allocation. The
      thread-dependent parts of per-lane offsets and divergent guards
      are tabulated once per launch ([Lower.Expr_comp.lanes]).
    - {!run_tree} walks a kernel's decomposition directly, re-resolving
      atomic specs and re-evaluating symbolic index arithmetic at every
      step. It is the executable reference semantics — the one oracle
      every compiled plan is checked against. To check a plan, run it
      on the plan's own kernel ([run_tree ~arch:plan.arch plan.kernel]):
      that is the kernel after the software-pipelining rewrite.

    {!run} is the lower-then-execute convenience wrapper. Results depend
    only on the arguments: the interpreter reads no environment
    variables.

    All threads of a block advance in lock step; thread-dependent [If]
    conditions split the active mask (divergence); undecomposed specs
    dispatch to the matched atomic instruction's {!Semantics}. Event
    counters model coalescing (32-byte sectors) and shared-memory bank
    conflicts from the very addresses the kernel touches.

    {2 Parallel grids}

    Both paths accept [?domains] (default
    {!Domain_pool.default_domains}, the machine's recommended domain
    count; never more than the grid has blocks). At one domain, or on a
    one-block grid, the blocks run in order straight into the caller's
    sinks. Otherwise the grid splits into one contiguous ascending block
    range per domain ({!Domain_pool.block_ranges}), each range runs as
    one {!Domain_pool.run_list} task into its own counters and forked
    profiler, and the ranges merge back in ascending order after the
    batch joins. Counters, profiler reports, traces and output buffers
    are therefore bit-identical at every domain count — see
    docs/PARALLELISM.md. A fault re-raises the lowest failing block's
    exception at every domain count; ranges above the failing one still
    run to completion first. *)

exception Exec_error of string

(** [run_tree ~arch kernel ~args ~scalars] executes the kernel by walking
    its decomposition tree (the reference path).

    [args] binds every global parameter name to a caller-owned array
    (mutated in place); [scalars] binds the kernel's symbolic size
    parameters. Returns the accumulated event counters.

    [profiler], when given, additionally receives every event attributed
    to the spec (label / loop nest) that issued it — build one with
    {!Profiler.create} and render with {!Profiler.report} afterwards.

    Raises {!Exec_error} (or {!Memory.Fault}) on malformed kernels:
    unmatched atomic specs, thread-dependent loop bounds, divergent
    collective instructions, out-of-bounds accesses. *)
val run_tree :
  arch:Graphene.Arch.t ->
  ?profiler:Profiler.t ->
  ?domains:int ->
  Graphene.Spec.kernel ->
  args:(string * float array) list ->
  ?scalars:(string * int) list ->
  unit ->
  Counters.t

(** Compatibility shim: {!run_plan} has one engine. [engine],
    {!engine_name}, {!default_plan_engine} and [run_plan]'s [?engine]
    remain only because the benchmark harness (perfbench/) still names
    them; they go when it stops doing so. *)
type engine = Bytecode

(** Always ["bytecode"]. *)
val engine_name : engine -> string

(** Always [Bytecode]. *)
val default_plan_engine : unit -> engine

(** [run_plan plan ~args ~scalars] executes a compiled plan (see
    {!Lower.Pipeline.lower}). Same contract and error behavior as
    {!run_tree}; lowering-time diagnoses ([Lower.Plan.Fail] ops) raise
    {!Exec_error} only if control flow reaches them. Lower once, then
    call this for every execution (autotuning, repeated benchmark
    runs). [engine] is ignored; see {!engine}. *)
val run_plan :
  ?profiler:Profiler.t ->
  ?domains:int ->
  ?engine:engine ->
  Lower.Plan.t ->
  args:(string * float array) list ->
  ?scalars:(string * int) list ->
  unit ->
  Counters.t

(** [run ~arch kernel ~args ~scalars] lowers the kernel (through
    {!Lower.Pipeline.lower_cached}, so repeated launches of structurally
    identical kernels — including scalar-parameter variants — reuse the
    plan) and executes it. *)
val run :
  arch:Graphene.Arch.t ->
  ?profiler:Profiler.t ->
  ?domains:int ->
  Graphene.Spec.kernel ->
  args:(string * float array) list ->
  ?scalars:(string * int) list ->
  unit ->
  Counters.t
