(** Executable semantics of atomic specs.

    Each atomic instruction's prescribed data-to-thread mapping — e.g. which
    fragment element of an [mma] each lane holds, or which shared-memory row
    each lane addresses in an [ldmatrix] (paper Figures 1a/1b) — is encoded
    here exactly as the PTX ISA documents it, and exercised by the
    simulator. Getting one of these mappings wrong makes the tensor-core
    GEMM tests fail against the CPU reference. *)

(** [exec mem ~instr ~spec ~env ~members] executes one instance of an
    atomic spec. [members] are the participating block-relative thread ids
    in ascending order (their position is the lane index); [env] binds
    block/loop variables (not [threadIdx.x], which is bound per member).
    Only data movement/compute happens here; event counting is the
    interpreter's job. [trace], when given (the profiler's detail mode),
    receives one instruction-level event per executed instance, tagged
    with the issuing thread block [block] (default 0).

    View offsets are derived symbolically from [env] via
    [Tensor.scalar_offsets], and the executor is chosen by parsing the
    instruction name — the tree interpreter's path, kept independent of
    {!classify} so the reference semantics share no dispatch decision
    with the compiled executor. *)
val exec :
  ?trace:Trace.t ->
  ?block:int ->
  Memory.t ->
  instr:Graphene.Atomic.instr ->
  spec:Graphene.Spec.t ->
  env:(string -> int) ->
  members:int array ->
  unit

(** Pre-resolved dispatch for the compiled-plan executor. {!exec}
    decides which executor an instruction needs by parsing its name on
    every call; {!classify} makes that decision once per (instr, spec)
    and {!exec_coded} dispatches on the tag — same executors, arity
    checks, errors and trace events, minus the per-call string work. *)
type code =
  | C_ldmatrix of int
  | C_mma_m16n8k16
  | C_mma_m8n8k4
  | C_shfl of Graphene.Spec.shfl_kind
  | C_cp_async
      (** deferred global→shared copy: source read at issue, destination
          write enqueued on the block's async-copy queue *)
  | C_move
  | C_fma
  | C_unary of Graphene.Op.unary
  | C_binary of Graphene.Op.binary
  | C_reduction of Graphene.Op.binary * int list
  | C_init of float
  | C_generic

val classify : instr:Graphene.Atomic.instr -> spec:Graphene.Spec.t -> code

(** Like {!exec} with precompiled view offsets [offs v tid],
    dispatching on a {!classify} tag instead of the instruction name.
    [instr] is only consulted for trace events and error messages. *)
val exec_coded :
  ?trace:Trace.t ->
  ?block:int ->
  offs:(Gpu_tensor.Tensor.t -> int -> int array) ->
  Memory.t ->
  code ->
  instr:Graphene.Atomic.instr ->
  spec:Graphene.Spec.t ->
  env:(string -> int) ->
  members:int array ->
  unit

(** [exec_warp_move_contig mem spec ~tids ~src_bases ~dst_bases ~lanes ~n]
    — the vector-widened fast path of a full-span contiguous per-thread
    move (see {!Lower.Vectorize}): for each of the first [lanes] active
    lanes, copy the [n] elements [src_bases.(l) ..] to [dst_bases.(l) ..]
    without materializing offset enumerations. Element order, bounds
    checks, faults and destination rounding are identical to executing
    the scalar move per lane. *)
val exec_warp_move_contig :
  Memory.t ->
  Graphene.Spec.t ->
  tids:int array ->
  src_bases:int array ->
  dst_bases:int array ->
  lanes:int ->
  n:int ->
  unit

(** The deferred (cp.async) form of {!exec_warp_move_contig}: each lane's
    source span is read at issue time into a fresh buffer and its
    destination write enqueued on the block's async-copy queue, to land —
    in the same lane order — when a wait_group drains the copy's group. *)
val exec_warp_cp_async_contig :
  Memory.t ->
  Graphene.Spec.t ->
  tids:int array ->
  src_bases:int array ->
  dst_bases:int array ->
  lanes:int ->
  n:int ->
  unit

(** {1 Fragment layouts (exposed for tests)} *)

(** [mma_m16n8k16_a_coords lane] — the (row, col) of the 16x16 A operand
    held by each of the 8 per-thread fragment registers, per the PTX ISA. *)
val mma_m16n8k16_a_coords : int -> (int * int) array

val mma_m16n8k16_b_coords : int -> (int * int) array
val mma_m16n8k16_c_coords : int -> (int * int) array

(** [ldmatrix_frag_coords lane] — (row, col) within one 8x8 matrix of the
    two fp16 values each lane receives. *)
val ldmatrix_frag_coords : int -> (int * int) array

(** Volta m8n8k4 quad-pair fragment coordinates (modeled mapping, see
    DESIGN.md). *)
val mma_m8n8k4_a_coords : int -> (int * int) array

val mma_m8n8k4_b_coords : int -> (int * int) array
val mma_m8n8k4_c_coords : int -> (int * int) array

(** Coordinates of the j-th 8x8 matrix among an ldmatrix source's outer
    tiles, leftmost-fastest (the hardware's matrix order). *)
val tile_coords : int list -> int -> int list
