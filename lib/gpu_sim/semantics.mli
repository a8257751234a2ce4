(** Executable semantics of atomic specs.

    Each atomic instruction's prescribed data-to-thread mapping — e.g. which
    fragment element of an [mma] each lane holds, or which shared-memory row
    each lane addresses in an [ldmatrix] (paper Figures 1a/1b) — is encoded
    here exactly as the PTX ISA documents it, and exercised by the
    simulator. Getting one of these mappings wrong makes the tensor-core
    GEMM tests fail against the CPU reference.

    Every instruction class has one body, and a body runs one warp-level
    instance per call: a collective's members, or the active lanes of one
    warp for a per-thread instruction. Both executors — the tree
    interpreter and the compiled plan — call the same bodies. A body
    resolves each operand's storage once per call and its offsets once
    when they do not depend on the lane; mma gathers and scatters its
    fragments through flat tables built once per shape. *)

(** {1 Operands} *)

(** How an operand's element offsets are given for one call. *)
type addressing =
  | By_thread  (** [by_tid tid], per lane *)
  | Uniform_pending
      (** the same for every lane: the first lane that needs them
          fetches [by_tid tid], and the body keeps them (as [Uniform]) *)
  | Uniform  (** [offsets], for every lane *)
  | Contiguous
      (** lane [l] covers [bases.(l) .. bases.(l) + span - 1]: the
          vector-widened full-span moves of {!Lower.Vectorize}, which
          only the move family and cp.async accept *)

(** One view of the instruction, as the executor hands it to a body.
    The tree interpreter passes symbolic offsets by thread; the plan
    executor builds its operands once per domain and sets [addressing]
    before each call from the view's per-lane mark. *)
type operand =
  { view : Gpu_tensor.Tensor.t
  ; by_tid : int -> int array
  ; mutable addressing : addressing
  ; mutable offsets : int array
  ; mutable bases : int array
  ; mutable span : int
  }

(** [operand v ~by_tid] — addressed [By_thread], no bases. *)
val operand : Gpu_tensor.Tensor.t -> by_tid:(int -> int array) -> operand

(** {1 Execution} *)

(** [exec mem ~instr ~spec ~env ~tids ~lanes ~ins ~outs] executes one
    warp-level instance of an atomic spec, choosing the body by
    [instr.klass] (and, for the pointwise, reduction, shuffle and init
    classes, the operator in [spec.kind]).

    [tids.(0 .. lanes-1)] are the participating block-relative thread
    ids in ascending order — a collective's members (their position is
    the lane index) or one warp's active threads for a per-thread
    class, which runs them one after the other, each doing what that
    thread's instruction does: its reads, length and bounds checks,
    rounding and faults, in that order. A fault in lane k leaves lanes
    0 to k-1 landed. [ins] and [outs] are the operands of [spec.ins] and
    [spec.outs], in order. [env] binds block/loop variables (not
    [threadIdx.x], which is bound per lane); only a [shfl.idx] source
    lane reads it.

    Only data movement and compute happen here; event counting is the
    interpreter's job. [trace], when given (the profiler's detail mode),
    receives one instruction-level event per collective instance or per
    lane of a per-thread instruction, tagged with the issuing thread
    block [block] (default 0). Raises [Invalid_argument] for a class the
    simulator has no semantics for. *)
val exec :
  ?trace:Trace.t ->
  ?block:int ->
  Memory.t ->
  instr:Graphene.Atomic.instr ->
  spec:Graphene.Spec.t ->
  env:(string -> int) ->
  tids:int array ->
  lanes:int ->
  ins:operand array ->
  outs:operand array ->
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
