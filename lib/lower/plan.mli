(** The execution-plan IR produced by {!Pipeline.lower} and executed by
    the simulator's [Interp.run_plan].

    A plan is lowered once and executed many times: every leaf spec is
    already paired with its atomic instruction (resolved exactly once),
    costs and profiler attribution strings are precomputed, all symbolic
    index arithmetic is compiled to closures over one dense [int array]
    environment (see {!Slots}, {!Expr_comp}), every compiled view says
    whether it reads [threadIdx.x], and every member function lists the
    block and loop slots it reads: the executor enumerates a per-lane
    view per lane and any other view once per call, and reuses a
    collective's member groups while those slots are unchanged. A
    per-lane view's offset and each side of a divergent guard's
    comparisons also carry their lane split ({!Expr_comp.lanes}),
    numbered densely plan-wide and listed in [lanes], whose lane part
    the executor tabulates once per launch in its own per-range state. [Interp.run_plan] executes the [body] op tree
    directly. A plan is an immutable value, so domains share one plan
    through the plan cache. *)

type view =
  { v_ts : Gpu_tensor.Tensor.t
  ; v_mem : Gpu_tensor.Memspace.t
  ; v_elt_bytes : int
  ; v_batch_bytes : int
  ; v_offsets : Expr_comp.cview
  ; v_addr0 : Expr_comp.cexpr
        (** first scalar offset ({!Expr_comp.no_addr} when the view
            enumerates no scalars) — all the address-batch accounting
            needs, without materializing the full enumeration *)
  ; v_per_lane : bool
        (** [v_offsets] reads [threadIdx.x]: the view is enumerated per
            lane, otherwise once per call *)
  ; v_lanes : Expr_comp.view_lanes option
        (** a per-lane view's offset split into a uniform part and a
            lane part (see {!Expr_comp.view_lanes}): the executor
            tabulates the lane part once per launch *)
  ; v_vec : Vectorize.verdict
        (** this view's own widening capability (diagnostics) *)
  ; v_vec_width : int
        (** executed vector width: the enclosing atomic's width (1 =
            scalar) — what transaction accounting must charge *)
  }

(** How an atomic's threads form instances: one per active thread, or
    groups found by a compiled member function. *)
type threads =
  | Per_thread
  | Collective of
      { members : int array -> int -> int array
            (** probing tid -> sorted member ids of its instance *)
      ; members_slots : int array
            (** the [blockIdx.x] and loop-counter slots [members] reads:
                the key of the executor's group cache *)
      }

type atomic =
  { a_id : int  (** dense plan-wide id, indexes the executor's per-atomic state *)
  ; a_spec : Graphene.Spec.t
  ; a_instr : Graphene.Atomic.instr
        (** resolved once, at lowering; the executor branches on its
            [klass] (cp.async deferral, ldmatrix traffic, tensor-core
            flops) *)
  ; a_cost : Graphene.Atomic.cost
  ; a_dur : int
  ; a_label : string
  ; a_kind : string
  ; a_threads : threads
  ; a_ins : view list
  ; a_outs : view list
  ; a_ld_rows : (Expr_comp.cexpr array array * int) option
        (** compiled first-row byte addresses per matrix + element size *)
  ; a_lookup : string -> int option
  ; a_vec : Vectorize.verdict
        (** the vectorize pass's decision: width, or why it refused *)
  ; a_vec_width : int  (** executed vector width (1 = scalar) *)
  ; a_fastcopy : bool
        (** widened and full-span contiguous on both sides: the executor
            may move each thread's batch as one contiguous copy *)
  ; a_banks : (string * int) list
        (** statically conflicted shared views: (view name, extra
            conflict cycles per CTA-wide batch) *)
  }

type op =
  | Atomic_exec of atomic
  | Loop of
      { l_var : string
      ; l_slot : int
      ; l_lo : Expr_comp.cexpr
      ; l_hi : Expr_comp.cexpr
      ; l_step : Expr_comp.cexpr
      ; l_body : op list
      }
  | Branch of
      { b_cond : int array -> bool
      ; b_guard : Expr_comp.guard option
            (** a divergent branch's guard, its comparison sides
                lane-split when they all split (none on a uniform
                branch, whose [b_cond] is evaluated once per call) *)
      ; b_then : op list
      ; b_else : op list
      }
  | Barrier
  | Commit_group
      (** seal cp.async copies issued since the last commit into one
          in-flight group (possibly empty) on the block's queue *)
  | Wait_group of int
      (** drain oldest committed groups until at most [n] remain *)
  | Frame of { f_label : string; f_body : op list }
  | Fail of string
      (** a problem diagnosed at lowering whose error must fire only if
          control flow reaches it (lazy, like the tree interpreter) *)

type alloc = { al_buffer : string; al_mem : Gpu_tensor.Memspace.t; al_size : int }

(** What the swpipe pass did to this plan. [pl_stages = 1] means the
    plan runs single-buffered (pass off, refused, or nothing matched);
    [pl_note] carries the per-loop verdict/refusal lines in
    {!Swpipe.verdict_to_string} format. *)
type pipelining =
  { pl_stages : int  (** effective stage count across pipelined loops *)
  ; pl_buffers : (string * int) list
        (** rotated shared buffers with their slot stride in scalars *)
  ; pl_stage_bytes : int  (** shared bytes staged per steady iteration *)
  ; pl_queue_bound : int  (** peak committed async-copy groups in flight *)
  ; pl_note : string
  ; pl_refusals : (string * string) list
        (** per-loop refusals as [(loop var, reason slug)] — the
            structural form of the refusal lines in [pl_note], consumed
            as prune telemetry by schedule search *)
  }

(** The [pl_stages = 1] placeholder. *)
val unpipelined : pipelining

type t =
  { kernel : Graphene.Spec.kernel
  ; arch : Graphene.Arch.t
  ; nslots : int
  ; scalar_slots : (string * int) list
  ; cta_size : int
  ; grid_size : int
  ; allocs : alloc list
  ; body : op list
  ; n_atomics : int  (** total atomics = size of the executor's per-atomic arrays *)
  ; lanes : Expr_comp.lanes array
        (** every lane split of the plan, by id: the executor tabulates
            each once per block range *)
  ; diagnostics : string list
  ; vec_enabled : bool  (** whether the vectorize pass was allowed to widen *)
  ; pipelining : pipelining  (** software-pipelining outcome *)
  }

(** Total op count / atomic-exec count, for summaries. *)
val count_ops : op list -> int

val count_atomics : op list -> int

(** Deepest nesting of thread-dependent branches: the number of
    taken/not-taken mask pairs the executor preallocates. *)
val divergence_depth : op list -> int

(** Apply [f] to every atomic in the op tree, in program order. *)
val iter_atomics : (atomic -> unit) -> op list -> unit

(** [(widened, per-thread moves)] atomic counts. *)
val vec_counts : op list -> int * int

(** [(atomics flagged, total extra cycles per CTA-wide batch)] of the
    static bank-conflict lint. *)
val bank_warning_counts : op list -> int * int

(** Bytes one thread moves through a view per access batch: its scalar
    count times the element size (one scalar when the extents are
    symbolic). *)
val batch_bytes : Gpu_tensor.Tensor.t -> int

(** What the vectorize pass decided over a kernel's per-thread moves. *)
type widening =
  { global_vec_width : float option
        (** bytes-weighted mean vector width over their global views
            (structural, per atomic); [None] without global move
            traffic. Feeds {!Gpu_sim.Perf_model}'s [vec_width]. *)
  ; vec_refusals : (string * int) list
        (** histogram of the refusal reasons, [(reason slug, count)]
            sorted by slug: prune/refusal telemetry for schedule search *)
  }

(** [widening iter] — the one definition of the widening statistics:
    [iter visit] calls [visit instr spec verdict] once per atomic leaf
    with its vectorize verdict, and only per-thread moves count. The two
    functions below apply it to a plan, and
    {!Pipeline.analyze} to the vectorize pass's output before any
    compilation. *)
val widening :
  ((Graphene.Atomic.instr -> Graphene.Spec.t -> Vectorize.verdict -> unit) ->
  unit) ->
  widening

(** [(widening ...).vec_refusals] of the plan's atomics. *)
val refusal_histogram : op list -> (string * int) list

(** [(widening ...).global_vec_width] of the plan's atomics. *)
val global_vec_width : op list -> float option

val pp : Format.formatter -> t -> unit
val to_string : t -> string
