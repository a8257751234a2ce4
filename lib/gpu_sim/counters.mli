(** Hardware-event counters recorded during simulated execution — the
    simulator's stand-in for the paper's Nsight-Compute measurements. *)

type t =
  { mutable global_load_bytes : int
  ; mutable global_store_bytes : int
  ; mutable global_transactions : int  (** 32-byte DRAM sectors touched *)
  ; mutable shared_load_bytes : int
  ; mutable shared_store_bytes : int
  ; mutable shared_bank_conflicts : int
        (** extra serialized shared-memory cycles beyond the conflict-free
            cost *)
  ; mutable flops : int
  ; mutable tensor_core_flops : int
  ; mutable instructions : int
  ; mutable global_requests : int
        (** warp-level memory-pipe requests to global memory: one per
            scalar index per warp batch, or per vector group when the
            access was widened *)
  ; mutable global_vec_requests : int
        (** the subset of [global_requests] issued at vector width > 1 *)
  ; mutable global_vec_bytes : int
        (** bytes moved by those vectorized global requests (summed over
            every participating thread of the warp) *)
  ; mutable global_vec_elems : int
        (** per-thread scalar elements moved by those vectorized global
            requests — [global_vec_elems / global_vec_requests] is the
            mean executed vector width *)
  ; mutable shared_requests : int
  ; mutable shared_vec_requests : int
  ; mutable shared_vec_bytes : int
  ; mutable shared_vec_elems : int
  ; mutable async_copies : int
        (** cp.async instances issued (deferred global→shared copies) *)
  ; mutable async_commits : int  (** cp.async.commit_group executions *)
  ; mutable async_waits : int  (** cp.async.wait_group executions *)
  ; mutable async_inflight_sum : int
        (** committed groups in flight, sampled at each wait before it
            drains — divide by [async_waits] for the mean queue depth *)
  ; mutable async_max_inflight : int
        (** peak committed groups in flight across the run (max-merged) *)
  ; instr_mix : (string, int) Hashtbl.t  (** per atomic-instruction counts *)
  }

val create : unit -> t

(** Zero every counter, including the instruction mix. *)
val reset : t -> unit

val add_instr : t -> string -> unit

(** [add_instr_n t name n] — count [n] issues of [name] in O(1), exactly
    equivalent to calling {!add_instr} [n] times. [n <= 0] is a no-op. *)
val add_instr_n : t -> string -> int -> unit

(** [book_issue t instr cost ~instances] — [instances] issues of the
    atomic instruction [instr], each of cost [cost]: its flops (into
    [tensor_core_flops] for an {!Graphene.Atomic.Mma}, [flops]
    otherwise), its issued instructions, its {!instr_mix} entry, and for
    a {!Graphene.Atomic.Cp_async} the [async_copies]. *)
val book_issue :
  t -> Graphene.Atomic.instr -> Graphene.Atomic.cost -> instances:int -> unit

(** [record_global_batch t ~store ~bytes addresses ~len] — one
    warp-synchronous global access: the byte addresses of the
    participating threads are the first [len] entries of [addresses].
    Counts the bytes and the distinct 32-byte sectors touched
    ({!Graphene.Arch.global_sectors}). *)
val record_global_batch :
  t -> store:bool -> bytes:int -> int array -> len:int -> unit

(** [record_shared_batch t ~store ~bytes addresses ~len] — one
    warp-synchronous shared access: counts the bytes and the extra
    bank-conflict cycles ({!Graphene.Arch.shared_conflicts}). *)
val record_shared_batch :
  t -> store:bool -> bytes:int -> int array -> len:int -> unit

(** [record_requests t ~global ~elems ~width ~bytes] — request accounting
    for one warp-per-view access of [elems] per-thread scalar elements
    executed at vector width [width]: books [ceil(elems / width)]
    requests ([width = 1] is the scalar baseline), and when [width > 1]
    additionally books them as vectorized requests carrying [bytes]
    total bytes across the warp. Purely additive next to the
    byte/sector/conflict accounting — widening never changes those
    counters. [elems <= 0] is a no-op. *)
val record_requests :
  t -> global:bool -> elems:int -> width:int -> bytes:int -> unit

(** [merge dst src] adds every counter of [src] into [dst], including the
    per-instruction mix. *)
val merge : t -> t -> unit

(** Mean committed cp.async groups in flight at the wait points
    ([async_inflight_sum / async_waits]; 0 when no waits executed). *)
val async_mean_inflight : t -> float

(** [async_occupancy t ~stages] — {!async_mean_inflight} normalized by the
    pipeline depth: 1.0 in a steady [stages]-deep pipeline. *)
val async_occupancy : t -> stages:int -> float

(** Measured mean global access width in per-thread elements per request
    (1.0 = all scalar, 4.0 = all v4). The executed counterpart of
    {!Lower.Plan.global_vec_width}: proxy simulation feeds it back into
    the perf model's DRAM-efficiency term. *)
val global_mean_vec_width : t -> float

(** The instruction mix as an association list, sorted by instruction name
    (deterministic, for reports). *)
val instr_mix_alist : t -> (string * int) list

(** Every scalar field (all 22, not the instruction mix) as
    [(name, value)], in declaration order. *)
val to_alist : t -> (string * int) list

(** {1 Comparison} *)

(** The field sets {!diff} compares. Every set includes the instruction
    mix and the 10 fields no lowering choice may move (bytes, sectors,
    bank conflicts, flops, instructions, [async_copies]).

    - [All]: all 22 scalar fields — runs that must agree on everything,
      such as one plan at two domain counts, or a scalar-forced plan
      against the tree interpreter.
    - [No_requests]: without the 8 request/vector-width fields
      ([*_requests], [*_vec_requests], [*_vec_bytes], [*_vec_elems]),
      which follow the plan-level vectorize pass — a compiled plan
      against the tree interpreter.
    - [No_queue]: without the 4 queue-depth fields ([async_commits],
      [async_waits], [async_inflight_sum], [async_max_inflight]), which
      follow the pipeline depth — a pipelined plan against its
      unpipelined twin on the same engine.
    - [No_requests_or_queue]: both exclusions — a pipelined plan
      against the tree interpreter on the unpipelined source kernel
      (schedule search's exact oracle). *)
type fields =
  | All
  | No_requests
  | No_queue
  | No_requests_or_queue

(** [diff fields a b] — the first field of [fields] (in declaration
    order, then the instruction mix by name) where [a] and [b] differ,
    as ["name: a vs b"] (e.g. ["shared_bank_conflicts: 0 vs 96"],
    ["instr_mix[mma.m16n8k16]: 64 vs absent"]); [None] when they agree
    on every compared field. *)
val diff : fields -> t -> t -> string option

val pp : Format.formatter -> t -> unit
