(** Simulated GPU memory: global buffers, per-block shared memory, and
    per-thread register files, all addressed through tensor views.

    Values are stored as OCaml floats; writes are rounded through the
    destination view's element type (fp16/bf16), so simulated numerics match
    what mixed-precision GPU kernels produce. *)

(** The global-memory arena, shared by every block — and, when blocks
    execute on multiple domains, by every domain. It is written through
    {!bind_arena} before execution starts; afterwards only
    its arrays' cells are mutated, by blocks writing disjoint cells (as on
    real hardware), so sharing it across domains is safe. *)
type global

(** A per-domain memory handle: the shared {!global} arena plus
    block-local state (shared-memory arrays and per-thread register
    files) that is replaced wholesale at each block boundary. *)
type t

exception Fault of string

val create_global : unit -> global

(** [bind_arena g name data] — attach a caller-owned array as a global
    buffer; the kernel mutates it in place. *)
val bind_arena : global -> string -> float array -> unit

(** A fresh handle over [global] with empty block-local state and no
    declarations — each domain executing a block range makes its own. *)
val of_global : global -> t

(** {1 Buffer management} *)

(** Declare a shared / register allocation (from [Alloc] statements). *)
val declare_shared : t -> string -> int -> unit

val declare_regs : t -> string -> int -> unit

(** Install fresh (empty) block-local state — shared buffers and register
    files — at a block boundary. Replaces the old [reset_block] mutation:
    block-local state is a separate value, never shared across blocks or
    domains. *)
val new_block : t -> unit

(** {1 The cp.async queue}

    Per-block deferred-copy state. A cp.async issues as a thunk that will
    land its (already-read, counter-accounted) data in shared memory when
    drained; commit seals the issued-but-uncommitted copies into one
    in-flight group (possibly empty), and wait drains oldest groups until
    at most [n] remain. {!new_block} discards any leftovers along with
    the shared arrays they would have written. *)

(** Enqueue one deferred copy (issued, not yet committed). *)
val async_stage : t -> (unit -> unit) -> unit

(** Seal pending copies into one committed group; empty groups allowed. *)
val async_commit : t -> unit

(** Committed groups currently in flight. *)
val async_inflight : t -> int

(** [async_wait t n] — drain oldest committed groups (running their
    thunks in issue order) until at most [n] remain in flight. *)
val async_wait : t -> int -> unit

(** {1 Warp access}

    An instruction body resolves each operand's storage once per warp
    instance with {!resolve} — one table lookup — and then finds each
    lane's array with {!lane_buf}, by indexing. The per-lane accessors
    take the view's element offsets from the caller (the tree
    interpreter derives them symbolically with [Tensor.scalar_offsets],
    a compiled execution plan with its offset closures), so both
    executors share the bounds checks, rounding and fault messages. *)

(** A view's storage, resolved for one warp instance. Valid for the
    current block only — resolve again after {!new_block}. *)
type bufs

(** [resolve t v] never faults: storage that is missing (not allocated
    yet in this block, or not bound at all) is resolved per lane by
    {!lane_buf}, which then allocates it or faults as a lookup for that
    lane alone would. *)
val resolve : t -> Gpu_tensor.Tensor.t -> bufs

(** [lane_buf t b ~tid] — the array thread [tid] addresses through the
    view: the one global or shared array, or [tid]'s register file
    (allocated on first touch). Faults when the buffer was never
    bound or allocated. *)
val lane_buf : t -> bufs -> tid:int -> float array

(** [offset_fault v buf off] raises the {!Fault} for offset [off] outside
    [buf], as every accessor below does. For bodies that check their own
    element loads. *)
val offset_fault : Gpu_tensor.Tensor.t -> float array -> int -> 'a

(** [load v buf offs dst ~pos] — [dst.(pos + i) <- buf.(offs.(i))] for
    every [i], each offset bounds-checked in order. *)
val load :
  Gpu_tensor.Tensor.t -> float array -> int array -> float array -> pos:int -> unit

(** [load_sub v buf offs ~from ~len dst] — gather the slice
    [offs.(from .. from+len-1)] into [dst.(0 .. len-1)], with the same
    range guard (and exception) as [Array.sub offs from len]. *)
val load_sub :
  Gpu_tensor.Tensor.t ->
  float array ->
  int array ->
  from:int ->
  len:int ->
  float array ->
  unit

(** [store t v buf offs data ~pos ~len] — one lane's write of
    [data.(pos .. pos+len-1)] to [offs]: faults unless [offs] has
    exactly [len] entries, then stores each value rounded through the
    view's element type, bounds-checking each offset in order. *)
val store :
  t ->
  Gpu_tensor.Tensor.t ->
  float array ->
  int array ->
  float array ->
  pos:int ->
  len:int ->
  unit

(** [store_scalars t v buf offs ~k data ~pos ~len] — write the values to
    scalars [k .. k+len-1] of the view (at [offs.(k ..)]), rounding as
    {!store} does; faults at the first scalar index past [offs], after
    the ones before it have landed. *)
val store_scalars :
  t ->
  Gpu_tensor.Tensor.t ->
  float array ->
  int array ->
  k:int ->
  float array ->
  pos:int ->
  len:int ->
  unit

(** {2 Contiguous-span forms}

    For vector-widened full-span moves, whose offset enumeration is
    provably [base, base + len): no offsets are materialized. Bounds
    checks, faults, write rounding and element order are identical to
    the forms above on the offsets [base; base+1; ...], so a widened
    move faults, rounds and stores exactly as its scalar lowering. *)

(** [load_contig v buf ~base ~len dst ~pos] — gather
    [base .. base+len-1] into [dst.(pos .. pos+len-1)]. *)
val load_contig :
  Gpu_tensor.Tensor.t ->
  float array ->
  base:int ->
  len:int ->
  float array ->
  pos:int ->
  unit

(** [store_contig t v buf ~base data ~pos ~len] — scatter
    [data.(pos .. pos+len-1)] to [base .. base+len-1], rounding through
    the view's element type. *)
val store_contig :
  t ->
  Gpu_tensor.Tensor.t ->
  float array ->
  base:int ->
  float array ->
  pos:int ->
  len:int ->
  unit
