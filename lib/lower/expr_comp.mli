(** Compilation of symbolic index arithmetic ([Shape.Int_expr] terms,
    predicates, tensor-view offset enumerations, thread arrangements) to
    OCaml closures over a dense [int array] environment indexed by
    {!Slots}.

    Compiled closures are observationally equivalent to the interpreter's
    symbolic evaluation: same values, same flooring division, and the same
    lazy faults (an unbound scalar raises {!Slots.Unbound_var} only when
    the closure actually runs).

    An expression the executor evaluates per lane — a per-lane view's
    offset, each side of a divergent guard's comparisons — is also split
    into two exact parts ({!lanes}): a uniform part that never reads
    [threadIdx.x], and a lane part that reads only [threadIdx.x] and
    scalar parameters, which the executor tabulates once per launch.
    Each split gets a dense plan-wide id from the plan's {!registry}. *)

type cexpr = int array -> int
type cview = int array -> int array

(** [compile slots scope e] — [scope] maps loop variables (and the
    builtin thread/block indices) to their slots; any other variable is
    treated as a scalar parameter and allocated a slot on first use. *)
val compile : Slots.t -> (string * int) list -> Shape.Int_expr.t -> cexpr

val compile_pred :
  Slots.t -> (string * int) list -> Graphene.Spec.pred -> int array -> bool

(** {1 Lane splits} *)

(** [e env = uniform env + lane env] for every environment, exactly in
    machine integers, overflow included: the split distributes only
    [+], [-] and products with a factor that reads only constants and
    scalar parameters; [/], [mod], [min] and [max] stay whole on one
    side. [uniform] never reads [threadIdx.x]; [lane] reads only
    [threadIdx.x] and scalar parameters. Every faulting subterm of [e]
    lands whole in one part, so the parts fault exactly when [e] does,
    and [uniform] meets its faulting subterms in [e]'s order. *)
type lanes =
  { id : int  (** dense plan-wide: indexes the executor's lane tables *)
  ; uniform : cexpr
  ; lane : cexpr
  }

(** The lane splits made for one plan, numbered densely from 0. *)
type registry

val registry : unit -> registry

(** Every split made so far, indexed by id. *)
val registered : registry -> lanes array

(** [None] when [e] mixes [threadIdx.x] with a loop counter or
    [blockIdx.x] under [/], [mod], [min], [max] or a product of two
    such terms; otherwise the split, numbered in the registry. *)
val compile_lanes :
  registry -> Slots.t -> (string * int) list -> Shape.Int_expr.t -> lanes option

(** {1 Views} *)

(** Sentinel first offset of a view that enumerates no scalars (the
    executor skips such views in address batches, exactly as the full
    enumeration path does). *)
val no_addr : int

(** A per-lane view with literal layout levels whose offset splits: its
    offsets at base offset [b] are {!view_offsets} [b], where [b] is the
    split offset's [uniform + lane]. *)
type view_lanes =
  { base : lanes
  ; rel : int array  (** relative offsets, innermost level fastest *)
  ; swizzle : Shape.Swizzle.t
  }

(** Offsets of a lane-split view at a base offset: a one-scalar view
    allocates one [[| x |]]. *)
val view_offsets : view_lanes -> int -> int array

(** First offset of a lane-split view at a base offset (a lane-split view
    enumerates at least one scalar). *)
val view_addr0 : view_lanes -> int -> int

(** One view, compiled once: one free-variable scan, one level table and
    one offset closure shared by [offsets] and [addr0]. *)
type view_code =
  { offsets : cview
        (** compiled [Tensor.scalar_offsets]: physical element offsets of
            every scalar, innermost level fastest, swizzle applied. Fully
            concrete views are enumerated once at compile time;
            literal layouts under a variable base offset reduce to one
            addition per scalar. *)
  ; addr0 : cexpr
        (** the first scalar offset, [offsets env .(0)], or {!no_addr}
            when the enumeration is empty — without materializing the
            enumeration. The address-batch accounting only reads
            element 0. *)
  ; per_lane : bool  (** the view reads [threadIdx.x] *)
  ; lanes : view_lanes option
        (** for a per-lane view whose levels are literal, enumerating at
            least one scalar, when its offset splits and [splits] is
            given *)
  }

(** [splits] numbers the view's lane split; without it the view is not
    split (a view read only through its first address needs no table). *)
val compile_view :
  ?splits:registry ->
  Slots.t ->
  (string * int) list ->
  Gpu_tensor.Tensor.t ->
  view_code

(** {1 Divergent guards} *)

(** A thread-dependent predicate with the lane split of each comparison
    side: every side has one, or none has (the executor reads a guard's
    tables only when every side has one). *)
type guard =
  | Cmp of Graphene.Spec.rel * lanes option * lanes option
  | And of guard * guard
  | Or of guard * guard
  | Not of guard

val compile_guard :
  registry -> Slots.t -> (string * int) list -> Graphene.Spec.pred -> guard

(** Every side of every comparison has a lane split. *)
val guard_split : guard -> bool

(** {1 Thread arrangements} *)

(** Compiled [Thread_tensor.member_ids]: [f env tid] binds the probing
    thread's id to the threadIdx slot and returns the sorted member ids
    of its collective instance. *)
val compile_members :
  Slots.t ->
  (string * int) list ->
  Gpu_tensor.Thread_tensor.t ->
  int array ->
  int ->
  int array

(** {1 Internals exposed for tests} *)

val cartesian_indices : int array -> int array -> int array
