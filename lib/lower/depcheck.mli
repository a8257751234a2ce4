(** Slot-dependence analysis: classifies every compiled plan quantity
    (view offset enumerations, collective member functions) by the most
    frequently changing slot it reads, i.e. how often its value can
    change.

    - [Launch]: constants and scalar parameters only — once per launch.
    - [Block]: reads [blockIdx.x] — once per thread block.
    - [Loop]: reads an enclosing loop counter — once per iteration of
      the innermost mentioned loop.
    - [Thread]: reads [threadIdx.x] — per lane.

    Results ride on the plan as {!dep} annotations; the depcheck pass in
    {!Pipeline} computes one per compiled view and member function. The
    executor enumerates a [Thread] view per lane and any other view once
    per call, and reuses a collective's member groups while the slots of
    its member function's [d_vars] are unchanged; the plan listing
    prints every tier. *)

type tier = Launch | Block | Loop | Thread

type dep =
  { d_tier : tier
  ; d_vars : string list
        (** the dynamic, non-thread variables read ([blockIdx.x] and/or
            enclosing loop binders) — for a member function, the
            executor's group-cache key *)
  }

val tier_name : tier -> string

(** [of_vars ~loops vars] — classify a free-variable set. [loops] are the
    enclosing loop binders (innermost first). *)
val of_vars : loops:string list -> string list -> dep

val view_dep : loops:string list -> Gpu_tensor.Tensor.t -> dep
val members_dep : loops:string list -> Gpu_tensor.Thread_tensor.t -> dep

(** Per-leaf annotation: one {!dep} per input/output view in spec order,
    plus the member-function dep for collective instructions. *)
type leaf =
  { ins : dep list
  ; outs : dep list
  ; members : dep option
  }

val of_leaf : loops:string list -> Graphene.Spec.t -> per_thread:bool -> leaf
val pp_dep : Format.formatter -> dep -> unit
val dep_to_string : dep -> string
