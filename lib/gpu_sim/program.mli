(** Multi-kernel programs: a sequence of kernel launches with shared
    intermediate buffers (e.g. the split-K GEMM's fp32 partial tensor, or
    an unfused kernel chain used as a baseline).

    Execution allocates the intermediates, runs the kernels in order
    against the same buffer bindings, and merges their counters. (A
    sequence's time estimate is {!Perf_model.sequence} of the per-launch
    estimates, the paper's "cumulative library invocations".) *)

type t =
  { kernels : Graphene.Spec.kernel list
  ; intermediates : (string * int) list
        (** buffer name and element count, allocated zero-initialized *)
  }

val make :
  ?intermediates:(string * int) list -> Graphene.Spec.kernel list -> t

(** [run ~arch t ~args ~scalars ()] — [args] bind the external parameters;
    intermediates are created internally (and discarded). Returns the
    merged counters of all launches. *)
val run :
  arch:Graphene.Arch.t ->
  t ->
  args:(string * float array) list ->
  ?scalars:(string * int) list ->
  unit ->
  Counters.t

(** Every kernel must be well-formed on the architecture. *)
val validate : Graphene.Arch.t -> t -> string list
