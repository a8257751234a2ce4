(** Each kernel family at its test shape: the presets behind the CLI's
    [ir], [codegen], [lower], [simulate] and [profile] commands, and the
    simulator digests pinned in [test/golden/sim_digests.txt]. *)

(** The preset names, e.g. ["gemm-tc"], in CLI order. *)
val names : string list

(** [build arch name] — the kernel, its seeded arguments (every global
    parameter, outputs zero-filled) and a check of the outputs against
    the CPU reference, to call after executing the kernel on those very
    arguments. Raises [Invalid_argument] for a name not in {!names}. *)
val build :
  Graphene.Arch.t ->
  string ->
  Graphene.Spec.kernel * (string * float array) list * (unit -> bool)
