(** Seeded simulator digests: for each case, the float bits of every
    argument buffer after the run (as an MD5) and every {!Gpu_sim.Counters}
    field, under {!Gpu_sim.Interp.run_plan} and {!Gpu_sim.Interp.run_tree}
    at one domain. [bin/gen_golden.ml] writes {!lines} to
    [test/golden/sim_digests.txt]; test_bytecode checks both executors
    against that file. *)

type case =
  { name : string
        (** a {!Presets} name, ["gemm-tc-bf16"] or ["ffn-29x48x24"] *)
  ; arch : Graphene.Arch.t
  ; stages : int  (** the swpipe depth requested at lowering *)
  }

(** Every {!Presets} kernel on both architectures at one stage, three
    stages wherever the swpipe pass pipelines it, a bf16 tensor-core
    GEMM on sm86, and the serving engine's FFN kernel (the parametric
    naive GEMM, a 29x48x24 request on its 32x64 launch grid, with its
    scalars bound) on both architectures. *)
val cases : unit -> case list

(** [line ~engine c] — run case [c] on its seeded inputs and format
    [<name>/<arch>/s<stages> <plan|tree> out=<md5> <field>=<n> ...
    mix:<instr>=<n> ...]. *)
val line : engine:[ `Plan | `Tree ] -> case -> string

(** Both executors' lines for every case, plan first. *)
val lines : unit -> string list
