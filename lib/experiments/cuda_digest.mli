(** Generated-CUDA goldens, written by [bin/gen_golden.ml] and checked by
    test_codegen. *)

(** [(file, arch, build)]: the kernels whose full CUDA listing is pinned
    in [test/golden/<file>]. *)
val listings :
  (string * Graphene.Arch.t * (unit -> Graphene.Spec.kernel)) list

(** One [<label> <md5 of Codegen.Emit.cuda>] line per kernel of a fixed
    corpus, or [<label> error: <exception>] when building or emitting
    raises; pinned in [test/golden/cuda_digests.txt]. The corpus: the
    tensor-core GEMM on both architectures across configurations,
    epilogues and sizes; its bf16, batched, split-K and transposed-operand
    forms; LSTM, MLP, GEMM-LayerNorm and FMHA; the CLI presets; and a
    seeded sample of the gemm and fmha search spaces. *)
val lines : unit -> string list
