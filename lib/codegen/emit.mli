(** CUDA C++ code generation (paper Section 5.5).

    "Since Graphene IR precisely describes the implementation of tensor
    computations, generating CUDA C++ code boils down to printing the IR as
    valid CUDA C++": control flow prints as loops/ifs, tensor manipulations
    compile to index expressions ({!Index_gen}), and undecomposed specs are
    matched against the atomic registry and print as the associated
    instruction, chosen by its class — inline PTX asm, with the registry's
    mnemonic, for tensor instructions such as [ldmatrix] and [mma] (paper
    Figures 1c and 8). *)

(** [cuda arch kernel] — the full translation unit: header comment, helper
    device functions, and the [__global__] kernel. Raises [Failure] when an
    undecomposed spec matches no atomic spec on [arch] (run
    {!Graphene.Validate.check} first for a friendlier report). *)
val cuda : Graphene.Arch.t -> Graphene.Spec.kernel -> string
