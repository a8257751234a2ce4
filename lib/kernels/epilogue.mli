(** Pointwise epilogues fused into GEMM-like kernels (paper Figure 10):
    optional bias addition followed by an optional activation. *)

type t = { bias : bool; act : Graphene.Op.unary option }

val none : t
val bias : t
val relu : t
val bias_relu : t
val bias_gelu : t

(** Display name as used in the paper's plots, e.g. ["bias+relu"]. *)
val name : t -> string

(** Extra flops per output element (bias add + activation estimate). *)
val flops_per_element : t -> int
