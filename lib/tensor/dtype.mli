(** Scalar element types of Graphene tensors (paper Figure 2). *)

type t = FP16 | BF16 | FP32 | FP64 | I8 | I32 | U32 | Bool

val size_bytes : t -> int

(** Name in Graphene IR notation, e.g. ["fp16"]. *)
val to_ir_string : t -> string

(** CUDA C++ type name, e.g. ["half"], ["float"]. *)
val to_cuda_string : t -> string

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

(** Round a float through the precision of [t] (fp16/bf16 rounding for the
    simulator; identity for 32/64-bit types). *)
val round : t -> float -> float

(** [round_into t src ~pos dst ~len] — [dst.(i) <- round t src.(pos + i)]
    for [i < len], without allocating. Raises [Invalid_argument] when
    either range is out of bounds. *)
val round_into : t -> float array -> pos:int -> float array -> len:int -> unit
