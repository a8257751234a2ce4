(** GPU memory spaces a Graphene tensor can live in (paper Figure 2). *)

type t =
  | Global  (** off-chip device memory, visible to the whole grid *)
  | Shared  (** on-chip, shared by the threads of one thread-block *)
  | Register  (** thread-local registers *)

(** Graphene IR label: ["GL"], ["SH"], ["RF"]. *)
val to_ir_string : t -> string

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
