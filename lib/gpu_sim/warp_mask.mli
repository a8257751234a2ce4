(** Per-warp activity bitmasks for the plan executor.

    One 32-bit word per warp: word [w], bit [l] marks thread
    [w * 32 + l] active. Iteration is ascending (word order, then bit
    order), matching the ordering of the list-based active sets this
    module replaces, so every observable sequence — address batches,
    execution events, collective group probes — is bit-identical. *)

type t = int array

val word_bits : int

(** Words needed for a CTA of the given size. *)
val nwords : cta_size:int -> int

(** All threads of the CTA active (partial last word). *)
val full : cta_size:int -> t

(** Branch-free SWAR popcount of one 32-bit word. *)
val popcount32 : int -> int

val popcount : t -> int
val is_empty : t -> bool

(** [mem m tid] — bounds-checked; out-of-range ids are inactive. *)
val mem : t -> int -> bool

(** Ascending iteration over active thread ids. *)
val iter : (int -> unit) -> t -> unit

val equal : t -> t -> bool
