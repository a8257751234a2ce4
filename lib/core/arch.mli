(** Target GPU architectures used in the paper's evaluation. *)

type t =
  | SM70  (** Volta (V100) *)
  | SM86  (** Ampere (RTX A6000) *)

val name : t -> string

(** Marketing name used in plots, e.g. ["Volta (V100)"]. *)
val display_name : t -> string

(** Usable shared-memory capacity per thread block in bytes: the
    legality bound of lowering passes and search, and the occupancy
    limit of the performance model. *)
val smem_bytes_per_block : t -> int

(** Maximum in-flight committed cp.async groups; 0 when the architecture
    has no asynchronous copies (pre-Ampere). *)
val async_queue_depth : t -> int

(** {1 Memory-system rules}

    Both take the byte addresses of one warp-synchronous access batch —
    the first [len] entries of [addresses], one per participating thread,
    each accessing [bytes] bytes. The simulator's counters and profiler
    traces and the lowering's static bank lint all call these. *)

(** Distinct 32-byte DRAM sectors the batch touches (coalescing). *)
val global_sectors : bytes:int -> int array -> len:int -> int

(** Extra serialized shared-memory cycles of the batch: per phase of
    [128 / bytes] threads, the largest number of {e distinct} 4-byte
    words mapping to one of 32 banks, minus one (a broadcast of one word
    is free). *)
val shared_conflicts : bytes:int -> int array -> len:int -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val all : t list
