(** Atomic specifications: the instruction-level leaves of a decomposition
    (paper Section 5.2, Table 2).

    A spec without decomposition is matched against this registry; a match
    associates it with a GPU instruction, fixing its code generation (inline
    PTX), its simulator semantics and its cost for the performance model.
    Consumers dispatch on the instruction's {!klass}, never on its name. *)

(** Per-instance resource usage, used by the static analyzer. *)
type cost =
  { flops : int
  ; global_bytes : int  (** bytes moved to/from global memory *)
  ; shared_bytes : int  (** bytes moved to/from shared memory *)
  ; instructions : int  (** issued instructions *)
  }

(** What an instruction is: the one fact lowering, the simulator's
    semantics and accounting, static analysis and code generation branch
    on. Set by each registry constructor. *)
type klass =
  | Global_move  (** per-thread global <-> register move *)
  | Shared_move  (** per-thread shared <-> register move *)
  | Mov  (** register-to-register move *)
  | Cvt  (** register-to-register type conversion *)
  | Cp_async
      (** deferred global -> shared copy, landing at a draining
          [cp.async.wait_group] *)
  | Async_fence
      (** cp.async commit/wait: statement-level in the IR, never matched *)
  | Ldmatrix of { x : int; trans : bool }
      (** warp-wide load of [x] 8x8 matrices, [trans]posed or not *)
  | Mma of { m : int; n : int; k : int }  (** tensor-core [mma.mMnNkK] *)
  | Fma  (** per-thread CUDA-core multiply-accumulate *)
  | Unary_pw
  | Binary_pw
  | Reduction  (** per-thread sequential reduction *)
  | Shfl  (** warp shuffle *)
  | Init  (** uniform scalar assignment *)

type instr =
  { name : string
        (** registry key, e.g. ["ldmatrix.x4"]: keys instruction mixes,
            traces and reports *)
  ; klass : klass
  ; ptx : string
        (** the associated PTX instruction (paper Table 2); code
            generation prints it for the inline-asm instructions *)
  ; archs : Arch.t list  (** architectures providing the instruction *)
  ; threads : int  (** participating threads per instance *)
  ; sig_threads : string  (** Table 2 display: thread arrangement *)
  ; sig_ins : string  (** Table 2 display: input tensors *)
  ; sig_outs : string  (** Table 2 display: output tensors *)
  ; matches : Spec.t -> bool
  ; cost : Spec.t -> cost
  }

(** The full registry, in matching priority order (more specific
    instructions first). *)
val registry : instr list

(** Number of {!find} invocations since program start. The lowering
    pipeline promises to resolve each leaf spec at most once per kernel
    (not once per block or loop iteration); tests pin that down by
    sampling this counter around a lowering. *)
val find_calls : int ref

(** [find arch spec] — the first available instruction matching an
    undecomposed spec. *)
val find : Arch.t -> Spec.t -> instr option

(** [find_exn] raises [Failure] with a description of the unmatched spec. *)
val find_exn : Arch.t -> Spec.t -> instr

(** [lookup name] — registry entry by name. *)
val lookup : string -> instr option

(** {1 ldmatrix addressing} *)

(** [tile_coords outer_dims j] — coordinates of the [j]-th tile among
    the outer tiles [outer_dims], leftmost-fastest: the hardware's matrix
    order for an ldmatrix source. *)
val tile_coords : int list -> int -> int list

(** [ldmatrix_rows ~trans x src] — the row views an [ldmatrix.x<x>]
    reads: [.(j).(r)] is stored row [r] of matrix [j] (a logical column
    for the [.trans] variants), each supplied as one 16-byte address by
    one lane. The lowering compiles their first-scalar offsets; the tree
    interpreter evaluates them symbolically. Raises when an outer extent
    of [src] is symbolic. *)
val ldmatrix_rows :
  trans:bool -> int -> Gpu_tensor.Tensor.t -> Gpu_tensor.Tensor.t array array

(** Render the registry as the paper's Table 2. *)
val pp_table : Format.formatter -> Arch.t option -> unit
