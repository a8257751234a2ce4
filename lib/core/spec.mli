(** Specifications (specs) and decompositions — the Graphene IR core
    (paper Section 5).

    A spec encapsulates a self-contained block of computation or data
    movement: its input and output tensor views, the thread group that
    executes it, and optionally a {e decomposition} — statements (control
    flow and nested specs) that implement it. A spec without decomposition
    must match an {e atomic spec} (see {!Atomic}), i.e. a GPU instruction.

    Tensor views inside a kernel body may reference the special variables
    ["blockIdx.x"] / ["threadIdx.x"] and any enclosing loop variables; these
    are printed verbatim by the CUDA backend and bound to concrete values by
    the simulator. *)

type shfl_kind =
  | Bfly of int  (** butterfly exchange with lane XOR mask *)
  | Up of int
  | Down of int
  | Idx of Shape.Int_expr.t  (** read from an explicit source lane *)

type kind =
  | Move  (** data movement between memory levels (paper Table 1) *)
  | Mat_mul  (** matrix-multiply-accumulate: C += A @ B *)
  | Unary_pointwise of Op.unary
  | Binary_pointwise of Op.binary
  | Reduction of { op : Op.binary; axes : int list }
  | Shfl of shfl_kind
  | Init of float  (** uniformly assign a scalar *)
  | Generic of string  (** fused computations, defined by decomposition *)

type rel = Lt | Le | Eq | Ne | Gt | Ge

type pred =
  | Cmp of rel * Shape.Int_expr.t * Shape.Int_expr.t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type stmt =
  | Spec_stmt of t
  | For of
      { var : string
      ; lo : Shape.Int_expr.t
      ; hi : Shape.Int_expr.t  (** exclusive *)
      ; step : Shape.Int_expr.t
      ; unroll : bool
      ; body : stmt list
      }
  | If of { cond : pred; then_ : stmt list; else_ : stmt list }
  | Alloc of Gpu_tensor.Tensor.t  (** the Allocate spec of paper Table 1 *)
  | Sync  (** __syncthreads() *)
  | Commit_group  (** cp.async.commit_group: seal the pending async copies *)
  | Wait_group of int
      (** cp.async.wait_group N: block until at most N committed async-copy
          groups remain in flight (their deferred writes land) *)
  | Comment of string

and t =
  { kind : kind
  ; ins : Gpu_tensor.Tensor.t list
  ; outs : Gpu_tensor.Tensor.t list
  ; threads : Gpu_tensor.Thread_tensor.t
        (** participating threads, block-relative; views with
            [threadIdx.x]-dependent offsets denote one instance per group *)
  ; decomp : stmt list option
  ; label : string
  }

(** A complete device kernel: the outermost spec with its launch
    configuration made explicit. *)
type kernel =
  { name : string
  ; params : Gpu_tensor.Tensor.t list  (** global-memory parameters *)
  ; scalar_params : string list  (** symbolic size parameters, e.g. M N K *)
  ; grid : Gpu_tensor.Thread_tensor.t
  ; cta : Gpu_tensor.Thread_tensor.t
  ; body : stmt list
  }

(** {1 Construction} *)

val make :
  ?label:string ->
  ?decomp:stmt list ->
  kind ->
  ins:Gpu_tensor.Tensor.t list ->
  outs:Gpu_tensor.Tensor.t list ->
  threads:Gpu_tensor.Thread_tensor.t ->
  t

(** {1 Traversal} *)

(** Depth-first fold over every spec in a statement list, outermost first,
    including specs nested in decompositions. *)
val fold_specs : ('a -> t -> 'a) -> 'a -> stmt list -> 'a

(** All [Alloc]ed tensors in a statement list (including nested). *)
val allocs : stmt list -> Gpu_tensor.Tensor.t list

(** Name of the kind, e.g. ["Move"], ["MatMul"], ["BinaryPW<add>"]. *)
val kind_name : kind -> string

(** {1 Predicates} *)

(** [pred_mentions var p] — whether variable [var] occurs in [p]; with
    ["threadIdx.x"], whether the branch may diverge within a warp. *)
val pred_mentions : string -> pred -> bool

(** [holds r x y] — the comparison [r] on two integers. *)
val holds : rel -> int -> int -> bool

(** [eval_pred env p] — [p] under the integer bindings [env]. *)
val eval_pred : (string -> int) -> pred -> bool

(** {1 Printing (paper-style IR listing)} *)

val pp_pred : Format.formatter -> pred -> unit
val pp_stmt : Format.formatter -> stmt -> unit
val pp : Format.formatter -> t -> unit
val pp_kernel : Format.formatter -> kernel -> unit
val kernel_to_string : kernel -> string
