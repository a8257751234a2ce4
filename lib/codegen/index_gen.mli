(** Index-expression generation from tensor views (paper Section 5.5:
    "for tensor manipulations we build ASTs and compile those into thread
    index and buffer access expressions"). *)

(** [element_offset view k] — the physical buffer offset (in scalar
    elements, before swizzling) of the [k]-th scalar of the view, counting
    innermost level fastest. Symbolic outer levels are allowed as long as
    [k] stays within the concrete inner levels. Raises [Invalid_argument]
    otherwise. *)
val element_offset : Gpu_tensor.Tensor.t -> int -> Shape.Int_expr.t

(** [ref_string view k] — a CUDA lvalue for that scalar, e.g.
    [A[(bid_m * 128 + i) * 1024 + k]], with the view's swizzle applied. *)
val ref_string : Gpu_tensor.Tensor.t -> int -> string
