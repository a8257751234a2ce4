(** Logical thread groups: the GPU compute hierarchy as tensors (paper
    Section 4).

    A thread tensor maps logical coordinates to {e linear} unit ids
    (threadIdx.x or blockIdx.x). Tiling and reshaping a thread tensor
    expresses arbitrary thread arrangements — contiguous 8-thread ldmatrix
    groups (Figure 5) or Volta's non-contiguous quad-pairs (Figure 6) —
    without built-in hierarchies; the scalar thread-index expressions of
    CUDA C++ are derived from the layout at code-generation time. *)

type kind = Thread | Block

type elem = Unit | Group of { layout : Shape.Layout.t; elem : elem }

type t = private
  { name : string
  ; kind : kind
  ; layout : Shape.Layout.t  (** logical coords -> linear unit id *)
  ; elem : elem
  ; offset : Shape.Int_expr.t  (** base linear unit id of this view *)
  }

(** {1 Construction} *)

(** [create name layout kind]: [layout] maps logical coordinates to linear
    unit ids. *)
val create : string -> Shape.Layout.t -> kind -> t

(** [linear name n kind] — [n] contiguous units, e.g. [linear "warp" 32
    Thread]. *)
val linear : string -> int -> kind -> t

(** [grid name dims] / [cta name dims] — packed multi-dimensional
    arrangements of blocks / threads (leftmost coordinate fastest in the
    linear id, as in paper Figure 8). *)
val grid : string -> int list -> t

val cta : string -> int list -> t

(** {1 Inspection} *)

val size : t -> int

(** Number of units in one innermost group. *)
val group_size : t -> int

val rank : t -> int
val levels : t -> Shape.Layout.t list

(** Variables occurring in the arrangement (every level's layout and the
    base offset), sorted and unique. *)
val free_vars : t -> string list

(** {1 Manipulation} *)

(** [tile t tiler] — nest: outer arranges groups, element is the group. *)
val tile : t -> Shape.Layout.tiler -> t

(** [reshape t dims] rearranges the outermost level, leftmost fastest
    (paper Figure 5c). *)
val reshape : t -> Shape.Int_tuple.t -> t

(** [select t coords] picks a group (or a single unit on an unworked
    tensor) by outer coordinates. *)
val select : t -> Shape.Int_expr.t list -> t

val select_ints : t -> int list -> t

(** {1 Code generation support} *)

(** [coord_exprs t id] — the logical coordinates of the unit with linear id
    [id] (an expression such as [Var "threadIdx.x"]), one per top-level
    mode: the inverse of the layout, e.g. [(tid / 16) % 2] for a mode of
    extent 2 and stride 16 (paper Figure 5). *)
val coord_exprs : t -> Shape.Int_expr.t -> Shape.Int_expr.t list

(** {1 Simulation support} *)

(** All linear unit ids contained in the view (every level expanded),
    sorted ascending. A symbolic base offset is evaluated with [env];
    without an [env] it raises [Invalid_argument]. *)
val member_ids : ?env:(string -> int) -> t -> int array

(** Linear unit ids of the group at the given outer coordinates. *)
val group_member_ids : t -> int list -> int array

(** {1 Printing} *)

(** Paper notation: [#name:[dims:strides].thread]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string
