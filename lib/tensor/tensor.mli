(** Graphene data tensors (paper Section 3).

    A tensor has a name, a (possibly hierarchically tiled) shape, an element
    type, and a memory space; tiled tensors have nested shapes whose element
    type is another shape (paper Figure 2). Values of this type are {e views}:
    they carry a reference to an underlying buffer, a symbolic base offset,
    and an optional swizzle, so that tiling and indexing produce new views of
    the same storage — the strides at every nesting level count scalar
    elements of the innermost type, matching the paper's convention. *)

type elem = Scalar of Dtype.t | Tile of { layout : Shape.Layout.t; elem : elem }

type t = private
  { name : string  (** display name of this view *)
  ; buffer : string  (** name of the underlying allocation *)
  ; layout : Shape.Layout.t  (** outermost level *)
  ; elem : elem
  ; mem : Memspace.t
  ; swizzle : Shape.Swizzle.t  (** applied to the final physical index *)
  ; offset : Shape.Int_expr.t  (** base offset into [buffer], in scalars *)
  }

(** {1 Construction} *)

(** [create name layout dtype mem] declares a fresh (untiled) tensor whose
    buffer carries the same name. *)
val create :
  ?swizzle:Shape.Swizzle.t ->
  string ->
  Shape.Layout.t ->
  Dtype.t ->
  Memspace.t ->
  t

(** Row-major tensor of the given dimensions. *)
val create_rm : string -> int list -> Dtype.t -> Memspace.t -> t

(** {1 Inspection} *)

(** Innermost scalar type. *)
val dtype : t -> Dtype.t

val mem : t -> Memspace.t

(** Rank of the outermost level. *)
val rank : t -> int

(** Layouts of all nesting levels, outermost first. *)
val levels : t -> Shape.Layout.t list

(** Number of nesting levels (1 for an untiled tensor). *)
val depth : t -> int

(** Total number of scalar elements across all levels. *)
val num_scalars : t -> Shape.Int_expr.t

(** Concrete variant of [num_scalars]; raises on parametric views. *)
val num_scalars_int : t -> int

(** Parameters occurring in the view (layout and offset). *)
val free_vars : t -> string list

val is_const : t -> bool

(** {1 View manipulation (paper Sections 3.3, 5)} *)

(** [tile t tiler] nests the outermost level: the result's outer shape
    arranges tiles, its element is the tile (paper Figure 4). *)
val tile : t -> Shape.Layout.tiler -> t

(** [select t coords] indexes the outermost level with one coordinate
    expression per mode. On a tiled tensor this picks a tile; on an untiled
    tensor the result is a rank-0 scalar view. *)
val select : t -> Shape.Int_expr.t list -> t

(** [select_ints t coords] is [select] with integer coordinates. *)
val select_ints : t -> int list -> t

(** [reshape t dims] reinterprets the outermost level (leftmost fastest). *)
val reshape : t -> Shape.Int_tuple.t -> t

(** Rename the view (e.g. to give intermediate views the paper's [%n]
    names). *)
val rename : t -> string -> t

(** [subst bindings t] instantiates parameters in the view. *)
val subst : (string * Shape.Int_expr.t) list -> t -> t

(** {1 Physical addressing} *)

(** [composed ~env t] — the view's full scalar enumeration as one composed
    layout [S ∘ (L + offset)]: the levels concatenated innermost-fastest
    under the view's swizzle and base offset. [scalar_offsets] is its
    image; the vectorize pass and bank lint derive legality from it.
    Requires all parameters bound by [env]. *)
val composed : env:(string -> int) -> t -> Shape.Layout.composed

(** [scalar_offsets ~env t] enumerates the physical buffer offsets of every
    scalar in the view, innermost level fastest, after applying the swizzle.
    Equals [Layout.composed_indices (composed ~env t)]. *)
val scalar_offsets : env:(string -> int) -> t -> int array

(** [scalar_offset ~env t] — the view's single scalar offset; raises
    [Invalid_argument] when the view holds more than one scalar. *)
val scalar_offset : env:(string -> int) -> t -> int

(** [alloc_size t] — scalars to allocate for the buffer of [t]: the
    layout's cosize rounded up to whole swizzle windows. The simulator
    and the CUDA backend both size shared allocations with it. *)
val alloc_size : t -> int

(** {1 Printing} *)

(** Paper notation: [%name:[dims:strides].[...].fp16.SH]. Unit strides of
    plain levels are kept (they are cheap to read and unambiguous). *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** [reinterpret t ~layout ~elem ~offset] — an escape hatch constructing an
    arbitrary view of [t]'s buffer (layout, nesting and base offset given
    explicitly, in scalars of the buffer's element type). Used for views
    whose structure is prescribed by an instruction rather than derived by
    tiling, e.g. the transposed B-operand source of [ldmatrix.trans]. *)
val reinterpret :
  t -> layout:Shape.Layout.t -> elem:elem -> offset:Shape.Int_expr.t -> t
