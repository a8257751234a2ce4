(** Layouts: congruent pairs of dimension and stride tuples (paper Section 3).

    A layout [\[dims : strides\]] maps logical coordinates to positions in
    one-dimensional physical memory by a dot product of (hierarchical)
    coordinates with strides. Hierarchical dimensions — a dimension whose
    size is itself a tuple — give one logical dimension several strides,
    expressing layouts beyond row/column-major (paper Figure 3) without
    increasing the tensor's rank.

    The algebra (coalesce, composition, complement, tiling) follows NVIDIA's
    CuTe shape algebra, which the paper cites as the basis of its notation.
    Algebraic operations require concrete (constant) layouts except where
    documented; coordinate-to-index computation is fully symbolic. *)

type t = private { dims : Int_tuple.t; strides : Int_tuple.t }

exception Layout_error of string

(** {1 Construction} *)

(** [make dims strides] checks congruence. Raises [Layout_error] if the
    profiles differ. *)
val make : Int_tuple.t -> Int_tuple.t -> t

(** [of_pairs [(d0, s0); (d1, s1); ...]] builds a flat layout from
    (dimension, stride) integers. *)
val of_pairs : (int * int) list -> t

(** [of_flat pairs] is [of_pairs] that collapses a single pair to a 1-D
    layout and the empty list to the size-1 layout [(1:0)] — the
    normalization the algebra's results use. *)
val of_flat : (int * int) list -> t

(** Row-major (rightmost dimension fastest in memory). *)
val row_major : int list -> t

(** Column-major (leftmost dimension fastest in memory); also the layout of
    CuTe's default "packed" tensors. *)
val col_major : int list -> t

(** Symbolic row-major from dimension expressions. *)
val row_major_e : Int_expr.t list -> t

(** A 1-D layout [\[d : s\]]. *)
val vector : ?stride:int -> int -> t

(** {1 Structure} *)

val dims : t -> Int_tuple.t
val strides : t -> Int_tuple.t
val rank : t -> int
val size : t -> Int_expr.t

(** Number of elements for a concrete layout. *)
val size_int : t -> int

(** One-past-the-largest physical index reached (concrete layouts only). *)
val cosize : t -> int

val equal : t -> t -> bool
val is_const : t -> bool

(** [mode l i] is the [i]-th top-level mode of [l] as a 1-D layout. *)
val mode : t -> int -> t

(** Concatenate layouts as modes of one layout. *)
val concat : t list -> t

(** {1 Coordinate mapping (symbolic)} *)

(** [index_of_coords l coords] gives the physical index for one logical
    coordinate expression per top-level mode. A hierarchical mode decomposes
    its logical coordinate leftmost-fastest (colexicographic) into leaf
    coordinates before the stride dot product. The trailing modulus of each
    mode is omitted (coordinates are assumed in range), matching the
    simplified index expressions of the paper's Figure 8. *)
val index_of_coords : t -> Int_expr.t list -> Int_expr.t

(** [index_of_linear l x] treats the whole layout as a single flattened mode
    and maps the linear coordinate [x] (leftmost mode fastest). This is the
    CuTe layout function; it is used to derive thread indices such as
    [bid_m = blockIdx.x % 8]. *)
val index_of_linear : t -> Int_expr.t -> Int_expr.t

(** [coords_of_linear l x] decomposes a linear coordinate into one coordinate
    expression per top-level mode, leftmost fastest. *)
val coords_of_linear : t -> Int_expr.t -> Int_expr.t list

(** {1 Concrete evaluation} *)

(** [nth_index l x] evaluates the layout function at linear coordinate [x].
    Concrete layouts only. *)
val nth_index : t -> int -> int

(** [all_indices l] is the image of the layout function over
    [0 .. size - 1]. *)
val all_indices : t -> int array

(** [index_of_int_coords l coords] evaluates [index_of_coords] on integer
    coordinates. *)
val index_of_int_coords : t -> int list -> int

(** {1 Algebra (concrete layouts)} *)

(** Merge adjacent contiguous modes and drop size-1 modes; the layout
    function is unchanged. Size-1 modes break fusion chains (matching the
    reference implementation of the conformance corpus): callers wanting
    maximal fusion should filter them out first. *)
val coalesce : t -> t

(** Concrete flattened (dimension, stride) leaf pairs, leftmost fastest.
    Raises [Layout_error] on symbolic layouts. *)
val flat_ints : t -> (int * int) list

(** [composition a b] is the layout of [fun x -> a (b x)]. Raises
    [Layout_error] when the required divisibility conditions fail. *)
val composition : t -> t -> t

(** [complement t n] is the layout enumerating, in increasing physical order,
    the indices of \[0, n) {e not} reached by [t] (modulo repetition of [t]'s
    pattern). [composition l (complement t (size l))] enumerates tile
    origins. *)
val complement : t -> int -> t

(** [reshape l dims] reinterprets [l]'s elements under new dimensions of
    equal total size, leftmost fastest — used to rearrange thread groups
    (paper Figure 5c). *)
val reshape : t -> Int_tuple.t -> t

(** [with_shape l dims] is [reshape] with a congruence guarantee: the
    result's profile equals [dims] exactly (nested expansions are coalesced
    back, or [Layout_error] is raised). CuTe: [Layout::with_shape]. *)
val with_shape : t -> Int_tuple.t -> t

(** {1 Division and product (CuTe layout algebra)} *)

(** [logical_divide a b] = [composition a (make_layout b (complement b (size a)))]:
    a rank-2 layout whose mode 0 is the tile [b] read through [a] and whose
    mode 1 enumerates the rest (the tile origins). CuTe: [logical_divide]
    on layout arguments. *)
val logical_divide : t -> t -> t

(** [logical_divide_by l tiler] applies logical division per top-level
    mode: each divided mode's profile is its tile spec's top-level modes
    followed by the rest part as one trailing mode. CuTe: [logical_divide]
    with a tiler. [None] keeps the whole dimension as the tile. *)
val logical_divide_by : t -> t option list -> t

(** [zipped_divide l tiler] regroups the per-mode parts into rank 2:
    mode 0 gathers every tile part, mode 1 every rest part —
    [((tile_1, ..., tile_n), (rest_1, ..., rest_n))]. *)
val zipped_divide : t -> t option list -> t

(** [tiled_divide l tiler] keeps the gathered tile as mode 0 and splices
    each rest part as its own top-level mode:
    [((tile_1, ..., tile_n), rest_1, ..., rest_n)]. *)
val tiled_divide : t -> t option list -> t

(** [logical_product a b] = [(a, composition (complement a (size a * cosize b)) b)]:
    mode 0 is one tile [a], mode 1 places [size b] repetitions of it where
    [b] points. CuTe: [logical_product]. *)
val logical_product : t -> t -> t

(** {1 Inverses} *)

(** [right_inverse l]: the layout [r] with [l (r y) = y] for [y] in
    [0, cosize l). Requires [l] compact and bijective (sorted strides form
    exact prefix products); raises [Layout_error] otherwise. *)
val right_inverse : t -> t

(** [left_inverse l]: the layout [r] with [r (l x) = x] for [x] in
    [0, size l). Requires [l] injective; completes [l] with its complement
    and right-inverts. *)
val left_inverse : t -> t

(** [inverse_index l x] — symbolic application of the right inverse: the
    linear coordinate whose image under [l] is physical index [x],
    component [(x / s) mod d] per leaf recombined leftmost-fastest.
    Size-1 leaves contribute zero. Valid for injective layouts. *)
val inverse_index : t -> Int_expr.t -> Int_expr.t

(** {1 Tiling (paper Section 3.3)} *)

(** A per-dimension tile specification: a 1-D layout selecting which logical
    positions of that dimension fall into one tile ([None] keeps the whole
    dimension, written [_] in the paper). *)
type tiler = t option list

(** [divide l tiler] splits [l] into [(outer, inner)]: [inner] is the layout
    of a single tile, [outer] the layout of tile origins; both have the rank
    of [l]. Symbolic dimensions are supported for plain contiguous tile
    specs; hierarchical specs require concrete dimensions. Tile sizes that do
    not evenly divide a dimension overapproximate the outer extent (partial
    tiles, paper Section 3.4); accesses must then be predicated. *)
val divide : t -> tiler -> t * t

(** [tile_spec ?stride n] is shorthand for [Some (vector ?stride n)]. *)
val tile_spec : ?stride:int -> int -> t option

(** {1 Composed layouts (swizzle ∘ layout)}

    The functional composition [S ∘ (L + offset)] of a bit-XOR {!Swizzle}
    with a layout: [composed_nth c x = S (offset + L x)]. This is the form
    shared-memory staging views take (paper Section 4.2); the vectorize
    pass derives its swizzle-low-window legality and the bank lint derives
    warp address images from it. *)

type composed =
  { c_base : t
  ; c_offset : int  (** added before the swizzle is applied *)
  ; c_swizzle : Swizzle.t
  }

val compose_swizzle : ?offset:int -> Swizzle.t -> t -> composed

(** [composed_nth c x] = [Swizzle.apply c.c_swizzle (c.c_offset + nth_index c.c_base x)]. *)
val composed_nth : composed -> int -> int

(** The image of the composed layout over [0 .. size - 1]. *)
val composed_indices : composed -> int array

(** The swizzle's untouched low-bit window ([max_int] for the identity):
    a width-[w] vector access is swizzle-legal iff [w <=] this. *)
val composed_low_window : composed -> int

(** Coalesce the base layout; the composed function is unchanged. *)
val composed_coalesce : composed -> composed

val pp_composed : Format.formatter -> composed -> unit
val composed_to_string : composed -> string

(** {1 Printing} *)

(** Prints the canonical CuTe form [(dims:strides)], e.g.
    [((2,(3,4)):(1,(2,6)))]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** {1 Substitution} *)

(** [subst bindings l] replaces parameters in dims and strides, simplifying
    the results; instantiates a parametric layout to a concrete one. *)
val subst : (string * Int_expr.t) list -> t -> t

(** The rank-0 layout [\[():()\]] of a scalar view (size 1). *)
val empty : t
