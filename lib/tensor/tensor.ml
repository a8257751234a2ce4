module L = Shape.Layout
module E = Shape.Int_expr

type elem = Scalar of Dtype.t | Tile of { layout : L.t; elem : elem }

type t =
  { name : string
  ; buffer : string
  ; layout : L.t
  ; elem : elem
  ; mem : Memspace.t
  ; swizzle : Shape.Swizzle.t
  ; offset : E.t
  }

let create ?(swizzle = Shape.Swizzle.none) name layout dtype mem =
  { name
  ; buffer = name
  ; layout
  ; elem = Scalar dtype
  ; mem
  ; swizzle
  ; offset = E.zero
  }

let create_rm name dims dtype mem = create name (L.row_major dims) dtype mem

let rec elem_dtype = function
  | Scalar dt -> dt
  | Tile { elem; _ } -> elem_dtype elem

let dtype t = elem_dtype t.elem
let mem t = t.mem
let rank t = L.rank t.layout

let levels t =
  let rec go acc = function
    | Scalar _ -> List.rev acc
    | Tile { layout; elem } -> go (layout :: acc) elem
  in
  go [ t.layout ] t.elem

let depth t = List.length (levels t)

let num_scalars t =
  List.fold_left (fun acc l -> E.mul acc (L.size l)) E.one (levels t)

let num_scalars_int t = E.to_int_exn (num_scalars t)

let free_vars t =
  let of_layout l =
    List.concat_map E.free_vars
      (Shape.Int_tuple.flatten (L.dims l)
      @ Shape.Int_tuple.flatten (L.strides l))
  in
  List.sort_uniq String.compare
    (E.free_vars t.offset @ List.concat_map of_layout (levels t))

let is_const t = free_vars t = []

let tile t tiler =
  let outer, inner = L.divide t.layout tiler in
  { t with layout = outer; elem = Tile { layout = inner; elem = t.elem } }

let select t coords =
  let off = L.index_of_coords t.layout coords in
  let offset = E.add t.offset off in
  match t.elem with
  | Tile { layout; elem } -> { t with layout; elem; offset }
  | Scalar _ -> { t with layout = L.empty; offset }

let select_ints t coords = select t (List.map E.const coords)
let reshape t dims = { t with layout = L.reshape t.layout dims }
let rename t name = { t with name }

let subst bindings t =
  let rec subst_elem = function
    | Scalar dt -> Scalar dt
    | Tile { layout; elem } ->
      Tile { layout = L.subst bindings layout; elem = subst_elem elem }
  in
  { t with
    layout = L.subst bindings t.layout
  ; elem = subst_elem t.elem
  ; offset = E.subst bindings t.offset
  }

let composed ~env t =
  (* The view's full scalar enumeration as one composed layout
     S ∘ (L + offset): the levels concatenate innermost-fastest (each inner
     level's leaves vary before the enclosing level's), which is exactly
     the cartesian sum order of the per-level images. *)
  let bindings = List.map (fun v -> (v, E.const (env v))) (free_vars t) in
  let t = subst bindings t in
  let base = E.to_int_exn t.offset in
  L.compose_swizzle ~offset:base t.swizzle (L.concat (List.rev (levels t)))

let scalar_offsets ~env t = L.composed_indices (composed ~env t)

let scalar_offset ~env t =
  match scalar_offsets ~env t with
  | [| x |] -> x
  | a ->
    invalid_arg
      (Printf.sprintf "Tensor.scalar_offset: view holds %d scalars"
         (Array.length a))

(* A swizzle permutes aligned power-of-two windows; pad the allocation to
   a whole number of windows. *)
let alloc_size t =
  let w = Shape.Swizzle.window t.swizzle in
  (L.cosize t.layout + w - 1) / w * w

let rec pp_elem fmt = function
  | Scalar dt -> Dtype.pp fmt dt
  | Tile { layout; elem } ->
    Format.fprintf fmt "%a.%a" L.pp layout pp_elem elem

let pp fmt t =
  Format.fprintf fmt "%%%s:%a.%a.%a" t.name L.pp t.layout pp_elem t.elem
    Memspace.pp t.mem;
  if not (Shape.Swizzle.is_identity t.swizzle) then
    Format.fprintf fmt "^%a" Shape.Swizzle.pp t.swizzle

let to_string t = Format.asprintf "%a" pp t

let reinterpret t ~layout ~elem ~offset = { t with layout; elem; offset }
