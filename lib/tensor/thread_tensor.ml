module L = Shape.Layout
module E = Shape.Int_expr
module T = Shape.Int_tuple

type kind = Thread | Block

type elem = Unit | Group of { layout : L.t; elem : elem }

type t =
  { name : string
  ; kind : kind
  ; layout : L.t
  ; elem : elem
  ; offset : E.t
  }

let create name layout kind = { name; kind; layout; elem = Unit; offset = E.zero }
let linear name n kind = create name (L.vector n) kind
let grid name dims = create name (L.col_major dims) Block
let cta name dims = create name (L.col_major dims) Thread

let levels t =
  let rec go acc = function
    | Unit -> List.rev acc
    | Group { layout; elem } -> go (layout :: acc) elem
  in
  go [ t.layout ] t.elem

let size t =
  List.fold_left (fun acc l -> acc * L.size_int l) 1 (levels t)

let group_size t =
  match List.rev (levels t) with
  | innermost :: _ when t.elem <> Unit -> L.size_int innermost
  | _ -> 1

let rank t = L.rank t.layout

let free_vars t =
  let of_layout l =
    List.concat_map E.free_vars (T.flatten (L.dims l) @ T.flatten (L.strides l))
  in
  List.sort_uniq String.compare
    (E.free_vars t.offset @ List.concat_map of_layout (levels t))

let tile t tiler =
  let outer, inner = L.divide t.layout tiler in
  { t with layout = outer; elem = Group { layout = inner; elem = t.elem } }

let reshape t dims = { t with layout = L.reshape t.layout dims }

let select t coords =
  let off = L.index_of_coords t.layout coords in
  let offset = E.add t.offset off in
  match t.elem with
  | Group { layout; elem } -> { t with layout; elem; offset }
  | Unit -> { t with layout = L.empty; offset }

let select_ints t coords = select t (List.map E.const coords)

let coord_exprs t id =
  (* One symbolic right-inverse application per top-level mode: the
     layout algebra recombines (id / s) % d per leaf leftmost-fastest.
     Valid for the injective layouts used for thread arrangements. *)
  List.map2
    (fun d s -> L.inverse_index (L.make d s) id)
    (T.modes (L.dims t.layout))
    (T.modes (L.strides t.layout))

let member_ids ?env t =
  let base =
    match (E.to_int t.offset, env) with
    | Some n, _ -> n
    | None, Some env -> E.eval ~env t.offset
    | None, None -> invalid_arg "Thread_tensor.member_ids: symbolic offset"
  in
  let combined =
    List.fold_left
      (fun acc level ->
        let idx = L.all_indices level in
        Array.concat
          (Array.to_list (Array.map (fun a -> Array.map (fun b -> a + b) idx) acc)))
      [| base |] (levels t)
  in
  Array.sort Stdlib.compare combined;
  combined

let group_member_ids t coords = member_ids (select_ints t coords)

let kind_string = function Thread -> "thread" | Block -> "block"

let pp fmt t =
  let rec pp_elem fmt = function
    | Unit -> Format.pp_print_string fmt (kind_string t.kind)
    | Group { layout; elem } ->
      Format.fprintf fmt "%a.%a" L.pp layout pp_elem elem
  in
  Format.fprintf fmt "#%s:%a.%a" t.name L.pp t.layout pp_elem t.elem

let to_string t = Format.asprintf "%a" pp t
