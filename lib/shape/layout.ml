type t = { dims : Int_tuple.t; strides : Int_tuple.t }

exception Layout_error of string

let err fmt = Format.kasprintf (fun s -> raise (Layout_error s)) fmt

(* Canonical CuTe form, e.g. ((2,(3,4)):(1,(2,6))); the conformance corpus
   in test/test_layout_algebra.ml matches these strings verbatim. *)
let pp fmt l =
  Format.fprintf fmt "(%a:%a)" Int_tuple.pp l.dims Int_tuple.pp l.strides

let to_string l = Format.asprintf "%a" pp l

let make dims strides =
  if not (Int_tuple.congruent dims strides) then
    err "Layout.make: incongruent dims %s and strides %s"
      (Int_tuple.to_string dims) (Int_tuple.to_string strides);
  { dims; strides }

let of_pairs pairs =
  make
    (Int_tuple.node (List.map (fun (d, _) -> Int_tuple.of_int d) pairs))
    (Int_tuple.node (List.map (fun (_, s) -> Int_tuple.of_int s) pairs))

let row_major ds =
  let n = List.length ds in
  let suffix_products =
    (* stride of dim i = product of dims i+1 .. n-1 *)
    List.mapi
      (fun i _ ->
        List.filteri (fun j _ -> j > i) ds |> List.fold_left ( * ) 1)
      ds
  in
  ignore n;
  of_pairs (List.combine ds suffix_products)

let col_major ds =
  let prefix_products =
    List.mapi
      (fun i _ ->
        List.filteri (fun j _ -> j < i) ds |> List.fold_left ( * ) 1)
      ds
  in
  of_pairs (List.combine ds prefix_products)

let row_major_e ds =
  let n = List.length ds in
  let stride i =
    List.filteri (fun j _ -> j > i) ds
    |> List.fold_left Int_expr.mul Int_expr.one
  in
  ignore n;
  make
    (Int_tuple.node (List.map Int_tuple.leaf ds))
    (Int_tuple.node (List.mapi (fun i _ -> Int_tuple.leaf (stride i)) ds))

let vector ?(stride = 1) n =
  make (Int_tuple.of_int n) (Int_tuple.of_int stride)

let dims l = l.dims
let strides l = l.strides
let rank l = Int_tuple.rank l.dims
let size l = Int_tuple.size l.dims
let size_int l = Int_expr.to_int_exn (size l)

let equal a b =
  Int_tuple.equal a.dims b.dims && Int_tuple.equal a.strides b.strides

let is_const l = Int_tuple.is_const l.dims && Int_tuple.is_const l.strides

let mode l i =
  make (Int_tuple.mode l.dims i) (Int_tuple.mode l.strides i)

(* A layout's top-level structure as a single mode (hierarchical if needed). *)
let as_single_mode l =
  match (Int_tuple.modes l.dims, Int_tuple.modes l.strides) with
  | [ d ], [ s ] -> (d, s)
  | ds, ss -> (Int_tuple.node ds, Int_tuple.node ss)

let concat ls =
  make
    (Int_tuple.node (List.concat_map (fun l -> Int_tuple.modes l.dims) ls))
    (Int_tuple.node (List.concat_map (fun l -> Int_tuple.modes l.strides) ls))

(* Flattened (shape, stride) leaf pairs, leftmost fastest. *)
let flat_pairs l =
  List.combine (Int_tuple.flatten l.dims) (Int_tuple.flatten l.strides)

let flat_ints l =
  try
    List.map
      (fun (d, s) -> (Int_expr.to_int_exn d, Int_expr.to_int_exn s))
      (flat_pairs l)
  with Invalid_argument _ ->
    err "layout algebra requires a concrete layout, got %s" (to_string l)

let cosize l =
  List.fold_left
    (fun acc (d, s) -> acc + ((d - 1) * abs s))
    1 (flat_ints l)

let of_flat = function
  | [] -> vector 1 ~stride:0
  | [ (d, s) ] -> vector d ~stride:s
  | pairs -> of_pairs pairs

(* ----- Symbolic coordinate mapping ----- *)

let mode_contribution mode_dims mode_strides coord =
  (* Decompose one logical coordinate leftmost-fastest through the leaves of
     a (possibly hierarchical) mode and dot with the leaf strides. The
     trailing modulus is omitted: coordinates are assumed in range. *)
  let leaves =
    List.combine (Int_tuple.flatten mode_dims) (Int_tuple.flatten mode_strides)
  in
  let rec go acc cum = function
    | [] -> acc
    | [ (_, s) ] ->
      Int_expr.add acc (Int_expr.mul (Int_expr.div coord cum) s)
    | (d, s) :: tl ->
      let c = Int_expr.rem (Int_expr.div coord cum) d in
      go (Int_expr.add acc (Int_expr.mul c s)) (Int_expr.mul cum d) tl
  in
  go Int_expr.zero Int_expr.one leaves

let index_of_coords l coords =
  let dm = Int_tuple.modes l.dims and sm = Int_tuple.modes l.strides in
  if List.length dm <> List.length coords then
    err "index_of_coords: %d coords for rank-%d layout %s"
      (List.length coords) (List.length dm) (to_string l);
  List.fold_left2
    (fun acc (d, s) c -> Int_expr.add acc (mode_contribution d s c))
    Int_expr.zero (List.combine dm sm) coords

let index_of_linear l x =
  mode_contribution l.dims l.strides x

let coords_of_linear l x =
  let sizes = List.map Int_tuple.size (Int_tuple.modes l.dims) in
  let rec go acc cum = function
    | [] -> List.rev acc
    | [ _ ] -> List.rev (Int_expr.div x cum :: acc)
    | m :: tl ->
      let c = Int_expr.rem (Int_expr.div x cum) m in
      go (c :: acc) (Int_expr.mul cum m) tl
  in
  go [] Int_expr.one sizes

(* ----- Concrete evaluation ----- *)

let nth_index l x =
  let leaves = flat_ints l in
  let rec go acc x = function
    | [] -> acc
    | (d, s) :: tl -> go (acc + (x mod d * s)) (x / d) tl
  in
  go 0 x leaves

let all_indices l = Array.init (size_int l) (nth_index l)

let index_of_int_coords l coords =
  let e =
    index_of_coords l (List.map Int_expr.const coords)
  in
  Int_expr.eval ~env:(fun v -> err "index_of_int_coords: free var %s" v) e

(* ----- Algebra ----- *)

let coalesce l =
  (* Unit modes are dropped but break fusion chains: two contiguous modes
     separated by a size-1 mode stay separate. This matches the reference
     implementation the conformance corpus was generated from (coalesce of
     ((2,(1,6)):(1,(6,2))) is ((2,6):(1,2)), not (12:1)) and is still
     function-preserving. Callers that want maximal fusion filter unit
     modes out first (see Lower.Vectorize). *)
  let rec fuse = function
    | (d1, s1) :: (d2, s2) :: tl when s2 = d1 * s1 ->
      fuse ((d1 * d2, s1) :: tl)
    | p :: tl -> p :: fuse tl
    | [] -> []
  in
  let rec runs cur acc = function
    | [] -> List.rev (List.rev cur :: acc)
    | (d, _) :: tl when d = 1 -> runs [] (List.rev cur :: acc) tl
    | p :: tl -> runs (p :: cur) acc tl
  in
  of_flat (List.concat_map fuse (runs [] [] (flat_ints l)))

(* Compose the concrete flat modes of [a] with one integral mode [(s, d)]:
   the layout of [fun j -> a (j * d)] for [j] in [0, s). *)
let compose1 a_modes s d =
  if d = 0 || s = 1 then [ (s, 0) ]
  else
    let rec go acc rest_s rest_d = function
      | [] ->
        if rest_s = 1 then List.rev acc
        else err "composition: shape %d does not fit layout" rest_s
      | [ (_, st) ] ->
        (* Last mode is treated as unbounded (CuTe convention). *)
        List.rev ((rest_s, st * rest_d) :: acc)
      | (sh, st) :: tl ->
        if rest_d >= sh then begin
          if rest_d mod sh <> 0 then
            err "composition: stride %d not divisible by mode %d" rest_d sh;
          go acc rest_s (rest_d / sh) tl
        end
        else begin
          if sh mod rest_d <> 0 then
            err "composition: mode %d not divisible by stride %d" sh rest_d;
          let avail = sh / rest_d in
          if rest_s <= avail then List.rev ((rest_s, st * rest_d) :: acc)
          else if rest_s mod avail <> 0 then
            err "composition: shape %d not divisible by mode extent %d"
              rest_s avail
          else go ((avail, st * rest_d) :: acc) (rest_s / avail) 1 tl
        end
    in
    go [] s d a_modes

let composition a b =
  let a_modes = flat_ints a in
  (* Rebuild following [b]'s tree profile; each leaf may expand into several
     result modes, which become a hierarchical (nested) dimension. *)
  let rec go_dims dims strides =
    match (dims, strides) with
    | Int_tuple.Leaf d, Int_tuple.Leaf s ->
      let pairs =
        compose1 a_modes (Int_expr.to_int_exn d) (Int_expr.to_int_exn s)
      in
      (match pairs with
      | [ (d', s') ] -> (Int_tuple.of_int d', Int_tuple.of_int s')
      | _ ->
        ( Int_tuple.node (List.map (fun (d', _) -> Int_tuple.of_int d') pairs)
        , Int_tuple.node (List.map (fun (_, s') -> Int_tuple.of_int s') pairs)
        ))
    | Int_tuple.Node ds, Int_tuple.Node ss ->
      let rs = List.map2 go_dims ds ss in
      (Int_tuple.node (List.map fst rs), Int_tuple.node (List.map snd rs))
    | _ -> err "composition: incongruent right-hand layout"
  in
  let d, s = go_dims b.dims b.strides in
  make d s

let complement t n =
  let modes =
    List.filter (fun (d, _) -> d <> 1) (flat_ints t)
    |> List.sort (fun (_, s1) (_, s2) -> Stdlib.compare (abs s1) (abs s2))
  in
  let rec go acc cur = function
    | [] ->
      (* Final mode covers the remainder up to n; use a ceiling so that
         non-divisible (partial-tile) cases overapproximate. *)
      let last = (n + cur - 1) / cur in
      let acc = if last > 1 then (last, cur) :: acc else acc in
      List.rev acc
    | (d, s) :: tl ->
      let s = abs s in
      if s mod cur <> 0 then
        err "complement: stride %d not divisible by %d in %s" s cur
          (to_string t);
      let sh = s / cur in
      let acc = if sh > 1 then (sh, cur) :: acc else acc in
      go acc (d * s) tl
  in
  of_flat (go [] 1 modes)

let rec packed_strides dims cum =
  (* Strides of a packed (leftmost-fastest) layout with the profile of
     [dims]; returns the strides tree and the running size. *)
  match dims with
  | Int_tuple.Leaf d -> (Int_tuple.Leaf (Int_expr.const cum), cum * Int_expr.to_int_exn d)
  | Int_tuple.Node ds ->
    let strides, cum =
      List.fold_left
        (fun (acc, cum) d ->
          let s, cum = packed_strides d cum in
          (s :: acc, cum))
        ([], cum) ds
    in
    (Int_tuple.node (List.rev strides), cum)

let reshape l new_dims =
  let strides, total = packed_strides new_dims 1 in
  if total <> size_int l then
    err "reshape: %s has %d elements, new dims %s have %d" (to_string l)
      (size_int l) (Int_tuple.to_string new_dims) total;
  composition l (make new_dims strides)

(* ----- Tiling ----- *)

type tiler = t option list

let tile_spec ?stride n = Some (vector ?stride n)

(* [make_modes [l1; ...; lk]] — each layout becomes one top-level mode
   (CuTe's make_layout on layout arguments). *)
let make_modes ls =
  let ms = List.map as_single_mode ls in
  make
    (Int_tuple.node (List.map fst ms))
    (Int_tuple.node (List.map snd ms))

(* Split a single (1-D, possibly hierarchical) mode by a tile spec into
   (rest, tile) layouts. This is per-mode logical division: the tile part
   is [composition mode tspec] and the rest part is the composition with
   the tile's complement — everything below (divide, logical_divide,
   zipped_divide, tiled_divide) assembles these two parts differently. *)
let divide_mode mode_dims mode_strides spec =
  match spec with
  | None ->
    (* Keep the whole dimension in the tile; the outer extent is 1. *)
    (vector 1 ~stride:0, make mode_dims mode_strides)
  | Some tspec -> (
    let mode_layout = make mode_dims mode_strides in
    match (mode_dims, mode_strides, tspec.dims, tspec.strides) with
    | Int_tuple.Leaf d, Int_tuple.Leaf s, Int_tuple.Leaf td, Int_tuple.Leaf ts
      when Int_expr.equal ts Int_expr.one && not (Int_expr.is_const d) ->
      (* Symbolic (range-aware) fast path: contiguous tiles of a symbolic
         extent; the outer extent overapproximates by a ceiling division. *)
      let t = td in
      let inner = make (Int_tuple.leaf t) (Int_tuple.leaf s) in
      let outer =
        make
          (Int_tuple.leaf (Int_expr.ceil_div d t))
          (Int_tuple.leaf (Int_expr.mul s t))
      in
      (outer, inner)
    | _ ->
      let inner = composition mode_layout tspec in
      let comp = complement tspec (size_int mode_layout) in
      let outer = composition mode_layout comp in
      (outer, inner))

let mode_parts name l tiler =
  let dm = Int_tuple.modes l.dims and sm = Int_tuple.modes l.strides in
  if List.length dm <> List.length tiler then
    err "%s: %d tile specs for rank-%d layout %s" name (List.length tiler)
      (List.length dm) (to_string l);
  List.map2 (fun (d, s) t -> divide_mode d s t) (List.combine dm sm) tiler

let divide l tiler =
  let parts = mode_parts "divide" l tiler in
  let build ls =
    match List.map as_single_mode ls with
    | [ (d, s) ] -> make d s
    | modes ->
      make
        (Int_tuple.node (List.map fst modes))
        (Int_tuple.node (List.map snd modes))
  in
  (build (List.map fst parts), build (List.map snd parts))

(* ----- CuTe division and product forms ----- *)

let logical_divide a b =
  (* composition(A, (B, complement(B, size A))): mode 0 is the tile, mode 1
     enumerates the rest (the tile origins). *)
  composition a (make_modes [ b; complement b (size_int a) ])

let logical_divide_by l tiler =
  (* Per-mode logical division: each divided mode's profile is the tile
     spec's top-level modes followed by the rest part as one trailing
     mode — CuTe's logical_divide with a tiler argument. *)
  let parts = mode_parts "logical_divide" l tiler in
  let mode_of (outer, inner) =
    let od, os = as_single_mode outer in
    ( Int_tuple.node (Int_tuple.modes inner.dims @ [ od ])
    , Int_tuple.node (Int_tuple.modes inner.strides @ [ os ]) )
  in
  let ms = List.map mode_of parts in
  make
    (Int_tuple.node (List.map fst ms))
    (Int_tuple.node (List.map snd ms))

let zipped_divide l tiler =
  (* Rank-2 regrouping ((tiles...), (rests...)): mode 0 gathers every
     mode's tile part, mode 1 every mode's rest part. *)
  let parts = mode_parts "zipped_divide" l tiler in
  let gather ls =
    let ms = List.map as_single_mode ls in
    (Int_tuple.node (List.map fst ms), Int_tuple.node (List.map snd ms))
  in
  let td, ts = gather (List.map snd parts) in
  let rd, rs = gather (List.map fst parts) in
  make (Int_tuple.node [ td; rd ]) (Int_tuple.node [ ts; rs ])

let tiled_divide l tiler =
  (* ((tiles...), rest_1, ..., rest_n): the tile stays one mode, each
     rest part becomes its own top-level mode — the shape CTA rasters
     iterate over. *)
  let parts = mode_parts "tiled_divide" l tiler in
  let ms = List.map as_single_mode (List.map snd parts) in
  let tile_d = Int_tuple.node (List.map fst ms) in
  let tile_s = Int_tuple.node (List.map snd ms) in
  let rests = List.map (fun (o, _) -> as_single_mode o) parts in
  make
    (Int_tuple.node (tile_d :: List.map fst rests))
    (Int_tuple.node (tile_s :: List.map snd rests))

let logical_product a b =
  (* (A, composition(complement(A, size(A)*cosize(B)), B)): mode 0 is one
     tile, mode 1 places cosize(B) repetitions of it. *)
  make_modes [ a; composition (complement a (size_int a * cosize b)) b ]

(* ----- Inverses ----- *)

let right_inverse l =
  (* Sort the modes by stride; the layout is right-invertible (compact and
     bijective onto [0, cosize)) when the sorted strides are exact prefix
     products. The inverse's strides are the original-order place values
     of the domain decomposition. *)
  let pairs = List.filter (fun (d, _) -> d <> 1) (flat_ints l) in
  let with_place =
    let rec go acc place = function
      | [] -> List.rev acc
      | (d, s) :: tl -> go ((d, s, place) :: acc) (place * d) tl
    in
    go [] 1 pairs
  in
  let sorted =
    List.sort (fun (_, s1, _) (_, s2, _) -> Stdlib.compare s1 s2) with_place
  in
  let (_ : int) =
    List.fold_left
      (fun expect (d, s, _) ->
        if s <> expect then
          err "right_inverse: %s is not compact-bijective (stride %d where %d expected)"
            (to_string l) s expect;
        expect * d)
      1 sorted
  in
  of_flat (List.map (fun (d, _, place) -> (d, place)) sorted)

let left_inverse l =
  (* Complete the (injective) layout to a bijection with its complement,
     then right-invert: left_inverse(L)(L(x)) = x for x < size(L). *)
  right_inverse (make_modes [ l; complement l (cosize l) ])

(* [inverse_index l x] — symbolic application of the (right) inverse: the
   coordinate of physical index [x] under [l], recombined leftmost-fastest.
   Component (x / s) %% d per leaf; size-1 leaves contribute zero. Valid for
   the injective layouts used for thread arrangements. The exact expression
   trees built here are relied on by Thread_tensor.coord_exprs (and hence
   the codegen golden suites). *)
let inverse_index l x =
  let coord, _ =
    List.fold_left
      (fun (acc, cum) (d, s) ->
        let c =
          match Int_expr.to_int d with
          | Some 1 -> Int_expr.zero
          | _ -> Int_expr.rem (Int_expr.div x s) d
        in
        (Int_expr.add acc (Int_expr.mul c cum), Int_expr.mul cum d))
      (Int_expr.zero, Int_expr.one)
      (flat_pairs l)
  in
  coord

(* ----- Profile-preserving reshape ----- *)

let with_shape l new_dims =
  (* Like [reshape], but the result is guaranteed congruent to the
     requested profile: a leaf that composition expanded into nested modes
     is coalesced back to a single mode, or the reshape is rejected. *)
  let r = reshape l new_dims in
  let rec fix want got_d got_s =
    match (want, got_d, got_s) with
    | Int_tuple.Leaf _, Int_tuple.Leaf _, _ -> (got_d, got_s)
    | Int_tuple.Leaf w, _, _ -> (
      let sub = coalesce (make got_d got_s) in
      match (sub.dims, sub.strides) with
      | Int_tuple.Node [], Int_tuple.Node [] ->
        (* All unit modes: a degenerate leaf of extent [w] (= 1). *)
        (Int_tuple.Leaf w, Int_tuple.Leaf Int_expr.zero)
      | _ -> (
        match as_single_mode sub with
        | (Int_tuple.Leaf _, Int_tuple.Leaf _) as m -> m
        | _ ->
          err "with_shape: %s cannot keep mode %s as a single stride"
            (to_string l) (Int_expr.to_string w)))
    | Int_tuple.Node ws, Int_tuple.Node ds, Int_tuple.Node ss
      when List.length ws = List.length ds ->
      let parts =
        List.map2 (fun w (d, s) -> fix w d s) ws (List.combine ds ss)
      in
      ( Int_tuple.node (List.map fst parts)
      , Int_tuple.node (List.map snd parts) )
    | _ -> err "with_shape: incongruent result for %s" (to_string l)
  in
  let d, s = fix new_dims r.dims r.strides in
  make d s

(* ----- Composed layouts: swizzle ∘ layout (+ offset) ----- *)

type composed = { c_base : t; c_offset : int; c_swizzle : Swizzle.t }

let compose_swizzle ?(offset = 0) sw base =
  { c_base = base; c_offset = offset; c_swizzle = sw }

let composed_nth c x = Swizzle.apply c.c_swizzle (c.c_offset + nth_index c.c_base x)
let composed_indices c = Array.init (size_int c.c_base) (composed_nth c)
let composed_low_window c = Swizzle.low_window c.c_swizzle
let composed_coalesce c = { c with c_base = coalesce c.c_base }

let pp_composed fmt c =
  if Swizzle.is_identity c.c_swizzle then pp fmt c.c_base
  else Format.fprintf fmt "%a o %a" Swizzle.pp c.c_swizzle pp c.c_base;
  if c.c_offset <> 0 then Format.fprintf fmt " + %d" c.c_offset

let composed_to_string c = Format.asprintf "%a" pp_composed c

let subst bindings l =
  make
    (Int_tuple.map (Int_expr.subst bindings) l.dims)
    (Int_tuple.map (Int_expr.subst bindings) l.strides)

let empty = make (Int_tuple.node []) (Int_tuple.node [])
