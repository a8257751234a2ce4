module E = Shape.Int_expr
module L = Shape.Layout
module T = Shape.Int_tuple
module Ts = Gpu_tensor.Tensor
module Dt = Gpu_tensor.Dtype
module B = Graphene.Builder

let vector_width = 8

type t =
  { thr : Gpu_tensor.Thread_tensor.t
  ; nthreads : int
  ; use_cp_async : bool
  ; stage_rf : Ts.t
  ; alloc_stmts : Graphene.Spec.stmt list
  }

let create ?(dtype = Dt.FP16) ~thr ~nthreads ~use_cp_async ~prefix () =
  let stage_rf, al =
    B.alloc_regs (prefix ^ "stg") (L.vector vector_width) dtype
  in
  { thr
  ; nthreads
  ; use_cp_async
  ; stage_rf
  ; alloc_stmts = (if use_cp_async then [] else [ al ])
  }

let allocs t = t.alloc_stmts

(* The copies issued by a cp.async staging are DEFERRED: they land only
   when a wait_group drains their commit group. Every staging user must
   fence between its last [copy] and the barrier that publishes the tile,
   or the shared data is never written. The register-staged (non-async)
   path completes eagerly and needs no fence, hence []. *)
let fence stgs =
  if List.exists (fun t -> t.use_cp_async) stgs then
    [ B.commit_group; B.wait_group 0 ]
  else []

let step stgs ~copies compute =
  copies @ fence stgs @ [ B.sync ] @ compute @ [ B.sync ]

let fits ~rows ~cols ~nthreads =
  let total_vecs = rows * (cols / vector_width) in
  cols mod vector_width = 0
  && (total_vecs mod nthreads = 0 || nthreads mod total_vecs = 0)

let copy t ~src ~src_row0 ~src_col0 ~dst =
  let dims = T.to_ints_exn (L.dims dst.Ts.layout) in
  let rows, cols =
    match dims with
    | [ r; c ] -> (r, c)
    | _ -> invalid_arg "Staging.copy: destination must be rank 2"
  in
  let vecs_per_row = cols / vector_width in
  let total_vecs = rows * vecs_per_row in
  if not (fits ~rows ~cols ~nthreads:t.nthreads) then
    invalid_arg
      (Printf.sprintf "Staging.copy: %dx%d tile not divisible (%d threads)"
         rows cols t.nthreads);
  let src_t = B.vec_tile src vector_width in
  let dst_t = B.vec_tile dst vector_width in
  let one_vector vi =
    (* The linear vector id decomposes through the (vectors-per-row, rows)
       raster: columns fastest, one coordinate per tiled mode. *)
    let r, g =
      match L.coords_of_linear (L.col_major [ vecs_per_row; rows ]) vi with
      | [ g; r ] -> (r, g)
      | _ -> assert false
    in
    let src_view =
      Ts.select src_t
        [ E.add src_row0 r; E.add (E.div src_col0 (E.const vector_width)) g ]
    in
    let dst_view = Ts.select dst_t [ r; g ] in
    if t.use_cp_async then
      [ B.move ~label:"cp.async" ~threads:t.thr ~src:src_view ~dst:dst_view () ]
    else
      [ B.move ~label:"stage GL->RF" ~threads:t.thr ~src:src_view
          ~dst:t.stage_rf ()
      ; B.move ~label:"commit RF->SH" ~threads:t.thr ~src:t.stage_rf
          ~dst:dst_view ()
      ]
  in
  if total_vecs < t.nthreads then
    (* Small tile: only the first [total_vecs] threads participate. *)
    B.if_
      B.(B.thread_idx <. E.const total_vecs)
      (one_vector B.thread_idx)
  else
    let vpt = total_vecs / t.nthreads in
    B.for_ ~unroll:true "v" (E.const vpt) (fun i ->
        one_vector (E.add (E.mul i (E.const t.nthreads)) B.thread_idx))
