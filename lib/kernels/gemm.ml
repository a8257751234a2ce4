module E = Shape.Int_expr
module L = Shape.Layout
module Sw = Shape.Swizzle
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Spec = Graphene.Spec
module Op = Graphene.Op
module Arch = Graphene.Arch

type config =
  { bm : int
  ; bn : int
  ; bk : int
  ; wm : int
  ; wn : int
  ; swizzle : bool
  ; use_ldmatrix : bool
  ; use_cp_async : bool
  }

let default_config = function
  | Arch.SM86 ->
    { bm = 128
    ; bn = 128
    ; bk = 32
    ; wm = 64
    ; wn = 32
    ; swizzle = true
    ; use_ldmatrix = true
    ; use_cp_async = true
    }
  | Arch.SM70 ->
    { bm = 128
    ; bn = 128
    ; bk = 32
    ; wm = 64
    ; wn = 64
    ; swizzle = true
    ; use_ldmatrix = false
    ; use_cp_async = false
    }

let test_config = function
  | Arch.SM86 ->
    { bm = 64
    ; bn = 64
    ; bk = 32
    ; wm = 32
    ; wn = 32
    ; swizzle = true
    ; use_ldmatrix = true
    ; use_cp_async = true
    }
  | Arch.SM70 ->
    { bm = 32
    ; bn = 32
    ; bk = 16
    ; wm = 32
    ; wn = 16
    ; swizzle = false
    ; use_ldmatrix = false
    ; use_cp_async = false
    }

let require cond fmt =
  Format.kasprintf (fun s -> if not cond then invalid_arg ("Gemm: " ^ s)) fmt

(* ----- Figure 8: the simplest complete GEMM decomposition ----- *)

let naive ?(name = "gemm_naive") ~m ~n ~k ~bm ~bn ~tm ~tn () =
  require (m mod bm = 0 && n mod bn = 0) "%dx%d not divisible by block tile" m n;
  require (bm mod tm = 0 && bn mod tn = 0) "block tile not divisible by %dx%d"
    tm tn;
  let a = Ts.create_rm "A" [ m; k ] Dt.FP16 Ms.Global in
  let b = Ts.create_rm "B" [ k; n ] Dt.FP16 Ms.Global in
  let c = Ts.create_rm "C" [ m; n ] Dt.FP16 Ms.Global in
  let grid = Tt.grid "grid" [ m / bm; n / bn ] in
  let cta = Tt.cta "cta" [ bm / tm; bn / tn ] in
  let bid_m, bid_n =
    match B.block_coords grid with
    | [ x; y ] -> (x, y)
    | _ -> assert false
  in
  let tid_m, tid_n =
    match B.thread_coords cta with
    | [ x; y ] -> (x, y)
    | _ -> assert false
  in
  let thr = Tt.select cta [ tid_m; tid_n ] in
  (* Tile for thread-blocks (Figure 8 lines 12-18)... *)
  let a_blk = Ts.select (Ts.tile a [ L.tile_spec bm; None ]) [ bid_m; E.zero ] in
  let b_blk = Ts.select (Ts.tile b [ None; L.tile_spec bn ]) [ E.zero; bid_n ] in
  let c_blk =
    Ts.select (Ts.tile c [ L.tile_spec bm; L.tile_spec bn ]) [ bid_m; bid_n ]
  in
  (* ... and immediately tile again for threads (lines 20-26). *)
  let a_thr =
    Ts.select (Ts.tile a_blk [ L.tile_spec tm; None ]) [ tid_m; E.zero ]
  in
  let b_thr =
    Ts.select (Ts.tile b_blk [ None; L.tile_spec tn ]) [ E.zero; tid_n ]
  in
  let c_thr =
    Ts.select (Ts.tile c_blk [ L.tile_spec tm; L.tile_spec tn ])
      [ tid_m; tid_n ]
  in
  let body =
    [ B.for_ "k" (E.const k) (fun kk ->
          [ B.for_ ~unroll:true "m" (E.const tm) (fun mm ->
                [ B.for_ ~unroll:true "n" (E.const tn) (fun nn ->
                      [ B.matmul ~threads:thr
                          ~a:(Ts.select a_thr [ mm; kk ])
                          ~b:(Ts.select b_thr [ kk; nn ])
                          ~c:(Ts.select c_thr [ mm; nn ]) ()
                      ])
                ])
          ])
    ]
  in
  B.kernel name ~grid ~cta ~params:[ a; b; c ] body

(* ----- the optimized tensor-core decomposition ----- *)

(* The shared A/B staging tiles of a block program, as fragment-loader
   operands, and the stagings that fill them. *)
type tiles =
  { bk : int
  ; a_op : Tc_pipeline.a_operand
  ; b_op : Tc_pipeline.b_operand
  ; stg_a : Staging.t
  ; stg_b : Staging.t
  ; allocs : Spec.stmt list
  }

type block = { cta : Tt.t; thr : Tt.t; pipe : Tc_pipeline.t; tiles : tiles }

let block ?(dtype = Dt.FP16) ?(ta = false) ?(tb = false) arch cfg =
  let { bm; bn; bk; wm; wn; _ } = cfg in
  let nthreads = bm / wm * (bn / wn) * 32 in
  let cta = Tt.linear "cta" nthreads Tt.Thread in
  let thr = Tt.select cta [ B.thread_idx ] in
  (* A transposed operand keeps its storage orientation in shared memory,
     unswizzled; the fragment loaders absorb the transpose (ldmatrix vs
     ldmatrix.trans). *)
  let tile name ~transposed ~bits ~width dims =
    let swizzle =
      if cfg.swizzle && not transposed then
        Tc_pipeline.staging_swizzle ~bits width
      else Sw.none
    in
    B.alloc_shared ~swizzle name (L.row_major dims) dtype
  in
  let as_, al_as =
    tile "As" ~transposed:ta ~bits:2 ~width:bk
      (if ta then [ bk; bm ] else [ bm; bk ])
  in
  let bs, al_bs =
    tile "Bs" ~transposed:tb ~bits:3 ~width:bn
      (if tb then [ bn; bk ] else [ bk; bn ])
  in
  let pipe =
    Tc_pipeline.create ~dtype arch ~cta ~bm ~bn ~wm ~wn
      ~use_ldmatrix:cfg.use_ldmatrix
  in
  let staging prefix =
    Staging.create ~dtype ~thr ~nthreads ~use_cp_async:cfg.use_cp_async
      ~prefix ()
  in
  let z = E.zero in
  { cta
  ; thr
  ; pipe
  ; tiles =
      { bk
      ; a_op =
          (if ta then A_k_major { t = as_; row0 = z; col0 = z; ld = bm }
           else A_m_major { t = as_; row0 = z; col0 = z; ld = bk })
      ; b_op =
          (if tb then B_n_major { t = bs; row0 = z; col0 = z; ld = bk }
           else B_k_major { t = bs; row0 = z; col0 = z; ld = bn })
      ; stg_a = staging "a_"
      ; stg_b = staging "b_"
      ; allocs = [ al_as; al_bs ]
      }
  }

(* Single-buffered: stage a k-tile, wait, compute, repeat. Software
   pipelining is the swpipe lowering pass's decision
   ([Lower.Pipeline.lower ~stages]), not the kernel's. *)
let k_loop ?(a_k0 = E.zero) ?(b_k0 = E.zero) blk ~a ~b ~m0 ~n0 ~k =
  let { bk; a_op; b_op; stg_a; stg_b; _ } = blk.tiles in
  B.for_ "kk" (E.const (k / bk)) (fun kk ->
      let ka = E.add a_k0 (E.mul kk (E.const bk))
      and kb = E.add b_k0 (E.mul kk (E.const bk)) in
      (* Each tile is staged in its operand's storage orientation. *)
      let copy_a =
        match a_op with
        | A_m_major { t; _ } ->
          Staging.copy stg_a ~src:a ~src_row0:m0 ~src_col0:ka ~dst:t
        | A_k_major { t; _ } ->
          Staging.copy stg_a ~src:a ~src_row0:ka ~src_col0:m0 ~dst:t
      and copy_b =
        match b_op with
        | B_k_major { t; _ } ->
          Staging.copy stg_b ~src:b ~src_row0:kb ~src_col0:n0 ~dst:t
        | B_n_major { t; _ } ->
          Staging.copy stg_b ~src:b ~src_row0:n0 ~src_col0:kb ~dst:t
      in
      Staging.step [ stg_a; stg_b ] ~copies:[ copy_a; copy_b ]
        (Tc_pipeline.accumulate blk.pipe ~a:a_op ~b:b_op ~kc:bk))

let block_body blk ~allocs main =
  blk.tiles.allocs @ allocs @ Tc_pipeline.allocs blk.pipe
  @ Staging.allocs blk.tiles.stg_a
  @ Staging.allocs blk.tiles.stg_b
  @ Tc_pipeline.init_acc blk.pipe
  @ main

(* The common tensor-core epilogue: convert each accumulator group,
   optionally add bias and activate, and store to C. [grow]/[gcol] map
   block-local output coordinates to global ones. *)
let epilogue_stores ~thr ~pipe ~epilogue ~c ~bias ~grow ~gcol =
  let out_w = Tc_pipeline.group_width pipe in
  let c_groups = B.vec_tile c out_w in
  let bias_groups = B.vec_tile bias out_w in
  let c_out, al_co = B.alloc_regs "c_out" (L.vector out_w) (Ts.dtype c) in
  let bias_rf, al_bi = B.alloc_regs "bias_rf" (L.vector out_w) (Ts.dtype c) in
  let allocs = [ al_co ] @ if epilogue.Epilogue.bias then [ al_bi ] else [] in
  let stores =
    Tc_pipeline.foreach_out pipe (fun ~row ~col ~width ~acc ->
        let grow = grow row and gcol = gcol col in
        [ B.move ~label:"cvt f32->f16" ~threads:thr ~src:acc ~dst:c_out () ]
        @ (if epilogue.Epilogue.bias then
             [ B.move ~label:"load bias" ~threads:thr
                 ~src:(Ts.select bias_groups [ E.div gcol (E.const width) ])
                 ~dst:bias_rf ()
             ; B.binary ~threads:thr Op.Add ~lhs:c_out ~rhs:bias_rf
                 ~dst:c_out ()
             ]
           else [])
        @ (match epilogue.Epilogue.act with
          | Some act -> [ B.unary ~threads:thr act ~src:c_out ~dst:c_out () ]
          | None -> [])
        @ [ B.move ~label:"store C" ~threads:thr ~src:c_out
              ~dst:(Ts.select c_groups [ grow; E.div gcol (E.const width) ])
              ()
          ])
  in
  (allocs, stores)

let tensor_core ?name ?(batch = 1) ?(dtype = Dt.FP16) ?(ta = false)
    ?(tb = false) arch cfg ~epilogue ~m ~n ~k () =
  let { bm; bn; bk; _ } = cfg in
  require (m > 0 && n > 0 && k > 0 && batch > 0)
    "non-positive size %dx%dx%d (batch %d)" m n k batch;
  require (m mod bm = 0 && n mod bn = 0 && k mod bk = 0)
    "%dx%dx%d not divisible by %dx%dx%d tiles" m n k bm bn bk;
  let name =
    match name with
    | Some s -> s
    | None -> Printf.sprintf "gemm_tc_%s" (Arch.name arch)
  in
  require (dtype = Dt.FP16 || (dtype = Dt.BF16 && arch = Arch.SM86))
    "bf16 tensor cores need SM80+";
  require (batch = 1 || not (ta || tb))
    "a batched GEMM needs untransposed operands";
  (* Batched problems concatenate the instances along the rows; a third
     grid mode selects the instance. A transposed A is stored [k x m], a
     transposed B [n x k]. *)
  let a =
    Ts.create_rm "A" (if ta then [ k; m ] else [ batch * m; k ]) dtype Ms.Global
  in
  let b =
    Ts.create_rm "B" (if tb then [ n; k ] else [ batch * k; n ]) dtype Ms.Global
  in
  let c = Ts.create_rm "C" [ batch * m; n ] dtype Ms.Global in
  let bias = Ts.create_rm "bias" [ n ] dtype Ms.Global in
  let grid =
    if batch = 1 then Tt.grid "grid" [ m / bm; n / bn ]
    else Tt.grid "grid" [ m / bm; n / bn; batch ]
  in
  let bid_m, bid_n, bid_z =
    match B.block_coords grid with
    | [ x; y ] -> (x, y, E.zero)
    | [ x; y; z ] -> (x, y, z)
    | _ -> assert false
  in
  let blk = block ~dtype ~ta ~tb arch cfg in
  (* Epilogue: convert each accumulator group, optionally bias+activate,
     and store to C (paper Figure 10). *)
  let epi_allocs, stores =
    epilogue_stores ~thr:blk.thr ~pipe:blk.pipe ~epilogue ~c ~bias
      ~grow:(fun row ->
        E.add (E.mul bid_z (E.const m)) (E.add (E.mul bid_m (E.const bm)) row))
      ~gcol:(fun col -> E.add (E.mul bid_n (E.const bn)) col)
  in
  let body =
    block_body blk ~allocs:epi_allocs
      [ k_loop blk ~a ~b
          ~m0:(E.add (E.mul bid_z (E.const m)) (E.mul bid_m (E.const bm)))
          ~n0:(E.mul bid_n (E.const bn))
          ~b_k0:(E.mul bid_z (E.const k))
          ~k
      ]
    @ stores
  in
  let params = [ a; b; c ] @ if epilogue.Epilogue.bias then [ bias ] else [] in
  B.kernel name ~grid ~cta:blk.cta ~params body

(* ----- Section 3.4: parametric shapes and partial tiles ----- *)

let naive_parametric ?(name = "gemm_naive_param") ~launch_m ~launch_n ~bm ~bn
    ~tm ~tn () =
  let mv = E.var "M" and nv = E.var "N" and kv = E.var "K" in
  let a = Ts.create "A" (L.row_major_e [ mv; kv ]) Dt.FP16 Ms.Global in
  let b = Ts.create "B" (L.row_major_e [ kv; nv ]) Dt.FP16 Ms.Global in
  let c = Ts.create "C" (L.row_major_e [ mv; nv ]) Dt.FP16 Ms.Global in
  let blocks_m = (launch_m + bm - 1) / bm in
  let blocks_n = (launch_n + bn - 1) / bn in
  let grid = Tt.grid "grid" [ blocks_m; blocks_n ] in
  let cta = Tt.cta "cta" [ bm / tm; bn / tn ] in
  let bid_m, bid_n =
    match B.block_coords grid with
    | [ x; y ] -> (x, y)
    | _ -> assert false
  in
  let tid_m, tid_n =
    match B.thread_coords cta with
    | [ x; y ] -> (x, y)
    | _ -> assert false
  in
  let thr = Tt.select cta [ tid_m; tid_n ] in
  let body =
    [ B.for_ "k" kv (fun kk ->
          [ B.for_ ~unroll:true "m" (E.const tm) (fun mm ->
                [ B.for_ ~unroll:true "n" (E.const tn) (fun nn ->
                      let row =
                        E.add (E.mul bid_m (E.const bm))
                          (E.add (E.mul tid_m (E.const tm)) mm)
                      in
                      let col =
                        E.add (E.mul bid_n (E.const bn))
                          (E.add (E.mul tid_n (E.const tn)) nn)
                      in
                      (* Partial tiles: predicate against the true extents
                         (paper Section 3.4). *)
                      [ B.if_
                          B.(row <. mv &&. (col <. nv))
                          [ B.matmul ~threads:thr
                              ~a:(Ts.select a [ row; kk ])
                              ~b:(Ts.select b [ kk; col ])
                              ~c:(Ts.select c [ row; col ])
                              ()
                          ]
                      ])
                ])
          ])
    ]
  in
  B.kernel name ~scalar_params:[ "M"; "N"; "K" ] ~grid ~cta
    ~params:[ a; b; c ] body

(* ----- split-K: a two-kernel decomposition ----- *)

let split_k ?(name = "gemm_splitk") arch cfg ~epilogue ~splits ~m ~n ~k () =
  let { bm; bn; bk; _ } = cfg in
  require (k mod (splits * bk) = 0) "k must divide by splits * bk";
  require (m mod bm = 0 && n mod bn = 0) "m, n must divide by block tiles";
  let kslice = k / splits in
  let a = Ts.create_rm "A" [ m; k ] Dt.FP16 Ms.Global in
  let b = Ts.create_rm "B" [ k; n ] Dt.FP16 Ms.Global in
  let cp = Ts.create_rm "Cp" [ splits * m; n ] Dt.FP32 Ms.Global in
  (* --- kernel 1: partial GEMMs over K slices --- *)
  let grid = Tt.grid "grid" [ m / bm; n / bn; splits ] in
  let bid_m, bid_n, bid_s =
    match B.block_coords grid with
    | [ x; y; z ] -> (x, y, z)
    | _ -> assert false
  in
  let blk = block arch cfg in
  let k0 = E.mul bid_s (E.const kslice) in
  let cp_groups = B.vec_tile cp (Tc_pipeline.group_width blk.pipe) in
  let store_partials =
    Tc_pipeline.foreach_out blk.pipe (fun ~row ~col ~width ~acc ->
        let grow =
          E.add (E.mul bid_s (E.const m))
            (E.add (E.mul bid_m (E.const bm)) row)
        in
        let gcol = E.add (E.mul bid_n (E.const bn)) col in
        [ B.move ~label:"store fp32 partial" ~threads:blk.thr ~src:acc
            ~dst:(Ts.select cp_groups [ grow; E.div gcol (E.const width) ])
            ()
        ])
  in
  let partial_kernel =
    B.kernel (name ^ "_partial") ~grid ~cta:blk.cta ~params:[ a; b; cp ]
      (block_body blk ~allocs:[]
         [ k_loop ~a_k0:k0 ~b_k0:k0 blk ~a ~b ~m0:(E.mul bid_m (E.const bm))
             ~n0:(E.mul bid_n (E.const bn)) ~k:kslice
         ]
      @ store_partials)
  in
  (* --- kernel 2: reduce the partials and apply the epilogue --- *)
  let c = Ts.create_rm "C" [ m; n ] Dt.FP16 Ms.Global in
  let bias = Ts.create_rm "bias" [ n ] Dt.FP16 Ms.Global in
  let rw = 4 in
  let rthreads = 128 in
  require (m * n mod (rw * rthreads) = 0) "m*n must divide by the reducer";
  let rgrid = Tt.grid "grid" [ m * n / (rw * rthreads) ] in
  let rcta = Tt.linear "cta" rthreads Tt.Thread in
  let rthr = Tt.select rcta [ B.thread_idx ] in
  let acc_rf, al_acc = B.alloc_regs "acc" (L.vector rw) Dt.FP32 in
  let part_rf, al_part = B.alloc_regs "part" (L.vector rw) Dt.FP32 in
  let out_rf, al_out = B.alloc_regs "out" (L.vector rw) Dt.FP16 in
  let bias_rf, al_bi = B.alloc_regs "bias_rf" (L.vector rw) Dt.FP16 in
  let elem0 =
    E.mul
      (E.add (E.mul B.block_idx (E.const rthreads)) B.thread_idx)
      (E.const rw)
  in
  let cp_vecs = B.vec_tile cp rw in
  let c_vecs = B.vec_tile c rw in
  let bias_vecs = B.vec_tile bias rw in
  let row = E.div elem0 (E.const n) and colg = E.div (E.rem elem0 (E.const n)) (E.const rw) in
  let reduce_body =
    [ al_acc; al_part; al_out ]
    @ (if epilogue.Epilogue.bias then [ al_bi ] else [])
    @ [ B.init ~threads:rthr 0.0 ~dst:acc_rf ()
      ; B.for_ ~unroll:true "s" (E.const splits) (fun s ->
            [ B.move ~label:"load partial" ~threads:rthr
                ~src:
                  (Ts.select cp_vecs
                     [ E.add (E.mul s (E.const m)) row; colg ])
                ~dst:part_rf ()
            ; B.binary ~threads:rthr Op.Add ~lhs:acc_rf ~rhs:part_rf
                ~dst:acc_rf ()
            ])
      ]
    @ (if epilogue.Epilogue.bias then
         [ B.move ~threads:rthr
             ~src:(Ts.select bias_vecs [ colg ])
             ~dst:bias_rf ()
         ; B.binary ~threads:rthr Op.Add ~lhs:acc_rf ~rhs:bias_rf ~dst:acc_rf ()
         ]
       else [])
    @ (match epilogue.Epilogue.act with
      | Some act -> [ B.unary ~threads:rthr act ~src:acc_rf ~dst:acc_rf () ]
      | None -> [])
    @ [ B.move ~label:"cvt+store" ~threads:rthr ~src:acc_rf ~dst:out_rf ()
      ; B.move ~threads:rthr ~src:out_rf ~dst:(Ts.select c_vecs [ row; colg ]) ()
      ]
  in
  let reduce_params =
    [ cp; c ] @ if epilogue.Epilogue.bias then [ bias ] else []
  in
  let reduce_kernel =
    B.kernel (name ^ "_reduce") ~grid:rgrid ~cta:rcta ~params:reduce_params
      reduce_body
  in
  (partial_kernel, reduce_kernel)
