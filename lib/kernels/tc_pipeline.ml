module E = Shape.Int_expr
module L = Shape.Layout
module T = Shape.Int_tuple
module Sw = Shape.Swizzle
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module B = Graphene.Builder
module Spec = Graphene.Spec
module Arch = Graphene.Arch

type a_operand =
  | A_m_major of { t : Ts.t; row0 : E.t; col0 : E.t; ld : int }
  | A_k_major of { t : Ts.t; row0 : E.t; col0 : E.t; ld : int }

type b_operand =
  | B_k_major of { t : Ts.t; row0 : E.t; col0 : E.t; ld : int }
  | B_n_major of { t : Ts.t; row0 : E.t; col0 : E.t; ld : int }

type t =
  { arch : Arch.t
  ; thr : Tt.t
  ; warp : Tt.t
  ; qp : Tt.t  (** quad-pair (SM70 only; equals [warp] otherwise) *)
  ; wm : int
  ; wn : int
  ; mt_count : int
  ; nt_count : int
  ; use_ldmatrix : bool
  ; acc : Ts.t
  ; a_frag : Ts.t
  ; b_frag : Ts.t
  ; alloc_stmts : Spec.stmt list
  ; lane : E.t
  ; wm_idx : E.t
  ; wn_idx : E.t
  ; qpm : E.t
  ; qpn : E.t
  ; q_hi : E.t
  ; q_lo : E.t
  }

let require cond msg = if not cond then invalid_arg ("Tc_pipeline: " ^ msg)

(* The warp-level mma footprint (m, n, k): m16n8k16 on SM86; on SM70
   the quad pairs of m8n8k4 cover 16x16 of a warp tile, 4 deep. A warp
   tile is whole footprints and a k step whole k's. *)
let mma_footprint = function
  | Arch.SM86 -> (16, 8, 16)
  | Arch.SM70 -> (16, 16, 4)

let warp_tile_fits arch ~wm ~wn =
  let fm, fn, _ = mma_footprint arch in
  wm mod fm = 0 && wn mod fn = 0

let k_step_fits arch ~kc =
  let _, _, fk = mma_footprint arch in
  kc mod fk = 0

let fits arch ~wm ~wn ~kc = warp_tile_fits arch ~wm ~wn && k_step_fits arch ~kc

let log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) (v / 2) in
  go 0 n

(* The conflict-free staging swizzle of a row-major fp16 tile [width]
   (a power of two) elements wide: Swizzle<b, 3, log2 width - bits>,
   b = min bits (log2 width - bits), XORs row-index bits into the tile's
   16-byte-chunk bits, so the rows one ldmatrix or staging wavefront
   touches fall in distinct banks. Rows under 16 elements stay linear. *)
let staging_swizzle ~bits width =
  let l = log2 width in
  if l >= 4 then Sw.make ~bits:(min bits (l - bits)) ~base:3 ~shift:(l - bits)
  else Sw.none

let rf_window buf width offset_expr =
  Ts.reinterpret buf ~layout:(L.vector width)
    ~elem:(Ts.Scalar (Ts.dtype buf))
    ~offset:offset_expr

let scalar_view (ts : Ts.t) offset =
  Ts.reinterpret ts ~layout:L.empty ~elem:(Ts.Scalar (Ts.dtype ts)) ~offset

let create ?(prefix = "") ?(dtype = Dt.FP16) arch ~cta ~bm ~bn ~wm ~wn ~use_ldmatrix =
  require (bm mod wm = 0 && bn mod wn = 0) "block tile not divisible by warp tile";
  let warps_m = bm / wm and warps_n = bn / wn in
  require (Tt.size cta = warps_m * warps_n * 32) "thread count mismatch";
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let warp =
    Tt.select (Tt.tile cta [ L.tile_spec 32 ]) [ E.div tid (E.const 32) ]
  in
  let lane = E.rem tid (E.const 32) in
  let wid = E.div tid (E.const 32) in
  let wm_idx = E.rem wid (E.const warps_m) in
  let wn_idx = E.div wid (E.const warps_m) in
  let n = Printf.sprintf "%s%s" prefix in
  match arch with
  | Arch.SM86 ->
    require (warp_tile_fits arch ~wm ~wn) "warp tile not divisible by mma";
    let mt_count = wm / 16 and nt_count = wn / 8 in
    let acc, al_acc =
      B.alloc_regs (n "acc") (L.vector (mt_count * nt_count * 4)) Dt.FP32
    in
    let a_frag, al_a = B.alloc_regs (n "a_frag") (L.vector (mt_count * 8)) dtype in
    let b_frag, al_b = B.alloc_regs (n "b_frag") (L.vector (nt_count * 4)) dtype in
    { arch
    ; thr
    ; warp
    ; qp = warp
    ; wm
    ; wn
    ; mt_count
    ; nt_count
    ; use_ldmatrix
    ; acc
    ; a_frag
    ; b_frag
    ; alloc_stmts = [ al_acc; al_a; al_b ]
    ; lane
    ; wm_idx
    ; wn_idx
    ; qpm = E.zero
    ; qpn = E.zero
    ; q_hi = E.zero
    ; q_lo = E.zero
    }
  | Arch.SM70 ->
    require (not use_ldmatrix) "ldmatrix is not available on SM70";
    require (Dt.equal dtype Dt.FP16) "SM70 tensor cores are fp16 only";
    require (warp_tile_fits arch ~wm ~wn)
      "warp tile not divisible by quad-pair footprint";
    let mt_count = wm / 16 and nt_count = wn / 16 in
    let acc, al_acc =
      B.alloc_regs (n "acc") (L.vector (mt_count * nt_count * 8)) Dt.FP32
    in
    let a_frag, al_a = B.alloc_regs (n "a_frag") (L.vector (mt_count * 4)) Dt.FP16 in
    let b_frag, al_b = B.alloc_regs (n "b_frag") (L.vector (nt_count * 4)) Dt.FP16 in
    let qp_spec =
      L.make
        (T.node [ T.of_int 4; T.of_int 2 ])
        (T.node [ T.of_int 1; T.of_int 16 ])
    in
    let qp_idx = E.div (E.rem lane (E.const 16)) (E.const 4) in
    let qp = Tt.select (Tt.tile warp [ Some qp_spec ]) [ qp_idx ] in
    { arch
    ; thr
    ; warp
    ; qp
    ; wm
    ; wn
    ; mt_count
    ; nt_count
    ; use_ldmatrix
    ; acc
    ; a_frag
    ; b_frag
    ; alloc_stmts = [ al_acc; al_a; al_b ]
    ; lane
    ; wm_idx
    ; wn_idx
    ; qpm = E.rem qp_idx (E.const 2)
    ; qpn = E.div qp_idx (E.const 2)
    ; q_hi = E.div lane (E.const 16)
    ; q_lo = E.rem lane (E.const 4)
    }

let allocs t = t.alloc_stmts
let init_acc t = [ B.init ~threads:t.thr 0.0 ~dst:t.acc () ]
let group_width t = match t.arch with Arch.SM86 -> 2 | Arch.SM70 -> 4

(* ----- SM86 fragment loading ----- *)

(* 16x16 A region as the [2,2].[8,8] source view of ldmatrix.x4 (plain for
   m-major storage; the transposed view of k-major storage selects the
   .trans variant). *)
let ldmatrix_a_view a =
  (* The [2,2].[8,8] structure is logical division of the 16x16 region by an
     8x8 tile: tiling splits each 16 into (2 origins, 8 in-tile) with the
     origin stride 8x the element stride, exactly the quadrant arrangement
     ldmatrix.x4 expects. *)
  let quad region = Ts.tile region [ L.tile_spec 8; L.tile_spec 8 ] in
  match a with
  | A_m_major { t; row0; col0; ld } ->
    quad
      (Ts.reinterpret t
         ~layout:(L.of_pairs [ (16, ld); (16, 1) ])
         ~elem:(Ts.Scalar (Ts.dtype t))
         ~offset:(E.add (E.mul row0 (E.const ld)) col0))
  | A_k_major { t; row0; col0; ld } ->
    (* Logical A(m, k) = storage(k, m): dims stay (m, k) but the m stride
       is 1 and the k stride is ld — the orientation ldmatrix.trans
       transposes in its crossbar. *)
    quad
      (Ts.reinterpret t
         ~layout:(L.of_pairs [ (16, 1); (16, ld) ])
         ~elem:(Ts.Scalar (Ts.dtype t))
         ~offset:(E.add (E.mul row0 (E.const ld)) col0))

let a_shift a ~drow ~dcol =
  match a with
  | A_m_major r ->
    A_m_major { r with row0 = E.add r.row0 drow; col0 = E.add r.col0 dcol }
  | A_k_major r ->
    (* storage rows are k, columns are m *)
    A_k_major { r with row0 = E.add r.row0 dcol; col0 = E.add r.col0 drow }

let a_scalar_view a ~row ~col =
  match a with
  | A_m_major { t; row0; col0; ld } ->
    scalar_view t
      (E.add (E.mul (E.add row0 row) (E.const ld)) (E.add col0 col))
  | A_k_major { t; row0; col0; ld } ->
    scalar_view t
      (E.add (E.mul (E.add row0 col) (E.const ld)) (E.add col0 row))

(* 16(k) x 8(n) B region as the [2].[8,8] transposed source view of
   ldmatrix.x2.trans ([t] stores k-major) or plain ldmatrix.x2 ([t] stores
   n-major, i.e. the view is the storage itself). *)
let ldmatrix_b_view b =
  match b with
  | B_k_major { t; row0; col0; ld } ->
    Ts.reinterpret t
      ~layout:(L.vector 2 ~stride:(8 * ld))
      ~elem:
        (Ts.Tile
           { layout =
               L.make (T.node [ T.of_int 8; T.of_int 8 ])
                 (T.node [ T.of_int 1; T.of_int ld ])
           ; elem = Ts.Scalar (Ts.dtype t)
           })
      ~offset:(E.add (E.mul row0 (E.const ld)) col0)
  | B_n_major { t; row0; col0; ld } ->
    Ts.reinterpret t
      ~layout:(L.vector 2 ~stride:8)
      ~elem:
        (Ts.Tile
           { layout =
               L.make (T.node [ T.of_int 8; T.of_int 8 ])
                 (T.node [ T.of_int ld; T.of_int 1 ])
           ; elem = Ts.Scalar (Ts.dtype t)
           })
      ~offset:(E.add (E.mul row0 (E.const ld)) col0)

let b_shift b ~drow ~dcol =
  match b with
  | B_k_major r -> B_k_major { r with row0 = E.add r.row0 drow
                             ; col0 = E.add r.col0 dcol }
  | B_n_major r -> B_n_major { r with row0 = E.add r.row0 dcol
                             ; col0 = E.add r.col0 drow }

(* The number of mma k steps in a [kc]-deep accumulation. *)
let k_steps t ~kc =
  let _, _, fk = mma_footprint t.arch in
  require (k_step_fits t.arch ~kc) (Printf.sprintf "kc must divide by %d" fk);
  kc / fk

(* mma fragment coordinates as index expressions of the lane. *)
let frag_g t = E.div t.lane (E.const 4)
let frag_t4 t = E.rem t.lane (E.const 4)

let accumulate_sm86 t ~a ~b ~kc =
  let g = frag_g t and t4 = frag_t4 t in
  let ksteps = k_steps t ~kc in
  let load_a ks =
    B.for_ ~unroll:true "mt" (E.const t.mt_count) (fun mt ->
        let drow =
          E.add (E.mul t.wm_idx (E.const t.wm)) (E.mul mt (E.const 16))
        in
        let dcol = E.mul ks (E.const 16) in
        let a' = a_shift a ~drow ~dcol in
        let dst = rf_window t.a_frag 8 (E.mul mt (E.const 8)) in
        if t.use_ldmatrix then
          [ B.move ~label:"ldmatrix A" ~threads:t.warp
              ~src:(ldmatrix_a_view a') ~dst ()
          ]
        else
          List.map
            (fun (i, dr, dc) ->
              B.move ~label:"load A frag (lane)" ~threads:t.thr
                ~src:
                  (a_scalar_view a'
                     ~row:(E.add g (E.const dr))
                     ~col:(E.add (E.mul t4 (E.const 2)) (E.const dc)))
                ~dst:(rf_window t.a_frag 1 (E.add (E.mul mt (E.const 8)) (E.const i)))
                ())
            [ (0, 0, 0); (1, 0, 1); (2, 8, 0); (3, 8, 1)
            ; (4, 0, 8); (5, 0, 9); (6, 8, 8); (7, 8, 9)
            ])
  in
  let load_b ks =
    B.for_ ~unroll:true "nt" (E.const t.nt_count) (fun nt ->
        let drow = E.mul ks (E.const 16) in
        let dcol =
          E.add (E.mul t.wn_idx (E.const t.wn)) (E.mul nt (E.const 8))
        in
        let b' = b_shift b ~drow ~dcol in
        let dst = rf_window t.b_frag 4 (E.mul nt (E.const 4)) in
        if t.use_ldmatrix then
          [ B.move ~label:"ldmatrix B" ~threads:t.warp
              ~src:(ldmatrix_b_view b') ~dst ()
          ]
        else
          List.map
            (fun (i, dk) ->
              let koff = E.add (E.mul t4 (E.const 2)) (E.const dk) in
              let src =
                match b' with
                | B_k_major { t = bt; row0; col0; ld } ->
                  scalar_view bt
                    (E.add
                       (E.mul (E.add row0 koff) (E.const ld))
                       (E.add col0 g))
                | B_n_major { t = bt; row0; col0; ld } ->
                  scalar_view bt
                    (E.add
                       (E.mul (E.add row0 g) (E.const ld))
                       (E.add col0 koff))
              in
              B.move ~label:"load B frag (lane)" ~threads:t.thr ~src
                ~dst:(rf_window t.b_frag 1 (E.add (E.mul nt (E.const 4)) (E.const i)))
                ())
            [ (0, 0); (1, 1); (2, 8); (3, 9) ])
  in
  let mmas =
    B.for_ ~unroll:true "mt" (E.const t.mt_count) (fun mt ->
        [ B.for_ ~unroll:true "nt" (E.const t.nt_count) (fun nt ->
              [ B.matmul ~label:"mma.m16n8k16" ~threads:t.warp
                  ~a:(rf_window t.a_frag 8 (E.mul mt (E.const 8)))
                  ~b:(rf_window t.b_frag 4 (E.mul nt (E.const 4)))
                  ~c:
                    (rf_window t.acc 4
                       (E.add
                          (E.mul mt (E.const (t.nt_count * 4)))
                          (E.mul nt (E.const 4))))
                  ()
              ])
        ])
  in
  [ B.for_ ~unroll:true "ks" (E.const ksteps) (fun ks ->
        [ load_a ks; load_b ks; mmas ])
  ]

let accumulate_sm70 t ~a ~b ~kc =
  let ksteps = k_steps t ~kc in
  (* Fragments are loaded once per k-step and reused across the mma double
     loop (A across all nt, B across all mt) — the register amortization
     that makes Volta kernels compute- rather than smem-bound. *)
  let load_a mt ks =
    let drow =
      E.add (E.mul t.wm_idx (E.const t.wm))
        (E.add (E.mul mt (E.const 16)) (E.mul t.qpm (E.const 8)))
    in
    let a' = a_shift a ~drow ~dcol:(E.mul ks (E.const 4)) in
    B.for_ ~unroll:true "i" (E.const 4) (fun i ->
        [ B.move ~label:"load A frag (lane)" ~threads:t.thr
            ~src:
              (a_scalar_view a'
                 ~row:(E.add (E.mul t.q_hi (E.const 4)) i)
                 ~col:t.q_lo)
            ~dst:(rf_window t.a_frag 1 (E.add (E.mul mt (E.const 4)) i))
            ()
        ])
  in
  let load_b nt ks =
    let n_base =
      E.add (E.mul t.wn_idx (E.const t.wn))
        (E.add (E.mul nt (E.const 16))
           (E.add (E.mul t.qpn (E.const 8)) (E.mul t.q_hi (E.const 4))))
    in
    let k_off = E.add (E.mul ks (E.const 4)) t.q_lo in
    match b with
    | B_k_major { t = bt; row0; col0; ld } ->
      [ B.move ~label:"load B frag" ~threads:t.thr
          ~src:
            (Ts.reinterpret bt ~layout:(L.vector 4)
               ~elem:(Ts.Scalar (Ts.dtype bt))
               ~offset:
                 (E.add
                    (E.mul (E.add row0 k_off) (E.const ld))
                    (E.add col0 n_base)))
          ~dst:(rf_window t.b_frag 4 (E.mul nt (E.const 4)))
          ()
      ]
    | B_n_major { t = bt; row0; col0; ld } ->
      List.init 4 (fun j ->
          B.move ~label:"load B frag (lane)" ~threads:t.thr
            ~src:
              (scalar_view bt
                 (E.add
                    (E.mul (E.add row0 (E.add n_base (E.const j))) (E.const ld))
                    (E.add col0 k_off)))
            ~dst:
              (rf_window t.b_frag 1
                 (E.add (E.mul nt (E.const 4)) (E.const j)))
            ())
  in
  [ B.for_ ~unroll:true "ks" (E.const ksteps) (fun ks ->
        [ B.for_ ~unroll:true "mt" (E.const t.mt_count) (fun mt ->
              [ load_a mt ks ])
        ; B.for_ ~unroll:true "nt" (E.const t.nt_count) (fun nt ->
              load_b nt ks)
        ; B.for_ ~unroll:true "mt" (E.const t.mt_count) (fun mt ->
              [ B.for_ ~unroll:true "nt" (E.const t.nt_count) (fun nt ->
                    [ B.matmul ~label:"mma.m8n8k4 (quad-pair)" ~threads:t.qp
                        ~a:(rf_window t.a_frag 4 (E.mul mt (E.const 4)))
                        ~b:(rf_window t.b_frag 4 (E.mul nt (E.const 4)))
                        ~c:
                          (rf_window t.acc 8
                             (E.add
                                (E.mul mt (E.const (t.nt_count * 8)))
                                (E.mul nt (E.const 8))))
                        ()
                    ])
              ])
        ])
  ]

let accumulate t ~a ~b ~kc =
  match t.arch with
  | Arch.SM86 -> accumulate_sm86 t ~a ~b ~kc
  | Arch.SM70 -> accumulate_sm70 t ~a ~b ~kc

let foreach_out t f =
  let g = frag_g t and t4 = frag_t4 t in
  let width = group_width t in
  match t.arch with
  | Arch.SM86 ->
    [ B.for_ ~unroll:true "nt" (E.const t.nt_count) (fun nt ->
          let col =
            E.add (E.mul t.wn_idx (E.const t.wn))
              (E.add (E.mul nt (E.const 8)) (E.mul t4 (E.const 2)))
          in
          [ B.for_ ~unroll:true "mt" (E.const t.mt_count) (fun mt ->
                [ B.for_ ~unroll:true "p" (E.const 2) (fun p ->
                      let row =
                        E.add (E.mul t.wm_idx (E.const t.wm))
                          (E.add (E.mul mt (E.const 16))
                             (E.add g (E.mul p (E.const 8))))
                      in
                      let acc =
                        rf_window t.acc width
                          (E.add
                             (E.add
                                (E.mul mt (E.const (t.nt_count * 4)))
                                (E.mul nt (E.const 4)))
                             (E.mul p (E.const 2)))
                      in
                      f ~row ~col ~width ~acc)
                ])
          ])
    ]
  | Arch.SM70 ->
    [ B.for_ ~unroll:true "nt" (E.const t.nt_count) (fun nt ->
          let col =
            E.add (E.mul t.wn_idx (E.const t.wn))
              (E.add (E.mul nt (E.const 16))
                 (E.add (E.mul t.qpn (E.const 8)) (E.mul t.q_hi (E.const 4))))
          in
          [ B.for_ ~unroll:true "mt" (E.const t.mt_count) (fun mt ->
                [ B.for_ ~unroll:true "i" (E.const 2) (fun i ->
                      let row =
                        E.add (E.mul t.wm_idx (E.const t.wm))
                          (E.add (E.mul mt (E.const 16))
                             (E.add (E.mul t.qpm (E.const 8))
                                (E.add (E.mul t.q_lo (E.const 2)) i)))
                      in
                      let acc =
                        rf_window t.acc width
                          (E.add
                             (E.add
                                (E.mul mt (E.const (t.nt_count * 8)))
                                (E.mul nt (E.const 8)))
                             (E.mul i (E.const 4)))
                      in
                      f ~row ~col ~width ~acc)
                ])
          ])
    ]
