module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor

type stmt = Spec.stmt

let spec_stmt ?label ?decomp kind ~ins ~outs ~threads =
  Spec.Spec_stmt (Spec.make ?label ?decomp kind ~ins ~outs ~threads)

let move ?label ~threads ~src ~dst () =
  spec_stmt ?label Spec.Move ~ins:[ src ] ~outs:[ dst ] ~threads

let matmul ?label ~threads ~a ~b ~c () =
  spec_stmt ?label Spec.Mat_mul ~ins:[ a; b ] ~outs:[ c ] ~threads

let unary ?label ~threads op ~src ~dst () =
  spec_stmt ?label (Spec.Unary_pointwise op) ~ins:[ src ] ~outs:[ dst ]
    ~threads

let binary ?label ~threads op ~lhs ~rhs ~dst () =
  spec_stmt ?label (Spec.Binary_pointwise op) ~ins:[ lhs; rhs ]
    ~outs:[ dst ] ~threads

let reduction ?label ~threads op ~axes ~src ~dst () =
  spec_stmt ?label (Spec.Reduction { op; axes }) ~ins:[ src ] ~outs:[ dst ]
    ~threads

let shfl ?label ~threads kind ~src ~dst () =
  spec_stmt ?label (Spec.Shfl kind) ~ins:[ src ] ~outs:[ dst ] ~threads

let init ?label ~threads v ~dst () =
  spec_stmt ?label (Spec.Init v) ~ins:[] ~outs:[ dst ] ~threads

let decomposed spec body = Spec.Spec_stmt { spec with Spec.decomp = Some body }

let generic ?label name ~threads ~ins ~outs body =
  spec_stmt ?label (Spec.Generic name) ~ins ~outs ~threads ~decomp:body

let for_ ?(unroll = false) var n body =
  Spec.For
    { var; lo = E.zero; hi = n; step = E.one; unroll; body = body (E.var var) }

let if_ cond then_ = Spec.If { cond; then_; else_ = [] }
let if_else cond then_ else_ = Spec.If { cond; then_; else_ }
let sync = Spec.Sync
let commit_group = Spec.Commit_group
let wait_group n = Spec.Wait_group n
let comment c = Spec.Comment c

let ( <. ) a b = Spec.Cmp (Spec.Lt, a, b)
let ( <=. ) a b = Spec.Cmp (Spec.Le, a, b)
let ( ==. ) a b = Spec.Cmp (Spec.Eq, a, b)
let ( &&. ) a b = Spec.And (a, b)

let alloc_shared ?swizzle name layout dtype =
  let t = Ts.create ?swizzle name layout dtype Gpu_tensor.Memspace.Shared in
  (t, Spec.Alloc t)

let alloc_regs name layout dtype =
  let t = Ts.create name layout dtype Gpu_tensor.Memspace.Register in
  (t, Spec.Alloc t)

let vec_tile t w =
  let tiler =
    match Ts.rank t with
    | 1 -> [ L.tile_spec w ]
    | 2 -> [ L.tile_spec 1; L.tile_spec w ]
    | r -> invalid_arg (Printf.sprintf "Builder.vec_tile: rank-%d view" r)
  in
  Ts.tile t tiler

let thread_idx = E.var "threadIdx.x"
let block_idx = E.var "blockIdx.x"
let block_coords grid = Tt.coord_exprs grid block_idx
let thread_coords cta = Tt.coord_exprs cta thread_idx

let kernel name ?(scalar_params = []) ~grid ~cta ~params body =
  { Spec.name; params; scalar_params; grid; cta; body }
