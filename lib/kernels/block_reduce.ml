module E = Shape.Int_expr
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module B = Graphene.Builder
module Spec = Graphene.Spec

let rec masks width = if width <= 1 then [] else (width / 2) :: masks (width / 2)

let valid_width width = width land (width - 1) = 0 && width <= 32

let warp_reduce ~warp ~op ~value ~tmp ~width =
  if not (valid_width width) then
    invalid_arg "Block_reduce.warp_reduce: width must be a power of two <= 32";
  List.concat_map
    (fun mask ->
      [ B.shfl ~threads:warp (Spec.Bfly mask) ~src:value ~dst:tmp ()
      ; B.binary ~threads:(Tt.select warp [ E.rem B.thread_idx (E.const 32) ])
          op ~lhs:value ~rhs:tmp ~dst:value ()
      ])
    (masks width)

let block_reduce ~cta ~warp ~thr ~op ~value ~tmp ~partials ~identity =
  let nwarps = Tt.size cta / 32 in
  let wid = E.div B.thread_idx (E.const 32) in
  let lane = E.rem B.thread_idx (E.const 32) in
  if nwarps = 1 then warp_reduce ~warp ~op ~value ~tmp ~width:32
  else
    warp_reduce ~warp ~op ~value ~tmp ~width:32
    @ [ B.if_
          B.(lane ==. E.zero)
          [ B.move ~label:"publish warp partial" ~threads:thr ~src:value
              ~dst:(Ts.select partials [ wid ])
              ()
          ]
      ; B.sync
      ; B.init ~threads:thr identity ~dst:value ()
      ; B.reduction ~label:"combine warp partials" ~threads:thr op ~axes:[ 0 ]
          ~src:partials ~dst:value ()
      ]

let warp_scan_inclusive ~warp ~op ~value ~tmp ~width =
  if not (valid_width width) then
    invalid_arg "Block_reduce.warp_scan_inclusive: width must be a power of two <= 32";
  let lane = E.rem B.thread_idx (E.const 32) in
  let thr = Tt.select warp [ lane ] in
  let rec steps d =
    if d >= width then []
    else
      [ B.shfl ~threads:warp (Spec.Up d) ~src:value ~dst:tmp ()
      ; B.if_
          (Spec.Cmp (Spec.Ge, E.rem lane (E.const width), E.const d))
          [ B.binary ~threads:thr op ~lhs:value ~rhs:tmp ~dst:value () ]
      ]
      @ steps (2 * d)
  in
  steps 1
