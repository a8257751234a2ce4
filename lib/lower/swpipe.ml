(* Software pipelining: rewrite the canonical single-buffered staging
   loop into an N-stage rotating-buffer pipeline.

   The matched shape is exactly what Kernels.Staging.step emits on a
   cp.async architecture (stage moves, then the commit/wait fence, then
   the barrier, then compute, then the trailing barrier). The rewrite keeps
   the loop variable's name, so the stage statements rebind under the
   prologue loop unchanged; the steady-state prefetch substitutes
   [kk -> kk + N-1] through the already-rotated statements.

   Correctness leans on two facts:
   - the async-copy queue is FIFO per block, so [wait_group (N-1)]
     after the prologue's N-1 groups plus this iteration's commit
     drains exactly the group staged for the slot about to be computed
     (empty tail commits keep the group count in lock-step when the
     prefetch runs off the end of the data);
   - the trailing barrier of iteration [kk-1] orders every thread's
     reads of slot [(kk-1) mod N] before iteration [kk]'s prefetch
     overwrites it (the WAR hazard of rotation).

   The slot stride is derived from the layout algebra: cosize of the
   staging tile rounded up to the rotation granule, then validated by
   logical_divide of the N-slot arena by one slot — mode 1 of the
   quotient enumerates the slot origins and its stride is the rotation
   step. *)

module E = Shape.Int_expr
module L = Shape.Layout
module T = Shape.Int_tuple
module Sw = Shape.Swizzle
module Ts = Gpu_tensor.Tensor
module Ms = Gpu_tensor.Memspace
module Dt = Gpu_tensor.Dtype
module Arch = Graphene.Arch
module Spec = Graphene.Spec

type reason =
  | Disabled
  | Not_async
  | No_stage_loop
  | Loop_shape of string
  | Too_few_tiles of int
  | Buffer_escapes of string
  | Non_divisible of string
  | Too_little_smem of int
  | Queue_depth of int

let reason_to_string = function
  | Disabled -> "disabled"
  | Not_async -> "not-async"
  | No_stage_loop -> "no-stage-loop"
  | Loop_shape why -> "loop-shape:" ^ why
  | Too_few_tiles t -> Printf.sprintf "too-few-tiles:%d" t
  | Buffer_escapes b -> "buffer-escapes:" ^ b
  | Non_divisible why -> "non-divisible:" ^ why
  | Too_little_smem bytes -> Printf.sprintf "too-little-smem:%dB" bytes
  | Queue_depth d -> Printf.sprintf "queue-depth:%d" d

type pipelined =
  { p_var : string
  ; p_trip : int
  ; p_stages : int
  ; p_buffers : (string * int) list
  ; p_stage_bytes : int
  ; p_queue_bound : int
  }

type verdict =
  { loops : pipelined list
  ; refusals : (string * reason) list
  }

let verdict_to_string v =
  let ok =
    List.map
      (fun p ->
        Printf.sprintf "swpipe(%s): %d stages over %d tiles, %d B/stage [%s]"
          p.p_var p.p_stages p.p_trip p.p_stage_bytes
          (String.concat ", "
             (List.map
                (fun (b, s) -> Printf.sprintf "%s+%d" b s)
                p.p_buffers)))
      v.loops
  in
  let no =
    List.map
      (fun (var, r) ->
        Printf.sprintf "swpipe(%s): scalar:%s" var (reason_to_string r))
      v.refusals
  in
  match ok @ no with [] -> "swpipe: nothing to do" | ls -> String.concat "\n" ls

(* ----- statement traversal helpers ----- *)

(* Map every leaf spec's tensors through [f] (structure preserved;
   recurses into decompositions, branch arms and loop bodies). *)
let rec map_tensors_stmt f (st : Spec.stmt) : Spec.stmt =
  match st with
  | Spec.Spec_stmt s -> Spec.Spec_stmt (map_tensors_spec f s)
  | Spec.For r -> Spec.For { r with body = List.map (map_tensors_stmt f) r.body }
  | Spec.If { cond; then_; else_ } ->
    Spec.If
      { cond
      ; then_ = List.map (map_tensors_stmt f) then_
      ; else_ = List.map (map_tensors_stmt f) else_
      }
  | Spec.Alloc _ | Spec.Sync | Spec.Commit_group | Spec.Wait_group _
  | Spec.Comment _ ->
    st

and map_tensors_spec f (s : Spec.t) : Spec.t =
  { s with
    Spec.ins = List.map f s.Spec.ins
  ; outs = List.map f s.Spec.outs
  ; decomp = Option.map (List.map (map_tensors_stmt f)) s.Spec.decomp
  }

let rec subst_pred bindings = function
  | Spec.Cmp (rel, a, b) ->
    Spec.Cmp (rel, E.subst bindings a, E.subst bindings b)
  | Spec.And (a, b) -> Spec.And (subst_pred bindings a, subst_pred bindings b)
  | Spec.Or (a, b) -> Spec.Or (subst_pred bindings a, subst_pred bindings b)
  | Spec.Not p -> Spec.Not (subst_pred bindings p)

(* Substitute loop variables by expressions through a statement:
   tensors (layouts and offsets), loop bounds and branch predicates. *)
let rec subst_stmt bindings (st : Spec.stmt) : Spec.stmt =
  match st with
  | Spec.Spec_stmt s ->
    Spec.Spec_stmt (map_tensors_spec (Ts.subst bindings) s)
  | Spec.For r ->
    (* An inner loop shadowing a substituted variable would capture it;
       the canonical stage statements never shadow (Staging.copy's
       inner loop is over the fresh "v"), but guard anyway. *)
    let bindings = List.filter (fun (v, _) -> v <> r.var) bindings in
    Spec.For
      { r with
        lo = E.subst bindings r.lo
      ; hi = E.subst bindings r.hi
      ; step = E.subst bindings r.step
      ; body = List.map (subst_stmt bindings) r.body
      }
  | Spec.If { cond; then_; else_ } ->
    Spec.If
      { cond = subst_pred bindings cond
      ; then_ = List.map (subst_stmt bindings) then_
      ; else_ = List.map (subst_stmt bindings) else_
      }
  | Spec.Alloc _ | Spec.Sync | Spec.Commit_group | Spec.Wait_group _
  | Spec.Comment _ ->
    st

(* Fold over every leaf spec of a statement list (including nested
   decompositions). *)
let fold_leaves f acc stmts =
  Spec.fold_specs
    (fun acc s -> if s.Spec.decomp = None then f acc s else acc)
    acc stmts

(* Does any statement (recursively) contain a fence or barrier? *)
let rec has_sync_or_fence (st : Spec.stmt) =
  match st with
  | Spec.Sync | Spec.Commit_group | Spec.Wait_group _ -> true
  | Spec.For r -> List.exists has_sync_or_fence r.body
  | Spec.If { then_; else_; _ } ->
    List.exists has_sync_or_fence then_ || List.exists has_sync_or_fence else_
  | Spec.Spec_stmt s -> (
    match s.Spec.decomp with
    | Some body -> List.exists has_sync_or_fence body
    | None -> false)
  | Spec.Alloc _ | Spec.Comment _ -> false

let rec has_fence (st : Spec.stmt) =
  match st with
  | Spec.Commit_group | Spec.Wait_group _ -> true
  | Spec.Sync -> false
  | Spec.For r -> List.exists has_fence r.body
  | Spec.If { then_; else_; _ } ->
    List.exists has_fence then_ || List.exists has_fence else_
  | Spec.Spec_stmt s -> (
    match s.Spec.decomp with
    | Some body -> List.exists has_fence body
    | None -> false)
  | Spec.Alloc _ | Spec.Comment _ -> false

(* Buffer names a statement list mentions through any leaf view
   (allocations excluded: the Alloc of a rotated buffer is resized,
   not an escape). *)
let mentioned_buffers stmts =
  fold_leaves
    (fun acc s ->
      List.fold_left
        (fun acc (t : Ts.t) -> t.Ts.buffer :: acc)
        acc
        (s.Spec.ins @ s.Spec.outs))
    [] stmts

(* ----- slot geometry ----- *)

(* cp.async copies 16-byte lines and the rotated base must keep the
   source segment's 128-byte alignment, so the rotation granule is
   128 bytes — widened to the swizzle window when the buffer is
   swizzled (a slot boundary must never split a permutation window). *)
let rotation_granule (t : Ts.t) =
  let bytes = Dt.size_bytes (Ts.dtype t) in
  max (Sw.window t.Ts.swizzle) (128 / bytes)

(* Slot stride in scalars, derived and validated by the layout algebra:
   round the alloc's cosize up to the granule, then logical_divide the
   N-slot arena by one slot and read the rotation step off mode 1 (the
   slot origins). *)
let slot_stride ~stages (t : Ts.t) =
  let granule = rotation_granule t in
  let cosize = L.cosize t.Ts.layout in
  let slot = (cosize + granule - 1) / granule * granule in
  match
    let arena = L.vector (stages * slot) in
    let quotient = L.logical_divide arena (L.vector slot) in
    let origins = L.mode quotient 1 in
    (T.to_ints_exn (L.dims origins), T.to_ints_exn (L.strides origins))
  with
  | [ n ], [ step ] when n = stages && step = slot -> Ok slot
  | _ ->
    Error
      (Non_divisible
         (Printf.sprintf "%s: %d-slot arena / %d" t.Ts.buffer stages slot))
  | exception L.Layout_error why -> Error (Non_divisible why)

(* Add [slot_expr * stride] to every view of [buffers] (a name ->
   stride map); other tensors pass through. *)
let rotate_views buffers slot_expr stmts =
  let rot (t : Ts.t) =
    match List.assoc_opt t.Ts.buffer buffers with
    | Some stride when t.Ts.mem = Ms.Shared ->
      Ts.reinterpret t ~layout:t.Ts.layout ~elem:t.Ts.elem
        ~offset:(E.add t.Ts.offset (E.mul slot_expr (E.const stride)))
    | _ -> t
  in
  List.map (map_tensors_stmt rot) stmts

(* ----- the loop matcher ----- *)

type split =
  { sp_stage : Spec.stmt list  (* the prefetch statements *)
  ; sp_compute : Spec.stmt list  (* everything after the publishing sync *)
  ; sp_buffers : string list  (* shared buffers the stage part writes *)
  }

(* Split a candidate loop body at its commit/wait/sync fence and check
   the canonical shape. *)
let split_body (body : Spec.stmt list) : (split, reason) result =
  let rec find_fence acc = function
    | Spec.Commit_group :: Spec.Wait_group 0 :: Spec.Sync :: rest ->
      Ok (List.rev acc, rest)
    | Spec.Commit_group :: _ ->
      Error (Loop_shape "fence is not commit/wait 0/sync")
    | (Spec.Sync | Spec.Wait_group _) :: _ -> Error Not_async
    | st :: rest -> find_fence (st :: acc) rest
    | [] -> Error Not_async
  in
  match find_fence [] body with
  | Error r -> Error r
  | Ok (stage, compute) ->
    if stage = [] then Error (Loop_shape "no stage statements before fence")
    else if List.exists has_sync_or_fence stage then
      Error (Loop_shape "stage part contains a barrier or fence")
    else if compute = [] then Error (Loop_shape "no compute after fence")
    else if
      match List.rev compute with Spec.Sync :: _ -> false | _ -> true
    then Error (Loop_shape "loop does not end with a barrier")
    else if List.exists has_fence compute then
      Error (Loop_shape "a second fence inside the loop")
    else
      (* The stage part must be pure GL -> SH data movement. *)
      let bad_out =
        fold_leaves
          (fun acc s ->
            match acc with
            | Some _ -> acc
            | None ->
              List.find_opt
                (fun (t : Ts.t) -> t.Ts.mem <> Ms.Shared)
                s.Spec.outs)
          None stage
      in
      (match bad_out with
      | Some t ->
        Error
          (Loop_shape (Printf.sprintf "stage writes non-shared %s" t.Ts.buffer))
      | None ->
        let buffers =
          List.sort_uniq String.compare
            (fold_leaves
               (fun acc s ->
                 List.fold_left
                   (fun acc (t : Ts.t) -> t.Ts.buffer :: acc)
                   acc s.Spec.outs)
               [] stage)
        in
        if buffers = [] then Error (Loop_shape "stage part moves nothing")
        else if
          (* Compute may only read the staged tiles; a write would land
             in one slot where the original wrote the single buffer. *)
          fold_leaves
            (fun acc s ->
              acc
              || List.exists
                   (fun (t : Ts.t) -> List.mem t.Ts.buffer buffers)
                   s.Spec.outs)
            false compute
        then Error (Loop_shape "compute writes a staged buffer")
        else Ok { sp_stage = stage; sp_compute = compute; sp_buffers = buffers })

(* ----- the rewrite ----- *)

type ctx =
  { arch : Arch.t
  ; stages : int
  ; alloc_of : string -> Ts.t option  (* shared allocs of the kernel *)
  ; total : string -> int  (* view mentions across the whole kernel *)
  ; smem_total : int  (* bytes of all shared allocs, unrotated *)
  ; mutable loops : pipelined list
  ; mutable refusals : (string * reason) list
  }

let shared_alloc_bytes (t : Ts.t) =
  let cosize = L.cosize t.Ts.layout in
  let w = Sw.window t.Ts.swizzle in
  (cosize + w - 1) / w * w * Dt.size_bytes (Ts.dtype t)

(* Attempt one candidate loop; [Ok] carries the replacement statements
   (prologue + steady-state loop + tail drain). *)
let attempt ctx ~var ~trip (body : Spec.stmt list) :
    (Spec.stmt list * pipelined, reason) result =
  let ( let* ) = Result.bind in
  let* split = split_body body in
  let* () = if trip < 2 then Error (Too_few_tiles trip) else Ok () in
  let stages = min ctx.stages trip in
  let* () =
    let depth = Arch.async_queue_depth ctx.arch in
    if depth < stages then Error (Queue_depth depth) else Ok ()
  in
  let* () =
    (* Every mention of a staged buffer must be inside this loop:
       mentions across the whole kernel must equal mentions in this
       body, or rotating the buffer changes an outside reader. *)
    let inside = mentioned_buffers body in
    let count b l = List.length (List.filter (String.equal b) l) in
    match
      List.find_opt (fun b -> ctx.total b > count b inside) split.sp_buffers
    with
    | Some b -> Error (Buffer_escapes b)
    | None -> Ok ()
  in
  let* rotated =
    List.fold_left
      (fun acc b ->
        let* acc = acc in
        match ctx.alloc_of b with
        | None -> Error (Buffer_escapes (b ^ " (no local allocation)"))
        | Some t ->
          let* stride = slot_stride ~stages t in
          Ok ((b, (t, stride)) :: acc))
      (Ok []) split.sp_buffers
  in
  let rotated = List.rev rotated in
  let* () =
    (* Shared footprint with this loop's buffers rotated: the kernel
       total, minus their unrotated allocs, plus the slot arenas. *)
    let total =
      List.fold_left
        (fun acc (_, (t, stride)) ->
          acc - shared_alloc_bytes t
          + (stages * stride * Dt.size_bytes (Ts.dtype t)))
        ctx.smem_total rotated
    in
    if total > Arch.smem_bytes_per_block ctx.arch then
      Error (Too_little_smem total)
    else Ok ()
  in
  let strides = List.map (fun (b, (_, s)) -> (b, s)) rotated in
  let kk = E.var var in
  let slot = E.rem kk (E.const stages) in
  (* Rotate first (the slot expression stays in terms of [var]), then
     substitute [var -> var + stages-1] through the prefetch so both the
     global source and the slot follow the prefetch index. *)
  let stage_rot = rotate_views strides slot split.sp_stage in
  let stage_pre =
    List.map (subst_stmt [ (var, E.add kk (E.const (stages - 1))) ]) stage_rot
  in
  let compute_rot = rotate_views strides slot split.sp_compute in
  let prologue =
    Spec.For
      { var
      ; lo = E.zero
      ; hi = E.const (stages - 1)
      ; step = E.const 1
      ; unroll = false
      ; body = stage_rot @ [ Spec.Commit_group ]
      }
  in
  let steady =
    Spec.For
      { var
      ; lo = E.zero
      ; hi = E.const trip
      ; step = E.const 1
      ; unroll = false
      ; body =
          [ Spec.If
              { cond =
                  Spec.Cmp
                    (Spec.Lt, E.add kk (E.const (stages - 1)), E.const trip)
              ; then_ = stage_pre
              ; else_ = []
              }
            (* Committed even when the prefetch ran off the end: the
               empty group keeps wait_group's count in lock-step. *)
          ; Spec.Commit_group
          ; Spec.Wait_group (stages - 1)
          ; Spec.Sync
          ]
          @ compute_rot
      }
  in
  let info =
    { p_var = var
    ; p_trip = trip
    ; p_stages = stages
    ; p_buffers = strides
    ; p_stage_bytes =
        List.fold_left
          (fun acc (_, (t, _)) ->
            acc + (L.cosize t.Ts.layout * Dt.size_bytes (Ts.dtype t)))
          0 rotated
    ; p_queue_bound = stages
    }
  in
  Ok
    ( [ Spec.Comment
          (Printf.sprintf "swpipe: %d-stage pipeline over %d tiles" stages
             trip)
      ; prologue
      ; steady
        (* Drain the tail's empty groups so the queue is empty for
           whatever staging follows. *)
      ; Spec.Wait_group 0
      ]
    , info )

(* Is this loop a pipelining candidate: constant 0-based unit-stride
   trip, not an unrolled micro-loop, body contains a barrier? (Field
   arguments instead of the inline record, which cannot escape its
   match.) *)
let candidate_trip ~lo ~hi ~step ~unroll body =
  if unroll then None
  else
    match (E.to_int lo, E.to_int hi, E.to_int step) with
    | Some 0, Some trip, Some 1
      when trip > 0 && List.exists has_sync_or_fence body ->
      Some trip
    | _ -> None

let rec rewrite_stmts ctx stmts = List.concat_map (rewrite_stmt ctx) stmts

and rewrite_stmt ctx (st : Spec.stmt) : Spec.stmt list =
  match st with
  | Spec.For r -> (
    match
      candidate_trip ~lo:r.lo ~hi:r.hi ~step:r.step ~unroll:r.unroll r.body
    with
    | Some trip -> (
      match attempt ctx ~var:r.var ~trip r.body with
      | Ok (stmts, info) ->
        ctx.loops <- ctx.loops @ [ info ];
        stmts
      | Error reason ->
        ctx.refusals <- ctx.refusals @ [ (r.var, reason) ];
        [ Spec.For { r with body = rewrite_stmts ctx r.body } ])
    | None -> [ Spec.For { r with body = rewrite_stmts ctx r.body } ])
  | Spec.If { cond; then_; else_ } ->
    [ Spec.If
        { cond
        ; then_ = rewrite_stmts ctx then_
        ; else_ = rewrite_stmts ctx else_
        }
    ]
  | Spec.Spec_stmt s ->
    [ Spec.Spec_stmt
        { s with Spec.decomp = Option.map (rewrite_stmts ctx) s.Spec.decomp }
    ]
  | Spec.Alloc _ | Spec.Sync | Spec.Commit_group | Spec.Wait_group _
  | Spec.Comment _ ->
    [ st ]

(* Enlarge each rotated buffer's allocation to its slot arena (same
   buffer name, so every rotated view still resolves; reinterpret keeps
   the swizzle, whose windows tile each slot by the granule choice). *)
let resize_allocs arenas stmts =
  let rec fix (st : Spec.stmt) =
    match st with
    | Spec.Alloc t -> (
      match List.assoc_opt t.Ts.buffer arenas with
      | Some scalars ->
        Spec.Alloc
          (Ts.reinterpret t ~layout:(L.vector scalars)
             ~elem:(Ts.Scalar (Ts.dtype t)) ~offset:E.zero)
      | None -> st)
    | Spec.For r -> Spec.For { r with body = List.map fix r.body }
    | Spec.If { cond; then_; else_ } ->
      Spec.If { cond; then_ = List.map fix then_; else_ = List.map fix else_ }
    | Spec.Spec_stmt s ->
      Spec.Spec_stmt
        { s with Spec.decomp = Option.map (List.map fix) s.Spec.decomp }
    | Spec.Sync | Spec.Commit_group | Spec.Wait_group _ | Spec.Comment _ -> st
  in
  List.map fix stmts

let rewrite arch ~stages (k : Spec.kernel) : Spec.kernel * verdict =
  if stages <= 1 then (k, { loops = []; refusals = [ ("-", Disabled) ] })
  else
    let shared_allocs =
      List.filter
        (fun (t : Ts.t) -> t.Ts.mem = Ms.Shared)
        (Spec.allocs k.Spec.body)
    in
    let alloc_of b =
      List.find_opt (fun (t : Ts.t) -> t.Ts.buffer = b) shared_allocs
    in
    let everywhere = mentioned_buffers k.Spec.body in
    let total b = List.length (List.filter (String.equal b) everywhere) in
    let smem_total =
      List.fold_left (fun acc t -> acc + shared_alloc_bytes t) 0 shared_allocs
    in
    let ctx =
      { arch; stages; alloc_of; total; smem_total; loops = []; refusals = [] }
    in
    let body = rewrite_stmts ctx k.Spec.body in
    let verdict =
      match (ctx.loops, ctx.refusals) with
      | [], [] -> { loops = []; refusals = [ ("-", No_stage_loop) ] }
      | loops, refusals -> { loops; refusals }
    in
    match ctx.loops with
    | [] -> (k, verdict)
    | loops ->
      let arenas =
        List.concat_map
          (fun p ->
            List.map (fun (b, stride) -> (b, p.p_stages * stride)) p.p_buffers)
          loops
      in
      ({ k with Spec.body = resize_allocs arenas body }, verdict)
