module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Ms = Gpu_tensor.Memspace
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic

type totals =
  { tc_flops : float
  ; fma_flops : float
  ; global_bytes : float
  ; shared_bytes : float
  ; instructions : float
  ; blocks : int
  ; threads_per_block : int
  ; smem_bytes_per_block : int
  ; param_bytes : float
  ; regs_per_thread : int
  }

let zero =
  { tc_flops = 0.0
  ; fma_flops = 0.0
  ; global_bytes = 0.0
  ; shared_bytes = 0.0
  ; instructions = 0.0
  ; blocks = 0
  ; threads_per_block = 0
  ; smem_bytes_per_block = 0
  ; param_bytes = 0.0
  ; regs_per_thread = 0
  }

let add a b =
  { tc_flops = a.tc_flops +. b.tc_flops
  ; fma_flops = a.fma_flops +. b.fma_flops
  ; global_bytes = a.global_bytes +. b.global_bytes
  ; shared_bytes = a.shared_bytes +. b.shared_bytes
  ; instructions = a.instructions +. b.instructions
  ; blocks = max a.blocks b.blocks
  ; threads_per_block = max a.threads_per_block b.threads_per_block
  ; smem_bytes_per_block = max a.smem_bytes_per_block b.smem_bytes_per_block
  ; param_bytes = Float.max a.param_bytes b.param_bytes
  ; regs_per_thread = max a.regs_per_thread b.regs_per_thread
  }

let scale f a =
  { a with
    tc_flops = f *. a.tc_flops
  ; fma_flops = f *. a.fma_flops
  ; global_bytes = f *. a.global_bytes
  ; shared_bytes = f *. a.shared_bytes
  ; instructions = f *. a.instructions
  }

let of_kernel arch (k : Spec.kernel) ?(scalars = []) () =
  let cta = Tt.size k.Spec.cta in
  let blocks = Tt.size k.Spec.grid in
  let base_env bindings v =
    match List.assoc_opt v bindings with
    | Some n -> n
    | None -> (
      match List.assoc_opt v scalars with
      | Some n -> n
      | None ->
        (* Representative values for launch indices: the analysis treats
           every block/thread alike. *)
        if String.equal v "blockIdx.x" then 0
        else if String.equal v "threadIdx.x" then 0
        else failwith (Printf.sprintf "Static_analysis: unbound %s" v))
  in
  (* [active] lists the block's threads currently active and [n] counts
     them: a thread-dependent branch splits the list exactly as the
     executors split their active set, so nested guards compose. *)
  let rec go bindings active n stmts =
    List.fold_left
      (fun acc stmt ->
        match stmt with
        | Spec.Comment _ | Spec.Sync | Spec.Alloc _ | Spec.Commit_group
        | Spec.Wait_group _ ->
          acc
        | Spec.For { var; lo; hi; step; body; _ } ->
          let env = base_env bindings in
          let lo_v = E.eval ~env lo
          and hi_v = E.eval ~env hi
          and st_v = E.eval ~env step in
          let trips = max 0 ((hi_v - lo_v + st_v - 1) / st_v) in
          if trips = 0 then acc
          else
            let inner = go ((var, lo_v) :: bindings) active n body in
            add acc (scale (float_of_int trips) inner)
        | Spec.If { cond; then_; else_ } ->
          if Spec.pred_mentions "threadIdx.x" cond then begin
            let taken, not_taken =
              List.partition
                (fun tid ->
                  Spec.eval_pred
                    (fun v ->
                      if String.equal v "threadIdx.x" then tid
                      else base_env bindings v)
                    cond)
                active
            in
            let n_taken = List.length taken in
            add acc
              (add
                 (go bindings taken n_taken then_)
                 (go bindings not_taken (n - n_taken) else_))
          end
          else if Spec.eval_pred (base_env bindings) cond then
            add acc (go bindings active n then_)
          else add acc (go bindings active n else_)
        | Spec.Spec_stmt s -> (
          match s.Spec.decomp with
          | Some body -> add acc (go bindings active n body)
          | None ->
            let instr = Atomic.find_exn arch s in
            let c = instr.Atomic.cost s in
            let instances =
              float_of_int n /. float_of_int (max 1 instr.Atomic.threads)
            in
            let tc =
              match instr.Atomic.klass with Atomic.Mma _ -> true | _ -> false
            in
            add acc
              { zero with
                tc_flops =
                  (if tc then instances *. float_of_int c.Atomic.flops else 0.0)
              ; fma_flops =
                  (if tc then 0.0 else instances *. float_of_int c.Atomic.flops)
              ; global_bytes = instances *. float_of_int c.Atomic.global_bytes
              ; shared_bytes = instances *. float_of_int c.Atomic.shared_bytes
              ; instructions = instances *. float_of_int c.Atomic.instructions
              }))
      zero stmts
  in
  let per_block = go [] (List.init cta Fun.id) cta k.Spec.body in
  let smem =
    List.fold_left
      (fun acc (t : Ts.t) ->
        match t.Ts.mem with
        | Ms.Shared ->
          acc
          + (L.cosize t.Ts.layout
            * Gpu_tensor.Dtype.size_bytes (Ts.dtype t))
        | Ms.Register | Ms.Global -> acc)
      0 (Spec.allocs k.Spec.body)
  in
  let param_bytes =
    List.fold_left
      (fun acc (p : Ts.t) ->
        let layout = L.subst (List.map (fun (v, n) -> (v, E.const n)) scalars) p.Ts.layout in
        acc
        +. float_of_int
             (L.cosize layout * Gpu_tensor.Dtype.size_bytes (Ts.dtype p)))
      0.0 k.Spec.params
  in
  let regs_per_thread =
    List.fold_left
      (fun acc (t : Ts.t) ->
        match t.Ts.mem with
        | Ms.Register ->
          (* 32-bit registers; fp16 values pack two per register. *)
          acc
          + (L.cosize t.Ts.layout
             * Gpu_tensor.Dtype.size_bytes (Ts.dtype t)
            + 3)
            / 4
        | Ms.Shared | Ms.Global -> acc)
      0 (Spec.allocs k.Spec.body)
  in
  { (scale (float_of_int blocks) per_block) with
    blocks
  ; threads_per_block = cta
  ; smem_bytes_per_block = smem
  ; param_bytes
  ; regs_per_thread
  }

let pp fmt t =
  Format.fprintf fmt
    "@[<v>tc_flops: %.3e | fma_flops: %.3e@,\
     global: %.3e B | shared: %.3e B | instrs: %.3e@,\
     grid: %d blocks x %d threads, %d B smem/block@]"
    t.tc_flops t.fma_flops t.global_bytes t.shared_bytes t.instructions
    t.blocks t.threads_per_block t.smem_bytes_per_block
