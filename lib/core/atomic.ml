module E = Shape.Int_expr
module L = Shape.Layout
module T = Shape.Int_tuple
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace

type cost =
  { flops : int
  ; global_bytes : int
  ; shared_bytes : int
  ; instructions : int
  }

type klass =
  | Global_move
  | Shared_move
  | Mov
  | Cvt
  | Cp_async
  | Async_fence
  | Ldmatrix of { x : int; trans : bool }
  | Mma of { m : int; n : int; k : int }
  | Fma
  | Unary_pw
  | Binary_pw
  | Reduction
  | Shfl
  | Init

type instr =
  { name : string
  ; klass : klass
  ; ptx : string
  ; archs : Arch.t list
  ; threads : int
  ; sig_threads : string
  ; sig_ins : string
  ; sig_outs : string
  ; matches : Spec.t -> bool
  ; cost : Spec.t -> cost
  }

let zero_cost = { flops = 0; global_bytes = 0; shared_bytes = 0; instructions = 1 }

(* ----- matching helpers ----- *)

let total v = try Some (Ts.num_scalars_int v) with Invalid_argument _ -> None
let has_total n v = total v = Some n
let has_dt dt v = Dt.equal (Ts.dtype v) dt
let in_mem m v = Ms.equal (Ts.mem v) m

let group_size (s : Spec.t) = Tt.size s.Spec.threads

let single_io (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ i ], [ o ] -> Some (i, o)
  | _ -> None

(* A per-thread move of [n] contiguous scalars of type [dt] between the two
   given memory spaces. *)
let simple_move ~from ~into ~dt ~n (s : Spec.t) =
  s.Spec.kind = Spec.Move
  && group_size s = 1
  &&
  match single_io s with
  | Some (i, o) ->
    in_mem from i && in_mem into o && has_dt dt i && has_dt dt o
    && has_total n i && has_total n o
  | None -> false

let move_cost ~gb ~sb _spec =
  { flops = 0; global_bytes = gb; shared_bytes = sb; instructions = 1 }

(* ----- registry ----- *)

let all_archs = Arch.all

let ld_global name ptx dt n =
  { name
  ; klass = Global_move
  ; ptx
  ; archs = all_archs
  ; threads = 1
  ; sig_threads = "[1].thread"
  ; sig_ins = Printf.sprintf "[%d].%s.GL" n (Dt.to_ir_string dt)
  ; sig_outs = Printf.sprintf "[%d].%s.RF" n (Dt.to_ir_string dt)
  ; matches = simple_move ~from:Ms.Global ~into:Ms.Register ~dt ~n
  ; cost = move_cost ~gb:(Dt.size_bytes dt * n) ~sb:0
  }

let st_global name ptx dt n =
  { (ld_global name ptx dt n) with
    sig_ins = Printf.sprintf "[%d].%s.RF" n (Dt.to_ir_string dt)
  ; sig_outs = Printf.sprintf "[%d].%s.GL" n (Dt.to_ir_string dt)
  ; matches = simple_move ~from:Ms.Register ~into:Ms.Global ~dt ~n
  }

let ld_shared name ptx dt n =
  { (ld_global name ptx dt n) with
    klass = Shared_move
  ; sig_ins = Printf.sprintf "[%d].%s.SH" n (Dt.to_ir_string dt)
  ; sig_outs = Printf.sprintf "[%d].%s.RF" n (Dt.to_ir_string dt)
  ; matches = simple_move ~from:Ms.Shared ~into:Ms.Register ~dt ~n
  ; cost = move_cost ~gb:0 ~sb:(Dt.size_bytes dt * n)
  }

let st_shared name ptx dt n =
  { (ld_shared name ptx dt n) with
    sig_ins = Printf.sprintf "[%d].%s.RF" n (Dt.to_ir_string dt)
  ; sig_outs = Printf.sprintf "[%d].%s.SH" n (Dt.to_ir_string dt)
  ; matches = simple_move ~from:Ms.Register ~into:Ms.Shared ~dt ~n
  }

let cp_async name dt n =
  { name
  ; klass = Cp_async
  ; ptx = "cp.async.cg.shared.global"
  ; archs = [ Arch.SM86 ]
  ; threads = 1
  ; sig_threads = "[1].thread"
  ; sig_ins = Printf.sprintf "[%d].%s.GL" n (Dt.to_ir_string dt)
  ; sig_outs = Printf.sprintf "[%d].%s.SH" n (Dt.to_ir_string dt)
  ; matches = simple_move ~from:Ms.Global ~into:Ms.Shared ~dt ~n
  ; cost =
      move_cost ~gb:(Dt.size_bytes dt * n) ~sb:(Dt.size_bytes dt * n)
  }

(* cp.async group fences. These are statement-level in the IR
   ([Spec.Commit_group] / [Spec.Wait_group]) rather than specs, so
   [matches] never fires — the registry entries document the PTX forms
   (and appear in Table 2) without participating in spec matching. *)
let cp_async_fence name ptx =
  { name
  ; klass = Async_fence
  ; ptx
  ; archs = [ Arch.SM86 ]
  ; threads = 1
  ; sig_threads = "[1].thread"
  ; sig_ins = "-"
  ; sig_outs = "-"
  ; matches = (fun _ -> false)
  ; cost = (fun _ -> zero_cost)
  }

let mov_rf =
  { name = "mov.rf"
  ; klass = Mov
  ; ptx = "mov.b32"
  ; archs = all_archs
  ; threads = 1
  ; sig_threads = "[1].thread"
  ; sig_ins = "[n<=16].T.RF"
  ; sig_outs = "[n<=16].T.RF"
  ; matches =
      (fun s ->
        s.Spec.kind = Spec.Move
        && group_size s = 1
        &&
        match single_io s with
        | Some (i, o) ->
          in_mem Ms.Register i && in_mem Ms.Register o
          && Dt.equal (Ts.dtype i) (Ts.dtype o)
          && (match total i with Some n -> n <= 16 && total o = Some n
             | None -> false)
        | None -> false)
  ; cost =
      (fun s ->
        match single_io s with
        | Some (i, _) ->
          let n = Option.value ~default:1 (total i) in
          { zero_cost with instructions = (n + 1) / 2 }
        | None -> zero_cost)
  }

let cvt ~from_dt ~to_dt ptx =
  { name = Printf.sprintf "cvt.%s.%s" (Dt.to_ir_string to_dt) (Dt.to_ir_string from_dt)
  ; klass = Cvt
  ; ptx
  ; archs = all_archs
  ; threads = 1
  ; sig_threads = "[1].thread"
  ; sig_ins = Printf.sprintf "[n<=8].%s.RF" (Dt.to_ir_string from_dt)
  ; sig_outs = Printf.sprintf "[n<=8].%s.RF" (Dt.to_ir_string to_dt)
  ; matches =
      (fun s ->
        s.Spec.kind = Spec.Move
        && group_size s = 1
        &&
        match single_io s with
        | Some (i, o) ->
          in_mem Ms.Register i && in_mem Ms.Register o && has_dt from_dt i
          && has_dt to_dt o
          && (match total i with
             | Some n -> n <= 8 && total o = Some n
             | None -> false)
        | None -> false)
  ; cost =
      (fun s ->
        match single_io s with
        | Some (i, _) ->
          let n = Option.value ~default:1 (total i) in
          { zero_cost with instructions = (n + 1) / 2 }
        | None -> zero_cost)
  }

(* ldmatrix: a warp cooperatively moves x 8x8 fp16 matrices from shared
   memory into per-thread register fragments (paper Figures 1a/1b). The
   [trans] variants transpose each 8x8 matrix on the way, producing the
   fragment layout mma expects for its B operand. *)
let ldmatrix ?(trans = false) x in_sig =
  { name =
      Printf.sprintf "ldmatrix.x%d%s" x (if trans then ".trans" else "")
  ; klass = Ldmatrix { x; trans }
  ; ptx =
      Printf.sprintf "ldmatrix.sync.aligned.m8n8.x%d%s.shared.b16" x
        (if trans then ".trans" else "")
  ; archs = [ Arch.SM86 ]
  ; threads = 32
  ; sig_threads = "[32].thread"
  ; sig_ins = in_sig
  ; sig_outs = Printf.sprintf "[%d].fp16.RF (per thread)" (2 * x)
  ; matches =
      (fun s ->
        s.Spec.kind = Spec.Move
        && group_size s = 32
        &&
        match single_io s with
        | Some (i, o) ->
          in_mem Ms.Shared i && in_mem Ms.Register o
          && Dt.size_bytes (Ts.dtype i) = 2
          && Dt.equal (Ts.dtype i) (Ts.dtype o)
          && has_total (64 * x) i
          && has_total (2 * x) o
          &&
          (* The innermost 8x8 matrix level decides the variant: rows
             contiguous in storage = plain; columns contiguous (the view
             presents the stored matrix transposed) = .trans. *)
          (match List.rev (Ts.levels i) with
          | inner :: _ -> (
            match
              List.map Shape.Int_expr.to_int
                (T.flatten (L.strides inner))
            with
            | [ s0; s1 ] ->
              if trans then s0 = Some 1 && s1 <> Some 1
              else s1 = Some 1 && s0 <> Some 1
            | _ -> false)
          | [] -> false)
        | None -> false)
  ; cost =
      (fun _ ->
        { flops = 0
        ; global_bytes = 0
        ; shared_bytes = 128 * x
        ; instructions = 1
        })
  }

let mma_m16n8k16 =
  { name = "mma.m16n8k16"
  ; klass = Mma { m = 16; n = 8; k = 16 }
  ; ptx = "mma.sync.aligned.m16n8k16.row.col.f32.f16.f16.f32"
  ; archs = [ Arch.SM86 ]
  ; threads = 32
  ; sig_threads = "[32].thread"
  ; sig_ins = "[2,2].[1,2].fp16.RF, [2,1].[2,1].fp16.RF"
  ; sig_outs = "[2,1].[1,2].fp32.RF"
  ; matches =
      (fun s ->
        s.Spec.kind = Spec.Mat_mul
        && group_size s = 32
        &&
        match (s.Spec.ins, s.Spec.outs) with
        | [ a; b ], [ c ] ->
          in_mem Ms.Register a && in_mem Ms.Register b && in_mem Ms.Register c
          && has_dt Dt.FP16 a && has_dt Dt.FP16 b && has_dt Dt.FP32 c
          && has_total 8 a && has_total 4 b && has_total 4 c
        | _ -> false)
  ; cost = (fun _ -> { zero_cost with flops = 2 * 16 * 8 * 16 })
  }

let mma_m16n8k16_bf16 =
  { mma_m16n8k16 with
    name = "mma.m16n8k16.bf16"
  ; ptx = "mma.sync.aligned.m16n8k16.row.col.f32.bf16.bf16.f32"
  ; sig_ins = "[2,2].[1,2].bf16.RF, [2,1].[2,1].bf16.RF"
  ; matches =
      (fun s ->
        s.Spec.kind = Spec.Mat_mul
        && group_size s = 32
        &&
        match (s.Spec.ins, s.Spec.outs) with
        | [ a; b ], [ c ] ->
          in_mem Ms.Register a && in_mem Ms.Register b && in_mem Ms.Register c
          && has_dt Dt.BF16 a && has_dt Dt.BF16 b && has_dt Dt.FP32 c
          && has_total 8 a && has_total 4 b && has_total 4 c
        | _ -> false)
  }

let mma_m8n8k4 =
  { name = "mma.m8n8k4"
  ; klass = Mma { m = 8; n = 8; k = 4 }
  ; ptx = "mma.sync.aligned.m8n8k4.row.col.f32.f16.f16.f32"
  ; archs = [ Arch.SM70 ]
  ; threads = 8
  ; sig_threads = "((4,2):(1,16)).thread (quad-pair)"
  ; sig_ins = "[4,1].fp16.RF, [1,4].fp16.RF"
  ; sig_outs = "[2,4].fp32.RF"
  ; matches =
      (fun s ->
        s.Spec.kind = Spec.Mat_mul
        && group_size s = 8
        &&
        match (s.Spec.ins, s.Spec.outs) with
        | [ a; b ], [ c ] ->
          in_mem Ms.Register a && in_mem Ms.Register b && in_mem Ms.Register c
          && has_dt Dt.FP16 a && has_dt Dt.FP16 b && has_dt Dt.FP32 c
          && has_total 4 a && has_total 4 b && has_total 8 c
        | _ -> false)
  ; cost = (fun _ -> { zero_cost with flops = 2 * 8 * 8 * 4 })
  }

(* Traffic implied by operands that do not live in registers: CUDA source
   operands of an fma may be global/shared accesses (the load is implicit in
   the C expression, as in paper Figure 8's generated code). *)
let operand_traffic ~reads ~writes =
  let bytes space vs =
    List.fold_left
      (fun acc v ->
        if in_mem space v then
          acc + (Dt.size_bytes (Ts.dtype v) * Option.value ~default:1 (total v))
        else acc)
      0 vs
  in
  let gb = bytes Ms.Global reads + (2 * bytes Ms.Global writes) in
  let sb = bytes Ms.Shared reads + (2 * bytes Ms.Shared writes) in
  (gb, sb)

let fma name ptx dt n flops =
  { name
  ; klass = Fma
  ; ptx
  ; archs = all_archs
  ; threads = 1
  ; sig_threads = "[1].thread"
  ; sig_ins =
      Printf.sprintf "[%d].%s.*, [%d].%s.*" n (Dt.to_ir_string dt) n
        (Dt.to_ir_string dt)
  ; sig_outs = Printf.sprintf "[%d].%s.*" n (Dt.to_ir_string dt)
  ; matches =
      (fun s ->
        s.Spec.kind = Spec.Mat_mul
        && group_size s = 1
        &&
        match (s.Spec.ins, s.Spec.outs) with
        | [ a; b ], [ c ] ->
          List.for_all (has_total n) [ a; b; c ]
          && has_dt dt a && has_dt dt b
        | _ -> false)
  ; cost =
      (fun s ->
        (* The accumulator is read and written; global/shared operands add
           the implicit load/store traffic. *)
        let gb, sb = operand_traffic ~reads:s.Spec.ins ~writes:s.Spec.outs in
        { zero_cost with flops; global_bytes = gb; shared_bytes = sb })
  }

let pointwise_vec_limit = 128

let pointwise_matches (s : Spec.t) =
  group_size s = 1
  &&
  let views = s.Spec.ins @ s.Spec.outs in
  match List.filter_map total views with
  | [] -> false
  | n :: rest ->
    (* Size-1 operands broadcast over the other operand's extent. *)
    let extent = List.fold_left max n rest in
    extent <= pointwise_vec_limit
    && List.for_all (fun m -> m = extent || m = 1) (n :: rest)
    && (match s.Spec.outs with
       | [ o ] -> total o = Some extent
       | _ -> false)
    && List.length (List.filter_map total views) = List.length views

let pointwise_cost (s : Spec.t) =
  let n =
    match s.Spec.outs with
    | o :: _ -> Option.value ~default:1 (total o)
    | [] -> 1
  in
  let half = Dt.equal (Ts.dtype (List.hd s.Spec.outs)) Dt.FP16 in
  let instructions = if half then (n + 1) / 2 else n in
  let gb, sb = operand_traffic ~reads:s.Spec.ins ~writes:s.Spec.outs in
  { flops = n; instructions; global_bytes = gb; shared_bytes = sb }

let unary_pw =
  { name = "pointwise.unary"
  ; klass = Unary_pw
  ; ptx = "<unary op / MUFU>"
  ; archs = all_archs
  ; threads = 1
  ; sig_threads = "[1].thread"
  ; sig_ins = "[n<=64].T.{RF,SH}"
  ; sig_outs = "[n<=64].T.{RF,SH}"
  ; matches =
      (fun s ->
        (match s.Spec.kind with Spec.Unary_pointwise _ -> true | _ -> false)
        && pointwise_matches s)
  ; cost = pointwise_cost
  }

let binary_pw specific_name ptx dt n =
  { name = specific_name
  ; klass = Binary_pw
  ; ptx
  ; archs = all_archs
  ; threads = 1
  ; sig_threads = "[1].thread"
  ; sig_ins =
      Printf.sprintf "[%d].%s.RF, [%d].%s.RF" n (Dt.to_ir_string dt) n
        (Dt.to_ir_string dt)
  ; sig_outs = Printf.sprintf "[%d].%s.RF" n (Dt.to_ir_string dt)
  ; matches =
      (fun s ->
        (match s.Spec.kind with
        | Spec.Binary_pointwise op ->
          String.equal (Op.binary_name op)
            (List.nth (String.split_on_char '.' specific_name) 1)
        | _ -> false)
        && group_size s = 1
        && List.for_all
             (fun v -> has_dt dt v && has_total n v && in_mem Ms.Register v)
             (s.Spec.ins @ s.Spec.outs))
  ; cost = (fun _ -> { zero_cost with flops = n })
  }

let binary_pw_generic =
  { unary_pw with
    name = "pointwise.binary"
  ; klass = Binary_pw
  ; ptx = "<binary op>"
  ; matches =
      (fun s ->
        (match s.Spec.kind with Spec.Binary_pointwise _ -> true | _ -> false)
        && pointwise_matches s)
  }

let reduction_thread =
  { name = "red.thread"
  ; klass = Reduction
  ; ptx = "<op> (sequential)"
  ; archs = all_archs
  ; threads = 1
  ; sig_threads = "[1].thread"
  ; sig_ins = "[n].T.RF"
  ; sig_outs = "[].T.RF"
  ; matches =
      (fun s ->
        (match s.Spec.kind with Spec.Reduction _ -> true | _ -> false)
        && group_size s = 1
        &&
        match single_io s with
        | Some (i, o) -> (
          match (total i, total o) with
          | Some ni, Some no -> no >= 1 && ni mod no = 0
          | _ -> false)
        | None -> false)
  ; cost =
      (fun s ->
        match single_io s with
        | Some (i, _) ->
          let n = Option.value ~default:1 (total i) in
          let gb, sb = operand_traffic ~reads:s.Spec.ins ~writes:s.Spec.outs in
          { flops = n; instructions = n; global_bytes = gb; shared_bytes = sb }
        | None -> zero_cost)
  }

let shfl_sync =
  { name = "shfl.sync"
  ; klass = Shfl
  ; ptx = "shfl.sync.{bfly,up,down,idx}.b32"
  ; archs = all_archs
  ; threads = 32
  ; sig_threads = "[<=32].thread"
  ; sig_ins = "[].T.RF"
  ; sig_outs = "[].T.RF"
  ; matches =
      (fun s ->
        (match s.Spec.kind with Spec.Shfl _ -> true | _ -> false)
        && group_size s <= 32
        &&
        match single_io s with
        | Some (i, o) ->
          in_mem Ms.Register i && in_mem Ms.Register o
          && total i = total o
          && (match total i with Some n -> n <= 4 | None -> false)
        | None -> false)
  ; cost = (fun _ -> zero_cost)
  }

let init_rf =
  { name = "init"
  ; klass = Init
  ; ptx = "mov / st.shared"
  ; archs = all_archs
  ; threads = 1
  ; sig_threads = "[1].thread"
  ; sig_ins = ""
  ; sig_outs = "[n].T.{RF,SH}"
  ; matches =
      (fun s ->
        (match s.Spec.kind with Spec.Init _ -> true | _ -> false)
        && group_size s = 1
        &&
        match s.Spec.outs with
        | [ o ] -> total o <> None
        | _ -> false)
  ; cost =
      (fun s ->
        match s.Spec.outs with
        | [ o ] ->
          let n = Option.value ~default:1 (total o) in
          let gb, sb = operand_traffic ~reads:[] ~writes:[ o ] in
          { flops = 0
          ; instructions = (n + 1) / 2
          ; global_bytes = gb / 2 (* init writes once, no read *)
          ; shared_bytes = sb / 2
          }
        | _ -> zero_cost)
  }

let registry =
  [ (* vectorized global loads/stores first (most specific) *)
    ld_global "ld.global.v4.b32.f16x8" "ld.global.v4.u32" Dt.FP16 8
  ; ld_global "ld.global.v2.b32.f16x4" "ld.global.v2.u32" Dt.FP16 4
  ; ld_global "ld.global.b32.f16x2" "ld.global.u32" Dt.FP16 2
  ; ld_global "ld.global.b16" "ld.global.u16" Dt.FP16 1
  ; ld_global "ld.global.v4.b32.bf16x8" "ld.global.v4.u32" Dt.BF16 8
  ; ld_global "ld.global.v2.b32.bf16x4" "ld.global.v2.u32" Dt.BF16 4
  ; ld_global "ld.global.b32.bf16x2" "ld.global.u32" Dt.BF16 2
  ; ld_global "ld.global.bf16" "ld.global.u16" Dt.BF16 1
  ; ld_global "ld.global.v4.f32" "ld.global.v4.u32" Dt.FP32 4
  ; ld_global "ld.global.v2.f32" "ld.global.v2.u32" Dt.FP32 2
  ; ld_global "ld.global.f32" "ld.global.u32" Dt.FP32 1
  ; st_global "st.global.v4.b32.f16x8" "st.global.v4.u32" Dt.FP16 8
  ; st_global "st.global.v2.b32.f16x4" "st.global.v2.u32" Dt.FP16 4
  ; st_global "st.global.b32.f16x2" "st.global.u32" Dt.FP16 2
  ; st_global "st.global.b16" "st.global.u16" Dt.FP16 1
  ; st_global "st.global.v4.b32.bf16x8" "st.global.v4.u32" Dt.BF16 8
  ; st_global "st.global.v2.b32.bf16x4" "st.global.v2.u32" Dt.BF16 4
  ; st_global "st.global.b32.bf16x2" "st.global.u32" Dt.BF16 2
  ; st_global "st.global.bf16" "st.global.u16" Dt.BF16 1
  ; st_global "st.global.v4.f32" "st.global.v4.u32" Dt.FP32 4
  ; st_global "st.global.v2.f32" "st.global.v2.u32" Dt.FP32 2
  ; st_global "st.global.f32" "st.global.u32" Dt.FP32 1
  ; cp_async "cp.async.f16x8" Dt.FP16 8
  ; cp_async "cp.async.f32x4" Dt.FP32 4
  ; cp_async "cp.async.bf16x8" Dt.BF16 8
  ; cp_async_fence "cp.async.commit_group" "cp.async.commit_group"
  ; cp_async_fence "cp.async.wait_group" "cp.async.wait_group N"
  ; ld_shared "ld.shared.v4.b32.f16x8" "ld.shared.v4.u32" Dt.FP16 8
  ; ld_shared "ld.shared.v2.b32.f16x4" "ld.shared.v2.u32" Dt.FP16 4
  ; ld_shared "ld.shared.b32.f16x2" "ld.shared.u32" Dt.FP16 2
  ; ld_shared "ld.shared.b16" "ld.shared.u16" Dt.FP16 1
  ; ld_shared "ld.shared.v4.b32.bf16x8" "ld.shared.v4.u32" Dt.BF16 8
  ; ld_shared "ld.shared.b32.bf16x2" "ld.shared.u32" Dt.BF16 2
  ; ld_shared "ld.shared.bf16" "ld.shared.u16" Dt.BF16 1
  ; ld_shared "ld.shared.v4.f32" "ld.shared.v4.u32" Dt.FP32 4
  ; ld_shared "ld.shared.v2.f32" "ld.shared.v2.u32" Dt.FP32 2
  ; ld_shared "ld.shared.f32" "ld.shared.u32" Dt.FP32 1
  ; st_shared "st.shared.v4.b32.f16x8" "st.shared.v4.u32" Dt.FP16 8
  ; st_shared "st.shared.v2.b32.f16x4" "st.shared.v2.u32" Dt.FP16 4
  ; st_shared "st.shared.b32.f16x2" "st.shared.u32" Dt.FP16 2
  ; st_shared "st.shared.b16" "st.shared.u16" Dt.FP16 1
  ; st_shared "st.shared.v4.b32.bf16x8" "st.shared.v4.u32" Dt.BF16 8
  ; st_shared "st.shared.b32.bf16x2" "st.shared.u32" Dt.BF16 2
  ; st_shared "st.shared.bf16" "st.shared.u16" Dt.BF16 1
  ; st_shared "st.shared.v4.f32" "st.shared.v4.u32" Dt.FP32 4
  ; st_shared "st.shared.v2.f32" "st.shared.v2.u32" Dt.FP32 2
  ; st_shared "st.shared.f32" "st.shared.u32" Dt.FP32 1
  ; ldmatrix 4 "[2,2].[8,8].fp16.SH"
  ; ldmatrix 2 "[2].[8,8].fp16.SH"
  ; ldmatrix 1 "[8,8].fp16.SH"
  ; ldmatrix ~trans:true 4 "[2,2].[8,8].fp16.SH"
  ; ldmatrix ~trans:true 2 "[2].[8,8].fp16.SH"
  ; ldmatrix ~trans:true 1 "[8,8].fp16.SH"
  ; mov_rf
  ; cvt ~from_dt:Dt.FP32 ~to_dt:Dt.FP16 "cvt.rn.f16.f32"
  ; cvt ~from_dt:Dt.FP16 ~to_dt:Dt.FP32 "cvt.f32.f16"
  ; cvt ~from_dt:Dt.FP32 ~to_dt:Dt.BF16 "cvt.rn.bf16.f32"
  ; cvt ~from_dt:Dt.BF16 ~to_dt:Dt.FP32 "cvt.f32.bf16"
  ; mma_m16n8k16
  ; mma_m16n8k16_bf16
  ; mma_m8n8k4
  ; fma "hfma2" "fma.rn.f16x2" Dt.FP16 2 4
  ; fma "hfma" "fma.rn.f16" Dt.FP16 1 2
  ; fma "fmaf" "fma.rn.f32" Dt.FP32 1 2
  ; binary_pw "binary.mul.f16" "mul.rn.f16 (hmul)" Dt.FP16 1
  ; binary_pw "binary.add.f16x2" "add.rn.f16x2 (hadd2)" Dt.FP16 2
  ; unary_pw
  ; binary_pw_generic
  ; reduction_thread
  ; shfl_sync
  ; init_rf
  ]

let find_calls = ref 0

let find arch spec =
  incr find_calls;
  List.find_opt
    (fun i -> List.exists (Arch.equal arch) i.archs && i.matches spec)
    registry

let find_exn arch spec =
  match find arch spec with
  | Some i -> i
  | None ->
    failwith
      (Format.asprintf "no atomic spec matches on %s: %a" (Arch.name arch)
         Spec.pp spec)

let lookup name = List.find_opt (fun i -> String.equal i.name name) registry

(* ----- ldmatrix addressing ----- *)

(* Coordinates of the j-th tile, counting leftmost-fastest over the outer
   dims — the hardware's matrix order for an ldmatrix source (row block
   fastest, as the mma A operand expects). *)
let tile_coords outer_dims j =
  let coords, _ =
    List.fold_left
      (fun (acc, rest) d -> ((rest mod d) :: acc, rest / d))
      ([], j) outer_dims
  in
  List.rev coords

let ldmatrix_rows ~trans x (src : Ts.t) =
  let outer_dims =
    if Ts.depth src > 1 then
      List.map
        (fun m -> E.to_int_exn (T.size m))
        (T.modes (L.dims src.Ts.layout))
    else []
  in
  Array.init x (fun j ->
      let tile =
        if outer_dims = [] then src
        else Ts.select_ints src (tile_coords outer_dims j)
      in
      Array.init 8 (fun r ->
          if trans then Ts.select_ints tile [ 0; r ]
          else Ts.select_ints tile [ r; 0 ]))

let pp_table fmt arch =
  let rows =
    match arch with
    | None -> registry
    | Some a -> List.filter (fun i -> List.exists (Arch.equal a) i.archs) registry
  in
  Format.fprintf fmt "@[<v>%-28s %-34s %-44s %-24s %s@,"
    "Spec (instr)" "Threads" "Inputs" "Outputs" "PTX";
  List.iter
    (fun i ->
      Format.fprintf fmt "%-28s %-34s %-44s %-24s %s@," i.name i.sig_threads
        i.sig_ins i.sig_outs i.ptx)
    rows;
  Format.fprintf fmt "@]"
