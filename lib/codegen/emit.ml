module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic
module Op = Graphene.Op

module V = Lower.Vectorize

type ctx =
  { arch : Graphene.Arch.t
  ; buf : Buffer.t
  ; mutable indent : int
  ; cta_size : int
  ; mutable divergent : bool
        (** inside a thread-dependent branch: widened emission is off,
            mirroring the vectorize pass's masked-lane refusal *)
  }

let line ctx fmt =
  Buffer.add_string ctx.buf (String.make (2 * ctx.indent) ' ');
  Format.kasprintf
    (fun s ->
      Buffer.add_string ctx.buf s;
      Buffer.add_char ctx.buf '\n')
    fmt

let raw ctx s = Buffer.add_string ctx.buf s

let ty dt = Dt.to_cuda_string dt

let vec_copy_type bytes =
  match bytes with
  | 16 -> Some "uint4"
  | 8 -> Some "uint2"
  | 4 -> Some "uint32_t"
  | _ -> None

let total v = Ts.num_scalars_int v

(* ----- hoisting of launch-index subexpressions -----

   Generated kernels name their block/thread coordinates once (paper
   Figures 1c and 8: [int bid_m = blockIdx.x % 8;]) instead of repeating
   the arithmetic in every access. Maximal subexpressions over only
   [blockIdx.x]/[threadIdx.x] are hoisted into [int] locals; a first
   (collecting) emission pass discovers them, the second prints them. *)

type hoist_state =
  { mutable defs : (E.t * string) list  (** reverse order of discovery *)
  ; mutable enabled : bool
  }

let hoist_state = { defs = []; enabled = false }

let launch_only e =
  match E.free_vars e with
  | [] -> false
  | vars ->
    List.for_all
      (fun v -> String.equal v "threadIdx.x" || String.equal v "blockIdx.x")
      vars

let rec hoist_expr e =
  if not hoist_state.enabled then e
  else
    match e with
    | E.Var _ | E.Const _ -> e
    | _ when launch_only e -> (
      match List.find_opt (fun (d, _) -> E.equal d e) hoist_state.defs with
      | Some (_, name) -> E.var name
      | None ->
        let name = Printf.sprintf "idx%d" (List.length hoist_state.defs) in
        hoist_state.defs <- hoist_state.defs @ [ (e, name) ];
        E.var name)
    | E.Add (a, b) -> E.Add (hoist_expr a, hoist_expr b)
    | E.Sub (a, b) -> E.Sub (hoist_expr a, hoist_expr b)
    | E.Mul (a, b) -> E.Mul (hoist_expr a, hoist_expr b)
    | E.Div (a, b) -> E.Div (hoist_expr a, hoist_expr b)
    | E.Mod (a, b) -> E.Mod (hoist_expr a, hoist_expr b)
    | E.Min (a, b) -> E.Min (hoist_expr a, hoist_expr b)
    | E.Max (a, b) -> E.Max (hoist_expr a, hoist_expr b)

let ref_ v k =
  let idx = E.to_string (hoist_expr (Index_gen.element_offset v k)) in
  let idx = Shape.Swizzle.to_c_expr v.Ts.swizzle idx in
  Printf.sprintf "%s[%s]" v.Ts.buffer idx

let ptr_ v k = "&" ^ ref_ v k

(* Read a scalar of the view as a float expression (converting from half). *)
let as_float v k =
  match Ts.dtype v with
  | Dt.FP16 -> Printf.sprintf "__half2float(%s)" (ref_ v k)
  | Dt.BF16 -> Printf.sprintf "__bfloat162float(%s)" (ref_ v k)
  | Dt.FP32 | Dt.FP64 | Dt.I8 | Dt.I32 | Dt.U32 | Dt.Bool -> ref_ v k

(* Assign a float expression to a scalar of the view. *)
let assign_float v k expr =
  match Ts.dtype v with
  | Dt.FP16 -> Printf.sprintf "%s = __float2half(%s);" (ref_ v k) expr
  | Dt.BF16 -> Printf.sprintf "%s = __float2bfloat16(%s);" (ref_ v k) expr
  | Dt.FP32 | Dt.FP64 | Dt.I8 | Dt.I32 | Dt.U32 | Dt.Bool ->
    Printf.sprintf "%s = %s;" (ref_ v k) expr

(* ----- atomic spec emission ----- *)

let emit_plain_move ctx (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] -> (
    let n = total dst in
    let bytes = n * Dt.size_bytes (Ts.dtype dst) in
    match vec_copy_type bytes with
    | Some vt when n > 1 ->
      line ctx "*reinterpret_cast<%s*>(%s) = *reinterpret_cast<const %s*>(%s);"
        vt (ptr_ dst 0) vt (ptr_ src 0)
    | _ ->
      for k = 0 to n - 1 do
        line ctx "%s = %s;" (ref_ dst k) (ref_ src k)
      done)
  | _ -> failwith "move arity"

(* Widened global <-> register moves as explicit PTX vector transactions
   (the emission half of the vectorize pass, docs/LOWERING.md). Only
   emitted when the pass's own legality analysis widened the atomic, so
   the generated CUDA and the simulated plan agree on every verdict. *)

(* (PTX scalar type, asm register constraint, C lvalue cast) per dtype;
   [None] falls back to the scalar loop. *)
let vec_reg_class dt =
  match dt with
  | Dt.FP16 | Dt.BF16 -> Some ("b16", "h", "unsigned short")
  | Dt.FP32 | Dt.I32 | Dt.U32 -> Some ("b32", "r", "uint32_t")
  | Dt.FP64 | Dt.I8 | Dt.Bool -> None

let emit_vec_global_move ctx (s : Spec.t) ~width =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] -> (
    let reg_side, glob_side, is_load =
      if Ms.equal src.Ts.mem Ms.Global then (dst, src, true)
      else (src, dst, false)
    in
    let n = total dst in
    match vec_reg_class (Ts.dtype dst) with
    | Some (pty, cls, cast) when n mod width = 0 ->
      let reg k = Printf.sprintf "*reinterpret_cast<%s*>(%s)" cast
          (ptr_ reg_side k)
      in
      let holes lo = String.concat ","
          (List.init width (fun i -> Printf.sprintf "%%%d" (lo + i)))
      in
      for g = 0 to (n / width) - 1 do
        let k = g * width in
        if is_load then begin
          line ctx "asm volatile(\"ld.global.v%d.%s {%s}, [%%%d];\\n\"" width
            pty (holes 0) width;
          line ctx "    : %s"
            (String.concat ", "
               (List.init width (fun i ->
                    Printf.sprintf "\"=%s\"(%s)" cls (reg (k + i)))));
          line ctx "    : \"l\"(%s));" (ptr_ glob_side k)
        end
        else begin
          line ctx "asm volatile(\"st.global.v%d.%s [%%0], {%s};\\n\"" width
            pty (holes 1);
          line ctx "    :: \"l\"(%s), %s);" (ptr_ glob_side k)
            (String.concat ", "
               (List.init width (fun i ->
                    Printf.sprintf "\"%s\"(%s)" cls (reg (k + i)))))
        end
      done
    | _ -> emit_plain_move ctx s)
  | _ -> failwith "move arity"

(* The emission-side verdict: reuse the vectorize pass's leaf analysis so
   the PTX a kernel ships with and the plan the simulator executes can
   never disagree on a width. *)
let emit_global_move ctx (s : Spec.t) instr =
  let leaf =
    V.of_leaf ~enabled:true ~divergent:ctx.divergent ~cta_size:ctx.cta_size s
      instr
  in
  let reg_and_global =
    match (s.Spec.ins, s.Spec.outs) with
    | [ src ], [ dst ] ->
      (Ms.equal src.Ts.mem Ms.Global && Ms.equal dst.Ts.mem Ms.Register)
      || (Ms.equal src.Ts.mem Ms.Register && Ms.equal dst.Ts.mem Ms.Global)
    | _ -> false
  in
  match leaf.V.l_verdict with
  | V.Widened w when reg_and_global -> emit_vec_global_move ctx s ~width:w
  | _ -> emit_plain_move ctx s

(* The inline-asm instructions below print the registry's PTX mnemonic
   ([instr.ptx]) followed by their operand lists. *)

let emit_cp_async ctx (instr : Atomic.instr) (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    let bytes = total dst * Dt.size_bytes (Ts.dtype dst) in
    line ctx
      "asm volatile(\"%s [%%0], [%%1], %d;\\n\" :: \
       \"r\"((unsigned)__cvta_generic_to_shared(%s)), \"l\"(%s));"
      instr.Atomic.ptx bytes (ptr_ dst 0) (ptr_ src 0)
  | _ -> failwith "cp.async arity"

let emit_cvt ctx (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    for k = 0 to total dst - 1 do
      line ctx "%s" (assign_float dst k (as_float src k))
    done
  | _ -> failwith "cvt arity"

let emit_ldmatrix ctx (instr : Atomic.instr) ~trans x (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    (* Thread lane [l] supplies the address of stored row [l mod 8] of
       matrix [l / 8]; matrices walk the outer tiles leftmost-fastest; each
       thread receives two adjacent fp16 values per matrix (paper Figures
       1a/1b). *)
    let lane = E.rem (E.var "threadIdx.x") (E.const 32) in
    let row = E.rem lane (E.const 8) in
    let j = E.div lane (E.const 8) in
    let pick_row tile =
      if trans then Ts.select tile [ E.zero; row ]
      else Ts.select tile [ row; E.zero ]
    in
    let row_view =
      match x with
      | 4 ->
        let m = E.rem j (E.const 2) and n = E.div j (E.const 2) in
        pick_row (Ts.select src [ m; n ])
      | 2 ->
        let jm = E.rem j (E.const 2) in
        let tile =
          if Ts.rank src = 2 then Ts.select src [ jm; E.zero ]
          else Ts.select src [ jm ]
        in
        pick_row tile
      | 1 -> pick_row src
      | _ -> failwith "ldmatrix width"
    in
    let regs =
      List.init x (fun k ->
          Printf.sprintf "\"=r\"(*reinterpret_cast<uint32_t*>(%s))"
            (ptr_ dst (2 * k)))
    in
    let reg_holes = List.init x (fun k -> Printf.sprintf "%%%d" k) in
    line ctx "asm volatile(\"%s {%s}, [%%%d];\\n\"" instr.Atomic.ptx
      (String.concat ", " reg_holes)
      x;
    line ctx "    : %s" (String.concat ", " regs);
    line ctx "    : \"r\"((unsigned)__cvta_generic_to_shared(%s)));"
      (ptr_ row_view 0)
  | _ -> failwith "ldmatrix arity"

let u32_ref v k =
  Printf.sprintf "*reinterpret_cast<uint32_t*>(%s)" (ptr_ v k)

let emit_mma_m16n8k16 ctx (instr : Atomic.instr) (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ a; b ], [ c ] ->
    line ctx
      "asm volatile(\"%s {%%0,%%1,%%2,%%3}, {%%4,%%5,%%6,%%7}, {%%8,%%9}, \
       {%%0,%%1,%%2,%%3};\\n\""
      instr.Atomic.ptx;
    line ctx "    : \"+f\"(%s), \"+f\"(%s), \"+f\"(%s), \"+f\"(%s)" (ref_ c 0)
      (ref_ c 1) (ref_ c 2) (ref_ c 3);
    line ctx "    : \"r\"(%s), \"r\"(%s), \"r\"(%s), \"r\"(%s), \"r\"(%s), \
              \"r\"(%s));"
      (u32_ref a 0) (u32_ref a 2) (u32_ref a 4) (u32_ref a 6) (u32_ref b 0)
      (u32_ref b 2)
  | _ -> failwith "mma arity"

let emit_mma_m8n8k4 ctx (instr : Atomic.instr) (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ a; b ], [ c ] ->
    line ctx
      "asm volatile(\"%s {%%0,%%1,%%2,%%3,%%4,%%5,%%6,%%7}, {%%8,%%9}, \
       {%%10,%%11}, {%%0,%%1,%%2,%%3,%%4,%%5,%%6,%%7};\\n\""
      instr.Atomic.ptx;
    line ctx "    : %s"
      (String.concat ", "
         (List.init 8 (fun k -> Printf.sprintf "\"+f\"(%s)" (ref_ c k))));
    line ctx "    : \"r\"(%s), \"r\"(%s), \"r\"(%s), \"r\"(%s));" (u32_ref a 0)
      (u32_ref a 2) (u32_ref b 0) (u32_ref b 2)
  | _ -> failwith "mma arity"

let emit_fma ctx (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ a; b ], [ c ] ->
    let n = total c in
    if Dt.equal (Ts.dtype c) Dt.FP16 && n = 2 then
      line ctx
        "*reinterpret_cast<__half2*>(%s) = \
         __hfma2(*reinterpret_cast<const __half2*>(%s), \
         *reinterpret_cast<const __half2*>(%s), \
         *reinterpret_cast<__half2*>(%s)[0]);"
        (ptr_ c 0) (ptr_ a 0) (ptr_ b 0) (ptr_ c 0)
    else
      for k = 0 to n - 1 do
        if Dt.equal (Ts.dtype c) Dt.FP16 then
          line ctx "%s = __hfma(%s, %s, %s);" (ref_ c k) (ref_ a k) (ref_ b k)
            (ref_ c k)
        else
          line ctx "%s += %s * %s;" (ref_ c k) (ref_ a k) (ref_ b k)
      done
  | _ -> failwith "fma arity"

let emit_unary ctx op (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    for k = 0 to total dst - 1 do
      line ctx "%s" (assign_float dst k (Op.cuda_unary op (as_float src k)))
    done
  | _ -> failwith "unary arity"

let emit_binary ctx op (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ a; b ], [ dst ] ->
    (* Size-1 operands broadcast. *)
    let idx v k = if total v = 1 then 0 else k in
    for k = 0 to total dst - 1 do
      line ctx "%s"
        (assign_float dst k
           (Op.cuda_binary op (as_float a (idx a k)) (as_float b (idx b k))))
    done
  | _ -> failwith "binary arity"

let emit_reduction ctx op axes (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    let ni = total src and no = total dst in
    if no = 1 then
      (* Accumulating full reduction: dst = op(dst, src_k). *)
      for k = 0 to ni - 1 do
        line ctx "%s"
          (assign_float dst 0
             (Op.cuda_binary op (as_float dst 0) (as_float src k)))
      done
    else
      let red = ni / no in
      for o = 0 to no - 1 do
        for r = 0 to red - 1 do
          let k =
            match axes with [ 0 ] -> (o * red) + r | _ -> (r * no) + o
          in
          line ctx "%s"
            (assign_float dst o
               (Op.cuda_binary op (as_float dst o) (as_float src k)))
        done
      done
  | _ -> failwith "reduction arity"

let emit_shfl ctx kind (s : Spec.t) =
  match (s.Spec.ins, s.Spec.outs) with
  | [ src ], [ dst ] ->
    let call v =
      match kind with
      | Spec.Bfly m -> Printf.sprintf "__shfl_xor_sync(0xffffffffu, %s, %d)" v m
      | Spec.Up d -> Printf.sprintf "__shfl_up_sync(0xffffffffu, %s, %d)" v d
      | Spec.Down d ->
        Printf.sprintf "__shfl_down_sync(0xffffffffu, %s, %d)" v d
      | Spec.Idx e ->
        Printf.sprintf "__shfl_sync(0xffffffffu, %s, %s)" v
          (E.to_string (hoist_expr e))
    in
    for k = 0 to total dst - 1 do
      line ctx "%s" (assign_float dst k (call (as_float src k)))
    done
  | _ -> failwith "shfl arity"

let emit_init ctx v (s : Spec.t) =
  match s.Spec.outs with
  | [ dst ] ->
    for k = 0 to total dst - 1 do
      line ctx "%s" (assign_float dst k (Printf.sprintf "%.9gf" v))
    done
  | _ -> failwith "init arity"

let emit_atomic ctx (s : Spec.t) =
  let instr = Atomic.find_exn ctx.arch s in
  match (instr.Atomic.klass, s.Spec.kind) with
  | Atomic.Cp_async, _ -> emit_cp_async ctx instr s
  | Atomic.Ldmatrix { x; trans }, _ -> emit_ldmatrix ctx instr ~trans x s
  | Atomic.Cvt, _ -> emit_cvt ctx s
  | Atomic.Global_move, _ -> emit_global_move ctx s instr
  | (Atomic.Shared_move | Atomic.Mov), _ -> emit_plain_move ctx s
  | Atomic.Mma { m = 16; n = 8; k = 16 }, _ -> emit_mma_m16n8k16 ctx instr s
  | Atomic.Mma { m = 8; n = 8; k = 4 }, _ -> emit_mma_m8n8k4 ctx instr s
  | Atomic.Fma, _ -> emit_fma ctx s
  | Atomic.Unary_pw, Spec.Unary_pointwise op -> emit_unary ctx op s
  | Atomic.Binary_pw, Spec.Binary_pointwise op -> emit_binary ctx op s
  | Atomic.Reduction, Spec.Reduction { op; axes } ->
    emit_reduction ctx op axes s
  | Atomic.Shfl, Spec.Shfl kind -> emit_shfl ctx kind s
  | Atomic.Init, Spec.Init v -> emit_init ctx v s
  | ( ( Atomic.Mma _ | Atomic.Async_fence | Atomic.Unary_pw | Atomic.Binary_pw
      | Atomic.Reduction | Atomic.Shfl | Atomic.Init ),
      _ ) ->
    failwith ("Emit: unhandled atomic instruction " ^ instr.Atomic.name)

(* ----- statements ----- *)

let rel_string = function
  | Spec.Lt -> "<"
  | Spec.Le -> "<="
  | Spec.Eq -> "=="
  | Spec.Ne -> "!="
  | Spec.Gt -> ">"
  | Spec.Ge -> ">="

let rec pred_string = function
  | Spec.Cmp (r, a, b) ->
    Printf.sprintf "%s %s %s"
      (E.to_string (hoist_expr a))
      (rel_string r)
      (E.to_string (hoist_expr b))
  | Spec.And (a, b) ->
    Printf.sprintf "(%s && %s)" (pred_string a) (pred_string b)
  | Spec.Or (a, b) ->
    Printf.sprintf "(%s || %s)" (pred_string a) (pred_string b)
  | Spec.Not p -> Printf.sprintf "!(%s)" (pred_string p)

let rec emit_stmt ctx stmt =
  match stmt with
  | Spec.Comment c -> line ctx "// %s" c
  | Spec.Sync -> line ctx "__syncthreads();"
  | Spec.Commit_group -> line ctx "asm volatile(\"cp.async.commit_group;\\n\");"
  | Spec.Wait_group n ->
    line ctx "asm volatile(\"cp.async.wait_group %d;\\n\");" n
  | Spec.Alloc t ->
    (match t.Ts.mem with
    | Ms.Shared -> line ctx "// __shared__ %s (hoisted)" t.Ts.buffer
    | Ms.Register | Ms.Global ->
      line ctx "%s %s[%d];" (ty (Ts.dtype t)) t.Ts.buffer (L.cosize t.Ts.layout))
  | Spec.For { var; lo; hi; step; unroll; body } ->
    if unroll then line ctx "#pragma unroll";
    line ctx "for (int %s = %s; %s < %s; %s += %s) {" var (E.to_string lo) var
      (E.to_string hi) var (E.to_string step);
    ctx.indent <- ctx.indent + 1;
    List.iter (emit_stmt ctx) body;
    ctx.indent <- ctx.indent - 1;
    line ctx "}"
  | Spec.If { cond; then_; else_ } ->
    let saved = ctx.divergent in
    if Spec.pred_mentions "threadIdx.x" cond then ctx.divergent <- true;
    line ctx "if (%s) {" (pred_string cond);
    ctx.indent <- ctx.indent + 1;
    List.iter (emit_stmt ctx) then_;
    ctx.indent <- ctx.indent - 1;
    if else_ = [] then line ctx "}"
    else begin
      line ctx "} else {";
      ctx.indent <- ctx.indent + 1;
      List.iter (emit_stmt ctx) else_;
      ctx.indent <- ctx.indent - 1;
      line ctx "}"
    end;
    ctx.divergent <- saved
  | Spec.Spec_stmt s -> (
    match s.Spec.decomp with
    | None -> emit_atomic ctx s
    | Some body ->
      if String.length s.Spec.label > 0 then
        line ctx "// %s: %s" (Spec.kind_name s.Spec.kind) s.Spec.label;
      List.iter (emit_stmt ctx) body)

(* ----- kernel ----- *)

let written_buffers body =
  Spec.fold_specs
    (fun acc s ->
      List.fold_left
        (fun acc (v : Ts.t) ->
          if Ms.equal v.Ts.mem Ms.Global then v.Ts.buffer :: acc else acc)
        acc s.Spec.outs)
    [] body
  |> List.sort_uniq String.compare

let uses_gelu body =
  Spec.fold_specs
    (fun acc s ->
      acc || match s.Spec.kind with Spec.Unary_pointwise Op.Gelu -> true | _ -> false)
    false body

let cuda arch (k : Spec.kernel) =
  let ctx =
    { arch
    ; buf = Buffer.create 4096
    ; indent = 0
    ; cta_size = Tt.size k.Spec.cta
    ; divergent = false
    }
  in
  raw ctx
    (Printf.sprintf
       "// Generated by Graphene (OCaml reproduction) for %s\n\
        // kernel: %s | launch: <<<%d, %d>>>\n\
        #include <cuda_fp16.h>\n\n"
       (Graphene.Arch.name arch) k.Spec.name
       (Tt.size k.Spec.grid) (Tt.size k.Spec.cta));
  if uses_gelu k.Spec.body then
    raw ctx
      "__device__ __forceinline__ float gelu(float x) {\n\
      \  return 0.5f * x * (1.0f + tanhf(0.7978845608f * (x + 0.044715f * x \
       * x * x)));\n\
       }\n\n";
  let written = written_buffers k.Spec.body in
  let param_decl (v : Ts.t) =
    let const =
      if List.mem v.Ts.buffer written then "" else "const "
    in
    Printf.sprintf "%s%s* __restrict__ %s" const (ty (Ts.dtype v)) v.Ts.buffer
  in
  let scalar_decls = List.map (Printf.sprintf "int %s") k.Spec.scalar_params in
  raw ctx
    (Printf.sprintf "extern \"C\" __global__ void %s(%s) {\n" k.Spec.name
       (String.concat ", " (List.map param_decl k.Spec.params @ scalar_decls)));
  ctx.indent <- 1;
  (* Pass 1 (discarded): discover the launch-index subexpressions. *)
  hoist_state.defs <- [];
  hoist_state.enabled <- true;
  let probe = { ctx with buf = Buffer.create 1024 } in
  List.iter (emit_stmt probe) k.Spec.body;
  (* Emit the hoisted index definitions, then the real body. *)
  List.iter
    (fun (e, name) -> line ctx "int %s = %s;" name (E.to_string e))
    hoist_state.defs;
  (* Hoist shared-memory allocations. *)
  List.iter
    (fun (t : Ts.t) ->
      if Ms.equal t.Ts.mem Ms.Shared then
        line ctx "__shared__ %s %s[%d];" (ty (Ts.dtype t)) t.Ts.buffer
          (Ts.alloc_size t))
    (Spec.allocs k.Spec.body);
  List.iter (emit_stmt ctx) k.Spec.body;
  hoist_state.enabled <- false;
  ctx.indent <- 0;
  raw ctx "}\n";
  Buffer.contents ctx.buf
