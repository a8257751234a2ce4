(* Seeded digests of simulator results, one line per (case, executor):
   the output buffers' float bits and every counter. The lines are
   pinned in test/golden/sim_digests.txt, so a change to an instruction
   body that both executors share still shows up as a diff against the
   committed results. *)

module Arch = Graphene.Arch
module C = Gpu_sim.Counters
module Plan = Lower.Plan

type case =
  { name : string
  ; arch : Arch.t
  ; stages : int
  }

(* The bf16 tensor-core GEMM is not a CLI preset; it is here for the
   bf16 rounding path. The serving engine's FFN kernel is the one case
   that takes scalars: a 29x48x24 request on its covering 32x64 launch
   grid, whose partial tiles the guards against [M] and [N] cut. *)
let bf16_gemm = "gemm-tc-bf16"
let ffn = "ffn-29x48x24"

let build arch name =
  if String.equal name bf16_gemm then begin
    let m = 64 and n = 64 and k = 64 in
    let kernel =
      Kernels.Gemm.tensor_core ~dtype:Gpu_tensor.Dtype.BF16 arch
        (Kernels.Gemm.test_config arch)
        ~epilogue:Kernels.Epilogue.none ~m ~n ~k ()
    in
    ( kernel
    , [ ("A", Reference.Cpu_ref.random_fp16 ~seed:1 (m * k))
      ; ("B", Reference.Cpu_ref.random_fp16 ~seed:2 (k * n))
      ; ("C", Array.make (m * n) 0.0)
      ]
    , [] )
  end
  else if String.equal name ffn then begin
    let m = 29 and n = 48 and k = 24 in
    ( Kernels.Gemm.naive_parametric ~launch_m:32 ~launch_n:64 ~bm:16 ~bn:16
        ~tm:4 ~tn:4 ()
    , [ ("A", Reference.Cpu_ref.random_fp16 ~seed:1 (m * k))
      ; ("B", Reference.Cpu_ref.random_fp16 ~seed:2 (k * n))
      ; ("C", Array.make (m * n) 0.0)
      ]
    , [ ("M", m); ("N", n); ("K", k) ] )
  end
  else
    let kernel, args, _verify = Presets.build arch name in
    (kernel, args, [])

let pipelines arch name =
  let kernel, _, _ = build arch name in
  (Lower.Pipeline.lower ~stages:3 arch kernel).Plan.pipelining.Plan.pl_stages
  > 1

(* Every preset on both architectures at one stage, plus three stages
   wherever the swpipe pass pipelines the preset. *)
let cases () =
  let presets =
    List.concat_map
      (fun arch ->
        List.concat_map
          (fun name ->
            { name; arch; stages = 1 }
            :: (if pipelines arch name then [ { name; arch; stages = 3 } ]
                else []))
          Presets.names)
      Arch.all
  in
  presets
  @ [ { name = bf16_gemm; arch = Arch.SM86; stages = 1 } ]
  @ List.map (fun arch -> { name = ffn; arch; stages = 1 }) Arch.all

let buffers_digest args =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, data) ->
      Buffer.add_string b name;
      Buffer.add_char b '\000';
      Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) data)
    args;
  Digest.to_hex (Digest.string (Buffer.contents b))

let line ~engine c =
  let kernel, args, scalars = build c.arch c.name in
  let plan = Lower.Pipeline.lower ~stages:c.stages c.arch kernel in
  let run () =
    match engine with
    | `Plan -> Gpu_sim.Interp.run_plan ~domains:1 plan ~args ~scalars ()
    | `Tree ->
      Gpu_sim.Interp.run_tree ~arch:plan.Plan.arch ~domains:1 plan.Plan.kernel
        ~args ~scalars ()
  in
  let field (name, v) = Printf.sprintf "%s=%d" name v in
  let results =
    match run () with
    | counters ->
      List.map field (C.to_alist counters)
      @ List.map
          (fun (n, v) -> field ("mix:" ^ n, v))
          (C.instr_mix_alist counters)
    | exception (Gpu_sim.Interp.Exec_error msg | Gpu_sim.Memory.Fault msg) ->
      (* A preset the architecture cannot run (ldmatrix on sm70) pins its
         error instead. *)
      [ "error=" ^ String.escaped msg ]
  in
  String.concat " "
    ([ Printf.sprintf "%s/%s/s%d" c.name (Arch.name c.arch) c.stages
     ; (match engine with `Plan -> "plan" | `Tree -> "tree")
     ; "out=" ^ buffers_digest args
     ]
    @ results)

let lines () =
  List.concat_map
    (fun c -> [ line ~engine:`Plan c; line ~engine:`Tree c ])
    (cases ())
