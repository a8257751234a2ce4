(* End-to-end kernel tests: GEMM kernels built in Graphene IR, executed on
   the simulated GPU, compared against the CPU reference. *)

module Arch = Graphene.Arch
module Validate = Graphene.Validate
module Gemm = Kernels.Gemm
module Epi = Kernels.Epilogue
module Ref = Reference.Cpu_ref
module Interp = Gpu_sim.Interp

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let run_gemm kernel ~m ~n ~k ?(extra = []) () =
  let a = Ref.random_fp16 ~seed:1 (m * k) in
  let b = Ref.random_fp16 ~seed:2 (k * n) in
  let c = Array.make (m * n) 0.0 in
  let counters =
    Interp.run ~arch:Arch.SM86 kernel
      ~args:([ ("A", a); ("B", b); ("C", c) ] @ extra)
      ()
  in
  let c_ref = Array.make (m * n) 0.0 in
  Ref.gemm ~m ~n ~k a b c_ref;
  (a, b, c, c_ref, counters)

let test_naive_correct () =
  let m = 32 and n = 32 and k = 16 in
  let kernel = Gemm.naive ~m ~n ~k ~bm:16 ~bn:16 ~tm:4 ~tn:4 () in
  Alcotest.(check (list string)) "well-formed" []
    (Validate.check Arch.SM86 kernel);
  let _, _, c, c_ref, counters = run_gemm kernel ~m ~n ~k () in
  check_bool "matches reference" true (Ref.allclose c c_ref);
  (* Every output element takes k fused multiply-adds. *)
  check_int "flops" (2 * m * n * k) counters.Gpu_sim.Counters.flops

let test_naive_validates_both_archs () =
  let kernel = Gemm.naive ~m:16 ~n:16 ~k:8 ~bm:16 ~bn:16 ~tm:4 ~tn:4 () in
  Alcotest.(check (list string)) "sm70" [] (Validate.check Arch.SM70 kernel);
  Alcotest.(check (list string)) "sm86" [] (Validate.check Arch.SM86 kernel)

let tc_case ~arch ~epilogue ~m ~n ~k () =
  let cfg = Gemm.test_config arch in
  let kernel = Gemm.tensor_core arch cfg ~epilogue ~m ~n ~k () in
  (match Validate.check arch kernel with
  | [] -> ()
  | problems -> Alcotest.fail (String.concat "\n" problems));
  let a = Ref.random_fp16 ~seed:3 (m * k) in
  let b = Ref.random_fp16 ~seed:4 (k * n) in
  let bias = Ref.random_fp16 ~seed:5 n in
  let c = Array.make (m * n) 0.0 in
  let args =
    [ ("A", a); ("B", b); ("C", c) ]
    @ if epilogue.Epi.bias then [ ("bias", bias) ] else []
  in
  let counters = Interp.run ~arch kernel ~args () in
  let c_ref = Array.make (m * n) 0.0 in
  Ref.gemm ~m ~n ~k a b c_ref;
  if epilogue.Epi.bias then Ref.bias_add ~rows:m ~cols:n c_ref bias;
  (match epilogue.Epi.act with
  | Some Graphene.Op.Relu -> Ref.relu c_ref
  | Some Graphene.Op.Gelu -> Ref.gelu c_ref
  | Some Graphene.Op.Tanh -> Ref.tanh_ c_ref
  | Some _ | None -> ());
  (c, c_ref, counters)

let test_tc_sm86_correct () =
  let m = 64 and n = 64 and k = 64 in
  let c, c_ref, counters = tc_case ~arch:Arch.SM86 ~epilogue:Epi.none ~m ~n ~k () in
  check_bool "matches reference" true (Ref.allclose c c_ref);
  (* All multiply-accumulate work runs on tensor cores. *)
  check_int "tensor core flops" (2 * m * n * k)
    counters.Gpu_sim.Counters.tensor_core_flops;
  check_int "no cuda-core fma" 0 counters.Gpu_sim.Counters.flops

let test_tc_sm86_multiblock () =
  let m = 128 and n = 128 and k = 32 in
  let c, c_ref, _ = tc_case ~arch:Arch.SM86 ~epilogue:Epi.none ~m ~n ~k () in
  check_bool "matches reference" true (Ref.allclose c c_ref)

let test_tc_sm86_bias_relu () =
  let m = 64 and n = 64 and k = 32 in
  let c, c_ref, _ =
    tc_case ~arch:Arch.SM86 ~epilogue:Epi.bias_relu ~m ~n ~k ()
  in
  check_bool "matches reference" true (Ref.allclose c c_ref)

let test_tc_sm86_gelu () =
  let m = 64 and n = 64 and k = 32 in
  let c, c_ref, _ = tc_case ~arch:Arch.SM86 ~epilogue:Epi.bias_gelu ~m ~n ~k () in
  check_bool "matches reference" true (Ref.allclose c c_ref)

let test_tc_sm70_correct () =
  let m = 32 and n = 32 and k = 32 in
  let c, c_ref, counters = tc_case ~arch:Arch.SM70 ~epilogue:Epi.none ~m ~n ~k () in
  check_bool "matches reference" true (Ref.allclose c c_ref);
  check_int "tensor core flops" (2 * m * n * k)
    counters.Gpu_sim.Counters.tensor_core_flops

let test_tc_sm70_bias_relu () =
  let m = 64 and n = 64 and k = 16 in
  let c, c_ref, _ =
    tc_case ~arch:Arch.SM70 ~epilogue:Epi.bias_relu ~m ~n ~k ()
  in
  check_bool "matches reference" true (Ref.allclose c c_ref)

(* The ablation of paper Section 2: replacing ldmatrix with per-lane moves
   is functionally identical but issues far more shared-memory
   instructions. *)
let test_ldmatrix_ablation () =
  let m = 64 and n = 64 and k = 32 in
  let arch = Arch.SM86 in
  let cfg = Gemm.test_config arch in
  let cfg_noldm = { cfg with Gemm.use_ldmatrix = false } in
  let run cfg =
    let kernel = Gemm.tensor_core arch cfg ~epilogue:Epi.none ~m ~n ~k () in
    let a = Ref.random_fp16 ~seed:7 (m * k) in
    let b = Ref.random_fp16 ~seed:8 (k * n) in
    let c = Array.make (m * n) 0.0 in
    let counters =
      Interp.run ~arch kernel ~args:[ ("A", a); ("B", b); ("C", c) ] ()
    in
    (c, counters)
  in
  let c1, counters1 = run cfg in
  let c2, counters2 = run cfg_noldm in
  check_bool "same results" true (Ref.allclose c1 c2);
  check_bool "ldmatrix issues fewer instructions" true
    (counters1.Gpu_sim.Counters.instructions
    < counters2.Gpu_sim.Counters.instructions)

(* Swizzled shared-memory staging eliminates bank conflicts. *)
let test_swizzle_ablation () =
  let m = 64 and n = 64 and k = 32 in
  let arch = Arch.SM86 in
  let cfg = Gemm.test_config arch in
  let cfg_linear = { cfg with Gemm.swizzle = false } in
  let run cfg =
    let kernel = Gemm.tensor_core arch cfg ~epilogue:Epi.none ~m ~n ~k () in
    let a = Ref.random_fp16 ~seed:9 (m * k) in
    let b = Ref.random_fp16 ~seed:10 (k * n) in
    let c = Array.make (m * n) 0.0 in
    let counters =
      Interp.run ~arch kernel ~args:[ ("A", a); ("B", b); ("C", c) ] ()
    in
    (c, counters)
  in
  let c1, counters1 = run cfg in
  let c2, counters2 = run cfg_linear in
  check_bool "same results" true (Ref.allclose c1 c2);
  check_bool "swizzle removes bank conflicts" true
    (counters1.Gpu_sim.Counters.shared_bank_conflicts
    < counters2.Gpu_sim.Counters.shared_bank_conflicts);
  check_int "swizzled is conflict-free" 0
    counters1.Gpu_sim.Counters.shared_bank_conflicts

(* Operand layouts: all four storage combinations compute the same GEMM.
   Returns each orientation's simulated shared-memory bank conflicts. *)
let run_layouts arch cfg ~m ~n ~k ~seed =
  let a = Ref.random_fp16 ~seed (m * k) in
  let b = Ref.random_fp16 ~seed:(seed + 1) (k * n) in
  let transpose ~rows ~cols x =
    Array.init (rows * cols) (fun i ->
        let r = i / rows and c = i mod rows in
        x.((c * cols) + r))
  in
  let c_ref = Array.make (m * n) 0.0 in
  Ref.gemm ~m ~n ~k a b c_ref;
  List.map
    (fun (ta, tb) ->
      let kernel =
        Gemm.tensor_core ~ta ~tb arch cfg ~epilogue:Epi.none ~m ~n ~k ()
      in
      (match Validate.check arch kernel with
      | [] -> ()
      | problems -> Alcotest.fail (String.concat "\n" problems));
      let a_arg = if ta then transpose ~rows:m ~cols:k a else a in
      let b_arg = if tb then transpose ~rows:k ~cols:n b else b in
      let c = Array.make (m * n) 0.0 in
      let counters =
        Interp.run ~arch kernel
          ~args:[ ("A", a_arg); ("B", b_arg); ("C", c) ]
          ()
      in
      check_bool
        (Printf.sprintf "%s ta=%b tb=%b" (Arch.name arch) ta tb)
        true (Ref.allclose c c_ref);
      ((ta, tb), counters.Gpu_sim.Counters.shared_bank_conflicts))
    [ (false, false); (true, false); (false, true); (true, true) ]

(* The untransposed operand of every layout stages swizzled, so no layout
   conflicts more than its linear staging, and NN is conflict-free. *)
let test_layouts () =
  let arch = Arch.SM86 in
  let cfg = Gemm.test_config arch in
  let run cfg = run_layouts arch cfg ~m:64 ~n:64 ~k:32 ~seed:22 in
  let swizzled = run cfg and linear = run { cfg with Gemm.swizzle = false } in
  List.iter2
    (fun ((ta, tb), sw) (_, lin) ->
      check_bool
        (Printf.sprintf "ta=%b tb=%b: %d conflicts swizzled <= %d linear" ta
           tb sw lin)
        true (sw <= lin))
    swizzled linear;
  check_int "nn swizzled is conflict-free" 0 (List.assoc (false, false) swizzled)

let test_layouts_sm70 () =
  let arch = Arch.SM70 in
  ignore (run_layouts arch (Gemm.test_config arch) ~m:32 ~n:32 ~k:16 ~seed:24)

(* BF16 tensor-core path (SM86): same pipeline, bf16 operands, fp32
   accumulation via mma.m16n8k16.bf16. *)
let test_bf16 () =
  let m = 64 and n = 64 and k = 32 in
  let arch = Arch.SM86 in
  let cfg = Gemm.test_config arch in
  let kernel =
    Gemm.tensor_core ~dtype:Gpu_tensor.Dtype.BF16 arch cfg ~epilogue:Epi.none
      ~m ~n ~k ()
  in
  (match Validate.check arch kernel with
  | [] -> ()
  | problems -> Alcotest.fail (String.concat "\n" problems));
  let round_bf16 = Gpu_tensor.Dtype.round Gpu_tensor.Dtype.BF16 in
  let a = Array.map round_bf16 (Ref.random_fp16 ~seed:20 (m * k)) in
  let b = Array.map round_bf16 (Ref.random_fp16 ~seed:21 (k * n)) in
  let c = Array.make (m * n) 0.0 in
  let _ = Interp.run ~arch kernel ~args:[ ("A", a); ("B", b); ("C", c) ] () in
  let c_ref = Array.make (m * n) 0.0 in
  Ref.gemm ~m ~n ~k a b c_ref;
  (* bf16 carries ~8 significand bits: wider tolerance. *)
  check_bool "matches reference" true
    (Ref.allclose ~rtol:8e-2 ~atol:5e-2 c c_ref)

(* Batched GEMM: one launch computes every instance (third grid mode). *)
let test_batched () =
  let batch = 3 and m = 32 and n = 32 and k = 32 in
  let arch = Arch.SM86 in
  let cfg = { (Gemm.test_config arch) with Gemm.bm = 32; bn = 32; wm = 32; wn = 16 } in
  let kernel =
    Gemm.tensor_core ~batch arch cfg ~epilogue:Epi.none ~m ~n ~k ()
  in
  (match Validate.check arch kernel with
  | [] -> ()
  | problems -> Alcotest.fail (String.concat "\n" problems));
  let a = Ref.random_fp16 ~seed:18 (batch * m * k) in
  let b = Ref.random_fp16 ~seed:19 (batch * k * n) in
  let c = Array.make (batch * m * n) 0.0 in
  let _ = Interp.run ~arch kernel ~args:[ ("A", a); ("B", b); ("C", c) ] () in
  for z = 0 to batch - 1 do
    let c_ref = Array.make (m * n) 0.0 in
    Ref.gemm ~m ~n ~k
      (Array.sub a (z * m * k) (m * k))
      (Array.sub b (z * k * n) (k * n))
      c_ref;
    check_bool
      (Printf.sprintf "instance %d" z)
      true
      (Ref.allclose (Array.sub c (z * m * n) (m * n)) c_ref)
  done;
  Alcotest.check_raises "batched operands stay untransposed"
    (Invalid_argument "Gemm: a batched GEMM needs untransposed operands")
    (fun () ->
      ignore
        (Gemm.tensor_core ~batch ~ta:true arch cfg ~epilogue:Epi.none ~m ~n
           ~k ()))

(* Double-buffered staging: lowered with a 2-stage software pipeline, the
   kernel matches the CPU reference for even and odd k-tile counts. Volta
   stages through registers, which the pipelining pass refuses; its plan
   stays single-buffered and must match all the same. *)
let test_double_buffer () =
  List.iter
    (fun (arch, m, n, k, piped) ->
      let kernel =
        Gemm.tensor_core arch (Gemm.test_config arch) ~epilogue:Epi.none ~m ~n
          ~k ()
      in
      (match Validate.check arch kernel with
      | [] -> ()
      | problems -> Alcotest.fail (String.concat "\n" problems));
      let tag = Printf.sprintf "%s %dx%dx%d" (Arch.name arch) m n k in
      let plan = Lower.Pipeline.lower ~stages:2 arch kernel in
      check_int (tag ^ ": pipeline stages")
        (if piped then 2 else 1)
        plan.Lower.Plan.pipelining.Lower.Plan.pl_stages;
      let a = Ref.random_fp16 ~seed:16 (m * k) in
      let b = Ref.random_fp16 ~seed:17 (k * n) in
      let c = Array.make (m * n) 0.0 in
      let _ = Interp.run_plan plan ~args:[ ("A", a); ("B", b); ("C", c) ] () in
      let c_ref = Array.make (m * n) 0.0 in
      Ref.gemm ~m ~n ~k a b c_ref;
      check_bool tag true (Ref.allclose c c_ref))
    [ (Arch.SM86, 64, 64, 64, true)    (* even number of k tiles *)
    ; (Arch.SM86, 64, 64, 96, true)    (* odd number of k tiles *)
    ; (Arch.SM70, 32, 32, 48, false)   (* odd, Volta *)
    ]

(* Paper Section 3.4: parametric shapes with predicated partial tiles. *)
let test_parametric_partial_tiles () =
  let m = 30 and n = 20 and k = 10 in
  let kernel =
    Gemm.naive_parametric ~launch_m:m ~launch_n:n ~bm:16 ~bn:16 ~tm:4 ~tn:4 ()
  in
  Alcotest.(check (list string)) "well-formed" []
    (Validate.check Arch.SM86 kernel);
  let a = Ref.random_fp16 ~seed:14 (m * k) in
  let b = Ref.random_fp16 ~seed:15 (k * n) in
  let c = Array.make (m * n) 0.0 in
  let _ =
    Interp.run ~arch:Arch.SM86 kernel
      ~args:[ ("A", a); ("B", b); ("C", c) ]
      ~scalars:[ ("M", m); ("N", n); ("K", k) ]
      ()
  in
  let c_ref = Array.make (m * n) 0.0 in
  Ref.gemm ~m ~n ~k a b c_ref;
  check_bool "matches reference on ragged sizes" true (Ref.allclose c c_ref)

let test_parametric_reusable () =
  (* The same kernel IR serves several problem sizes (one compiled kernel,
     runtime scalar arguments) as long as the grid covers them. *)
  let kernel =
    Gemm.naive_parametric ~launch_m:32 ~launch_n:32 ~bm:16 ~bn:16 ~tm:4 ~tn:4 ()
  in
  List.iter
    (fun (m, n, k) ->
      let a = Ref.random_fp16 ~seed:(m + k) (m * k) in
      let b = Ref.random_fp16 ~seed:(n + k) (k * n) in
      let c = Array.make (m * n) 0.0 in
      let _ =
        Interp.run ~arch:Arch.SM86 kernel
          ~args:[ ("A", a); ("B", b); ("C", c) ]
          ~scalars:[ ("M", m); ("N", n); ("K", k) ]
          ()
      in
      let c_ref = Array.make (m * n) 0.0 in
      Ref.gemm ~m ~n ~k a b c_ref;
      check_bool
        (Printf.sprintf "size %dx%dx%d" m n k)
        true (Ref.allclose c c_ref))
    [ (32, 32, 8); (17, 23, 5); (1, 32, 3) ]

(* Property: any valid tile configuration produces a correct kernel,
   staged either in one buffer or through a 2-stage software pipeline
   (k = 2 tiles; the swpipe pass refuses eager register staging, which then
   runs unpipelined). *)
let prop_random_configs =
  let gen =
    QCheck.Gen.(
      let* bm = oneofl [ 32; 64 ] in
      let* bn = oneofl [ 32; 64 ] in
      let* bk = oneofl [ 16; 32 ] in
      let* wm = oneofl [ 16; 32 ] in
      let* wn = oneofl [ 8; 16; 32 ] in
      let* ldm = QCheck.Gen.bool in
      let* cpa = QCheck.Gen.bool in
      let* piped = QCheck.Gen.bool in
      return (bm, bn, bk, wm, wn, ldm, cpa, piped))
  in
  QCheck.Test.make ~count:12 ~name:"random tile configs are correct"
    (QCheck.make gen ~print:(fun (bm, bn, bk, wm, wn, ldm, cpa, piped) ->
         Printf.sprintf "bm=%d bn=%d bk=%d wm=%d wn=%d ldm=%b cpa=%b piped=%b"
           bm bn bk wm wn ldm cpa piped))
    (fun (bm, bn, bk, wm, wn, ldm, cpa, piped) ->
      QCheck.assume (bm mod wm = 0 && bn mod wn = 0);
      QCheck.assume (bm / wm * (bn / wn) <= 8);
      (* staging divisibility: each tile must split evenly over threads *)
      let nthreads = bm / wm * (bn / wn) * 32 in
      let vecs t = t / 8 in
      QCheck.assume
        (vecs (bm * bk) mod nthreads = 0 || nthreads mod vecs (bm * bk) = 0);
      QCheck.assume
        (vecs (bk * bn) mod nthreads = 0 || nthreads mod vecs (bk * bn) = 0);
      let cfg =
        { Gemm.bm; bn; bk; wm; wn; swizzle = true; use_ldmatrix = ldm
        ; use_cp_async = cpa
        }
      in
      let m = bm and n = bn and k = 2 * bk in
      let kernel =
        Gemm.tensor_core Arch.SM86 cfg ~epilogue:Epi.none ~m ~n ~k ()
      in
      let a = Ref.random_fp16 ~seed:(bm + bn) (m * k) in
      let b = Ref.random_fp16 ~seed:(bk + wn) (k * n) in
      let c = Array.make (m * n) 0.0 in
      let plan, _ =
        Lower.Pipeline.lower_cached
          ~stages:(if piped then 2 else 1)
          Arch.SM86 kernel
      in
      let _ = Interp.run_plan plan ~args:[ ("A", a); ("B", b); ("C", c) ] () in
      let c_ref = Array.make (m * n) 0.0 in
      Ref.gemm ~m ~n ~k a b c_ref;
      Ref.allclose c c_ref)

let () =
  Alcotest.run "gemm"
    [ ( "naive (fig 8)"
      , [ Alcotest.test_case "matches reference" `Quick test_naive_correct
        ; Alcotest.test_case "validates on both archs" `Quick
            test_naive_validates_both_archs
        ] )
    ; ( "tensor core sm86"
      , [ Alcotest.test_case "matches reference" `Quick test_tc_sm86_correct
        ; Alcotest.test_case "multi-block" `Quick test_tc_sm86_multiblock
        ; Alcotest.test_case "fused bias+relu" `Quick test_tc_sm86_bias_relu
        ; Alcotest.test_case "fused bias+gelu" `Quick test_tc_sm86_gelu
        ] )
    ; ( "tensor core sm70"
      , [ Alcotest.test_case "matches reference" `Quick test_tc_sm70_correct
        ; Alcotest.test_case "fused bias+relu" `Quick test_tc_sm70_bias_relu
        ] )
    ; ( "operand layouts"
      , [ Alcotest.test_case "nn/tn/nt/tt sm86" `Quick test_layouts
        ; Alcotest.test_case "nn/tn/nt/tt sm70" `Quick test_layouts_sm70
        ] )
    ; ( "bf16"
      , [ Alcotest.test_case "bf16 tensor cores" `Quick test_bf16 ] )
    ; ( "batched"
      , [ Alcotest.test_case "three instances, one launch" `Quick test_batched ] )
    ; ( "double buffering"
      , [ Alcotest.test_case "pipelined staging" `Quick test_double_buffer ] )
    ; ( "parametric (sec 3.4)"
      , [ Alcotest.test_case "partial tiles predicated" `Quick
            test_parametric_partial_tiles
        ; Alcotest.test_case "one kernel, many sizes" `Quick
            test_parametric_reusable
        ] )
    ; ( "config space"
      , List.map QCheck_alcotest.to_alcotest [ prop_random_configs ] )
    ; ( "ablations"
      , [ Alcotest.test_case "ldmatrix vs per-lane loads" `Quick
            test_ldmatrix_ablation
        ; Alcotest.test_case "swizzled vs linear smem" `Quick
            test_swizzle_ablation
        ] )
    ]
