let () =
  let fig8 = Kernels.Gemm.naive ~m:1024 ~n:1024 ~k:1024 ~bm:128 ~bn:128 ~tm:8 ~tn:8 () in
  let oc = open_out "test/golden/fig8_sm86.cu" in
  output_string oc (Codegen.Emit.cuda Graphene.Arch.SM86 fig8);
  close_out oc;
  let ld = Kernels.Ldmatrix_demo.kernel () in
  let oc = open_out "test/golden/ldmatrix_sm86.cu" in
  output_string oc (Codegen.Emit.cuda Graphene.Arch.SM86 ld);
  close_out oc;
  let tc =
    Kernels.Gemm.tensor_core Graphene.Arch.SM86
      (Kernels.Gemm.test_config Graphene.Arch.SM86)
      ~epilogue:Kernels.Epilogue.bias_relu ~m:64 ~n:64 ~k:32 ()
  in
  let oc = open_out "test/golden/gemm_tc_sm86.cu" in
  output_string oc (Codegen.Emit.cuda Graphene.Arch.SM86 tc);
  close_out oc;
  (* The other two mma forms: bf16 m16n8k16 and Volta's m8n8k4. *)
  let tc_bf16 =
    Kernels.Gemm.tensor_core ~dtype:Gpu_tensor.Dtype.BF16 Graphene.Arch.SM86
      (Kernels.Gemm.test_config Graphene.Arch.SM86)
      ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:64 ()
  in
  let oc = open_out "test/golden/gemm_tc_bf16_sm86.cu" in
  output_string oc (Codegen.Emit.cuda Graphene.Arch.SM86 tc_bf16);
  close_out oc;
  let tc_sm70 =
    Kernels.Gemm.tensor_core Graphene.Arch.SM70
      (Kernels.Gemm.test_config Graphene.Arch.SM70)
      ~epilogue:Kernels.Epilogue.bias_relu ~m:32 ~n:32 ~k:32 ()
  in
  let oc = open_out "test/golden/gemm_tc_sm70.cu" in
  output_string oc (Codegen.Emit.cuda Graphene.Arch.SM70 tc_sm70);
  close_out oc;
  (* Golden profiler report — must mirror profile_gemm in
     test/test_profiler.ml: same kernel, zero-filled inputs. *)
  let arch = Graphene.Arch.SM86 in
  let kernel =
    Kernels.Gemm.tensor_core arch
      (Kernels.Gemm.test_config arch)
      ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:32 ()
  in
  let args =
    List.map
      (fun (p : Gpu_tensor.Tensor.t) ->
        ( p.Gpu_tensor.Tensor.name
        , Array.make (Shape.Layout.cosize p.Gpu_tensor.Tensor.layout) 0.0 ))
      kernel.Graphene.Spec.params
  in
  let profiler = Gpu_sim.Profiler.create () in
  let counters = Gpu_sim.Interp.run ~arch ~profiler kernel ~args () in
  let report =
    Gpu_sim.Profiler.report profiler ~kernel ~arch ~counters
      ~machine:(Gpu_sim.Machine.of_arch arch) ()
  in
  let oc = open_out "test/golden/profile_gemm_tc_sm86.json" in
  output_string oc (Gpu_sim.Profiler.report_to_json report);
  close_out oc;
  (* Seeded simulator digests, both executors; checked by
     test/test_bytecode.ml. *)
  let oc = open_out "test/golden/sim_digests.txt" in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    (Experiments.Sim_digest.lines ());
  close_out oc
