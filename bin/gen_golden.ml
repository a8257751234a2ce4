let write file contents =
  let oc = open_out ("test/golden/" ^ file) in
  output_string oc contents;
  close_out oc

let () =
  List.iter
    (fun (file, arch, build) -> write file (Codegen.Emit.cuda arch (build ())))
    Experiments.Cuda_digest.listings;
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
  write "profile_gemm_tc_sm86.json" (Gpu_sim.Profiler.report_to_json report);
  let lines l = String.concat "" (List.map (fun s -> s ^ "\n") l) in
  (* Seeded simulator digests, both executors; checked by
     test/test_bytecode.ml. *)
  write "sim_digests.txt" (lines (Experiments.Sim_digest.lines ()));
  (* Generated-CUDA digests of the kernel corpus; checked by
     test/test_codegen.ml. *)
  write "cuda_digests.txt" (lines (Experiments.Cuda_digest.lines ()));
  (* Deterministic search trajectories; checked by test/test_search.ml. *)
  List.iter
    (fun (c : Experiments.Search_golden.case) ->
      write c.file (Tuner.Search.to_json ~wall:false (c.search ())))
    Experiments.Search_golden.cases
