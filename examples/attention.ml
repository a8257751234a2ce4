(* Fused multi-head attention (paper Figure 14): simulate a reduced
   instance for correctness, then estimate the MLPerf BERT configuration
   against the unfused baseline and the TensorRT kernels, and show the
   Figure 15 end-to-end injection result. Exits 1 if the simulated
   instance does not match the CPU reference.

   Run with: dune exec examples/attention.exe *)

let () =
  let arch = Graphene.Arch.SM86 in

  (* Correctness: one head on the simulator vs the CPU reference. *)
  let batch = 1 and heads = 2 and seq = 32 and dh = 16 in
  let kernel =
    Kernels.Fmha.kernel arch ~batch ~heads ~seq ~dh ~chunk:16 ~nthreads:64 ()
  in
  Graphene.Validate.check_exn arch kernel;
  let rows = batch * heads * seq in
  let q = Reference.Cpu_ref.random_fp16 ~seed:1 (rows * dh) in
  let k = Reference.Cpu_ref.random_fp16 ~seed:2 (rows * dh) in
  let v = Reference.Cpu_ref.random_fp16 ~seed:3 (rows * dh) in
  let o = Array.make (rows * dh) 0.0 in
  let _ =
    Gpu_sim.Interp.run ~arch kernel ~args:[ ("Q", q); ("K", k); ("V", v); ("O", o) ] ()
  in
  let o_ref = Reference.Cpu_ref.attention ~batch ~heads ~seq ~dh q k v in
  Format.printf "===== Fused MHA, simulated (%d heads, seq %d, d %d) =====@."
    heads seq dh;
  let ok = Reference.Cpu_ref.allclose ~rtol:4e-2 ~atol:2e-2 o o_ref in
  Format.printf "matches CPU reference: %b@." ok;

  (* Figure 14: the MLPerf BERT configuration. *)
  Format.printf "\n";
  Experiments.Figures.print_fig14 Format.std_formatter;

  (* Figure 15: injecting the kernel into transformer inference. *)
  Experiments.Figures.print_fig15 Format.std_formatter;
  if not ok then exit 1
