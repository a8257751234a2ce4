(* Fused Layernorm (paper Figure 13): one kernel per row with in-register
   and cross-warp reductions built from Reduction and Shfl specs. Exits 1
   if the simulated kernel does not match the CPU reference.

   Run with: dune exec examples/layernorm_example.exe *)

let () =
  let arch = Graphene.Arch.SM86 in

  (* Simulate and verify. *)
  let rows = 4 and cols = 1024 and nthreads = 128 in
  let kernel = Kernels.Layernorm.kernel ~rows ~cols ~nthreads () in
  Graphene.Validate.check_exn arch kernel;
  let x = Reference.Cpu_ref.random_fp16 ~seed:1 (rows * cols) in
  let gamma = Reference.Cpu_ref.random_fp16 ~seed:2 cols in
  let beta = Reference.Cpu_ref.random_fp16 ~seed:3 cols in
  let y = Array.make (rows * cols) 0.0 in
  let counters =
    Gpu_sim.Interp.run ~arch kernel
      ~args:[ ("X", x); ("gamma", gamma); ("beta", beta); ("Y", y) ]
      ()
  in
  let y_ref = Array.copy x in
  Reference.Cpu_ref.layernorm ~rows ~cols ~gamma ~beta y_ref;
  Format.printf "===== Fused Layernorm, simulated (%d x %d) =====@." rows cols;
  let ok = Reference.Cpu_ref.allclose ~rtol:3e-2 ~atol:2e-2 y y_ref in
  Format.printf "matches CPU reference: %b@." ok;
  Format.printf "%a@.@." Gpu_sim.Counters.pp counters;

  (* Figure 13: against the PyTorch implementations. *)
  Experiments.Figures.print_fig13 Format.std_formatter;
  if not ok then exit 1
