(* The paper's opening example (Figures 1 and 5): a tensorized data
   movement with ldmatrix, expressed as a warp-level Move spec decomposed
   into the atomic ldmatrix spec over tiled data and thread tensors. It
   exits 1 if the simulated mapping differs from the PTX-prescribed one.

   Run with: dune exec examples/ldmatrix_move.exe *)

module L = Shape.Layout
module T = Shape.Int_tuple
module Tt = Gpu_tensor.Thread_tensor

let () =
  (* Figure 5: reshaping a warp into 2x2 logical thread groups of 8. *)
  let warp = Tt.linear "warp" 32 Tt.Thread in
  let groups = Tt.reshape (Tt.tile warp [ L.tile_spec 8 ]) (T.of_ints [ 2; 2 ]) in
  Format.printf "===== Logical thread groups (Figure 5) =====@.";
  Format.printf "warp:     %a@." Tt.pp warp;
  Format.printf "arranged: %a@." Tt.pp groups;
  Format.printf "group (0,1) holds threads: %s@."
    (String.concat ", "
       (List.map string_of_int
          (Array.to_list (Tt.group_member_ids groups [ 0; 1 ]))));
  (* Figure 6: Volta's non-contiguous quad-pairs. *)
  let qp_spec =
    L.make (T.of_ints [ 4; 2 ]) (T.node [ T.of_int 1; T.of_int 16 ])
  in
  let qps = Tt.tile warp [ Some qp_spec ] in
  Format.printf "\n===== Quad-pairs (Figure 6) =====@.";
  Format.printf "tiled: %a@." Tt.pp qps;
  Format.printf "quad-pair 0 holds threads: %s@."
    (String.concat ", "
       (List.map string_of_int (Array.to_list (Tt.group_member_ids qps [ 0 ]))));

  (* Figure 1: the full tensorized Move. *)
  let kernel = Kernels.Ldmatrix_demo.kernel () in
  Format.printf "\n===== Graphene IR (Figure 1d) =====@.";
  print_endline (Graphene.Spec.kernel_to_string kernel);
  Format.printf "\n===== Generated CUDA C++ (Figure 1c) =====@.";
  print_string (Codegen.Emit.cuda Graphene.Arch.SM86 kernel);

  (* Execute and show the prescribed data-to-thread mapping (Figure 1b). *)
  let input = Array.init 256 float_of_int in
  let out = Array.make (32 * 8) 0.0 in
  let _ =
    Gpu_sim.Interp.run ~arch:Graphene.Arch.SM86 kernel
      ~args:[ ("In", input); ("Out", out) ]
      ()
  in
  Format.printf "\n===== Values received per thread (Figure 1b) =====@.";
  List.iter
    (fun lane ->
      Format.printf "thread %2d: %s@." lane
        (String.concat " "
           (List.init 8 (fun r ->
                Printf.sprintf "%3.0f" out.((lane * 8) + r)))))
    [ 0; 1; 4; 8; 16; 31 ];
  let ok = ref true in
  for lane = 0 to 31 do
    for reg = 0 to 7 do
      if
        out.((lane * 8) + reg)
        <> Kernels.Ldmatrix_demo.expected ~input ~lane ~reg
      then ok := false
    done
  done;
  Format.printf "mapping matches the PTX-prescribed fragment layout: %b@." !ok;
  if not !ok then exit 1
