(* The generated-CUDA goldens: five kernels' full listings, and one digest
   line per kernel of a corpus that covers every kernel-building function,
   so any change to what one of them emits shows up as a named diff. *)

module Arch = Graphene.Arch
module Gemm = Kernels.Gemm
module Epi = Kernels.Epilogue

let listings =
  let tc ?dtype arch epilogue ~m ~n ~k () =
    Gemm.tensor_core ?dtype arch (Gemm.test_config arch) ~epilogue ~m ~n ~k ()
  in
  [ ( "fig8_sm86.cu"
    , Arch.SM86
    , fun () ->
        Gemm.naive ~m:1024 ~n:1024 ~k:1024 ~bm:128 ~bn:128 ~tm:8 ~tn:8 () )
  ; ("ldmatrix_sm86.cu", Arch.SM86, fun () -> Kernels.Ldmatrix_demo.kernel ())
  ; ("gemm_tc_sm86.cu", Arch.SM86, tc Arch.SM86 Epi.bias_relu ~m:64 ~n:64 ~k:32)
  ; ( "gemm_tc_bf16_sm86.cu"
    , Arch.SM86
    , tc ~dtype:Gpu_tensor.Dtype.BF16 Arch.SM86 Epi.none ~m:64 ~n:64 ~k:64 )
  ; ("gemm_tc_sm70.cu", Arch.SM70, tc Arch.SM70 Epi.bias_relu ~m:32 ~n:32 ~k:32)
  ]

(* Every [count]-th candidate of a search space, from a seeded offset. *)
let sample ~seed ~count (sp : Tuner.Search.space) =
  let cands = sp.enumerate () in
  let stride = max 1 (List.length cands / count) in
  let first = Random.State.int (Random.State.make [| seed |]) stride in
  let picked j = j >= first && (j - first) mod stride = 0 in
  List.filteri (fun j _ -> picked j && j - first < count * stride) cands
  |> List.map (fun (c : Tuner.Search.candidate) ->
         let knobs = List.map (fun (k, v) -> k ^ "=" ^ v) c.knobs in
         ( Printf.sprintf "search/%s/%s/%s/#%d/%s" sp.space_name
             (Arch.name sp.arch) sp.problem c.id (String.concat "," knobs)
         , sp.arch
         , c.build ))

let corpus () =
  let per_arch arch =
    let a = Arch.name arch in
    let test = Gemm.test_config arch and d = Gemm.default_config arch in
    let gemm (cname, cfg) epilogue (m, n, k) =
      ( Printf.sprintf "tensor_core/%s/%s/%s/%dx%dx%d" a cname
          (Epi.name epilogue) m n k
      , arch
      , fun () -> Gemm.tensor_core arch cfg ~epilogue ~m ~n ~k () )
    in
    (* Swizzle-off: a transposed operand stages unswizzled regardless. *)
    let orientation (ta, tb) =
      ( Printf.sprintf "orientation/%s/ta=%b/tb=%b" a ta tb
      , arch
      , fun () ->
          Gemm.tensor_core ~name:"gemm_layouts" ~ta ~tb arch
            { test with swizzle = false } ~epilogue:Epi.none ~m:128 ~n:128
            ~k:64 () )
    in
    let fmha ~swizzle_smem ~causal =
      let dh, chunk = if arch = Arch.SM70 then (32, 32) else (32, 16) in
      ( Printf.sprintf "fmha/%s/swizzle=%b/causal=%b" a swizzle_smem causal
      , arch
      , fun () ->
          Kernels.Fmha.kernel ~swizzle_smem ~causal arch ~batch:2 ~heads:2
            ~seq:64 ~dh ~chunk ~nthreads:64 () )
    in
    let split_k () =
      Gemm.split_k arch test ~epilogue:Epi.bias_relu ~splits:2 ~m:128 ~n:128
        ~k:128 ()
    in
    List.concat_map
      (fun cfg ->
        List.concat_map
          (fun epilogue ->
            List.map (gemm cfg epilogue)
              [ (128, 128, 32); (256, 128, 64); (128, 256, 128) ])
          (* [Epi.none] and the Figure 10 epilogues *)
          [ Epi.none; Epi.bias; Epi.relu; Epi.bias_relu; Epi.bias_gelu ])
      [ ("test", test)
      ; ("default", d)
      ; ("swizzle-off", { d with swizzle = false })
      ; ("ldmatrix-off", { d with use_ldmatrix = false })
      ; ("cp.async-off", { d with use_cp_async = false })
      ]
    @ List.map orientation
        [ (false, false); (true, false); (false, true); (true, true) ]
    @ List.map
        (fun (label, build) -> (label ^ "/" ^ a, arch, build))
        [ ( "bf16"
          , fun () ->
              Gemm.tensor_core ~dtype:Gpu_tensor.Dtype.BF16 arch test
                ~epilogue:Epi.none ~m:128 ~n:128 ~k:64 () )
        ; ( "batched"
          , fun () ->
              Gemm.tensor_core ~batch:3 arch test ~epilogue:Epi.bias_relu
                ~m:128 ~n:128 ~k:64 () )
        ; ("split_k/partial", fun () -> fst (split_k ()))
        ; ("split_k/reduce", fun () -> snd (split_k ()))
        ; ( "lstm/test"
          , fun () -> Kernels.Lstm.kernel arch test ~m:128 ~n:128 ~k:64 () )
        ; ( "lstm/default"
          , fun () -> Kernels.Lstm.kernel arch d ~m:256 ~n:256 ~k:128 () )
        ; ( "mlp"
          , fun () ->
              Kernels.Mlp.kernel arch ~m:128 ~width:64 ~layers:3 ~bm:64 ~wm:32
                ~wn:32 () )
        ; ( "gemm_layernorm"
          , fun () ->
              Kernels.Gemm_layernorm.kernel arch ~m:128 ~k:64 ~width:64 ~bm:64
                ~wm:32 ~wn:32 () )
        ]
    @ [ fmha ~swizzle_smem:true ~causal:false
      ; fmha ~swizzle_smem:false ~causal:false
      ; fmha ~swizzle_smem:true ~causal:true
      ]
    @ List.map
        (fun name ->
          ( Printf.sprintf "preset/%s/%s" name a
          , arch
          , fun () ->
              let kernel, _, _ = Presets.build arch name in
              kernel ))
        Presets.names
    @ sample ~seed:42 ~count:12
        (Tuner.Search.gemm_space arch ~m:256 ~n:256 ~k:128 ())
    @ sample ~seed:42 ~count:12 (Tuner.Search.fmha_space arch ~seq:64 ~dh:32 ())
  in
  List.concat_map per_arch Arch.all

let line (label, arch, build) =
  match Codegen.Emit.cuda arch (build ()) with
  | cuda -> label ^ " " ^ Digest.to_hex (Digest.string cuda)
  | exception e -> label ^ " error: " ^ Printexc.to_string e

let lines () = List.map line (corpus ())
