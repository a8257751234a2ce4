(* Tests for the plan executor ([Interp.run_plan]'s dispatch over the
   compiled op tree; its determinism against [Interp.run_tree] over every
   kernel family is the matrix of corpus.ml, run by test_equivalence):

   - pinned results: both executors against the seeded digests in
     golden/sim_digests.txt (output bits and every counter);
   - an allocation budget: minor words per cell at one domain of the
     tensor-core GEMMs, the FMHA presets and the serving engine's FFN
     kernel;
   - the divergence mask arena's size, [Plan.divergence_depth], on
     hand-built op trees;
   - the [Lower.Bytecode] shim the benchmark harness reads: the
     instruction count is the plan's op count, pinned at the values the
     flattened form had;
   - settings are arguments: the environment variables that once
     steered lowering, the executor and the domain pool change nothing. *)

module Arch = Graphene.Arch
module C = Gpu_sim.Counters
module Interp = Gpu_sim.Interp
module Domain_pool = Gpu_sim.Domain_pool
module Plan = Lower.Plan
module Bytecode = Lower.Bytecode
module Pipeline = Lower.Pipeline

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ----- pinned results -----

   Both executors call the same instruction bodies, so comparing them
   with each other cannot catch a wrong body. The committed digests pin
   what each executor produced — output bits and every counter — when
   they were generated ([make golden]). *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

let test_sim_digests () =
  let expected = read_lines "golden/sim_digests.txt" in
  let actual = Experiments.Sim_digest.lines () in
  check_int "one line per case and executor" (List.length expected)
    (List.length actual);
  List.iter2
    (fun e a ->
      let tag =
        match String.split_on_char ' ' e with
        | case :: engine :: _ -> case ^ " " ^ engine
        | _ -> e
      in
      check_str tag e a)
    expected actual

(* ----- allocation budget -----

   Minor-heap words per simulated cell (m * n * k of a GEMM; flops / 2
   of an FMHA, as the serving engine counts them) of one launch at one
   domain, after a warm-up launch has grown the domain's scratch
   buffers. The count is deterministic, so a float boxed again on the
   hot path fails here without timing anything. Each ceiling is the
   value measured when it was set, plus 25%. *)

(* One launch of a CLI preset: the gemm-tc presets are 64x64x128 on
   sm86 and 32x32x128 on sm70; the fmha presets are one head of 32
   queries, dh 16 on sm86 and dh 32 on sm70. *)
let preset name arch () =
  let kernel, args, _ = Experiments.Presets.build arch name in
  (kernel, args, [])

let fmha_cells ~dh = Kernels.Fmha.flop_count ~batch:1 ~heads:1 ~seq:32 ~dh / 2

(* The serving engine's FFN kernel for a 29x48x24 request: the
   parametric naive GEMM on its covering 32x64 launch grid. *)
let ffn () =
  let m, n, k = (29, 48, 24) in
  ( Kernels.Gemm.naive_parametric ~launch_m:32 ~launch_n:64 ~bm:16 ~bn:16 ~tm:4
      ~tn:4 ()
  , [ ("A", Reference.Cpu_ref.random_fp16 ~seed:1 (m * k))
    ; ("B", Reference.Cpu_ref.random_fp16 ~seed:2 (k * n))
    ; ("C", Array.make (m * n) 0.0)
    ]
  , [ ("M", m); ("N", n); ("K", k) ] )

(* [(label, arch, stages, launch inputs, cells, ceiling)] *)
let alloc_budgets =
  [ ("gemm-tc", Arch.SM86, 3, preset "gemm-tc" Arch.SM86, 64 * 64 * 128, 0.77)
    (* measured 0.615 *)
  ; ("gemm-tc", Arch.SM70, 1, preset "gemm-tc" Arch.SM70, 32 * 32 * 128, 1.40)
    (* measured 1.120 *)
  ; ("fmha", Arch.SM86, 1, preset "fmha" Arch.SM86, fmha_cells ~dh:16, 9.64)
    (* measured 7.714 *)
  ; ("fmha", Arch.SM70, 1, preset "fmha" Arch.SM70, fmha_cells ~dh:32, 4.60)
    (* measured 3.683 *)
  ; ("ffn 29x48x24", Arch.SM86, 1, ffn, 29 * 48 * 24, 16.36)
    (* measured 13.089 *)
  ]

let test_alloc_budget () =
  List.iter
    (fun (label, arch, stages, inputs, cells, ceiling) ->
      let kernel, args, scalars = inputs () in
      let plan = Pipeline.lower ~stages arch kernel in
      let launch () =
        ignore (Interp.run_plan ~domains:1 plan ~args ~scalars ())
      in
      launch ();
      let w0 = Gc.minor_words () in
      launch ();
      let per_cell = (Gc.minor_words () -. w0) /. float_of_int cells in
      check_bool
        (Printf.sprintf "%s %s, %d stage(s): %.3f minor words/cell <= %.2f"
           label (Arch.name arch) stages per_cell ceiling)
        true (per_cell <= ceiling))
    alloc_budgets

(* ----- the divergence mask arena ----- *)

(* [Plan.divergence_depth] sizes the executor's mask arena: it counts
   thread-dependent branches only, takes the deeper arm and the deepest
   sibling, and sees through loops and frames. *)
let test_divergence_depth () =
  let guard =
    Lower.Expr_comp.compile_guard
      (Lower.Expr_comp.registry ())
      (Lower.Slots.create ()) Lower.Slots.base_scope
      (Graphene.Spec.Cmp
         (Graphene.Spec.Lt, Shape.Int_expr.var "threadIdx.x", Shape.Int_expr.one))
  in
  let branch tid_dep b_then b_else =
    Plan.Branch
      { b_cond = (fun _ -> true)
      ; b_guard = (if tid_dep then Some guard else None)
      ; b_then
      ; b_else
      }
  in
  let loop l_body =
    Plan.Loop
      { l_var = "k"
      ; l_slot = 0
      ; l_lo = (fun _ -> 0)
      ; l_hi = (fun _ -> 1)
      ; l_step = (fun _ -> 1)
      ; l_body
      }
  in
  let frame f_body = Plan.Frame { f_label = "f"; f_body } in
  List.iter
    (fun (name, expected, ops) ->
      check_int name expected (Plan.divergence_depth ops))
    [ ("empty", 0, [])
    ; ( "straight line"
      , 0
      , [ Plan.Barrier; Plan.Commit_group; Plan.Wait_group 0; Plan.Fail "x" ]
      )
    ; ("uniform branch", 0, [ branch false [ branch false [] [] ] [] ])
    ; ("one divergent branch", 1, [ branch true [] [] ])
    ; ("uniform inside divergent", 1, [ branch true [ branch false [] [] ] [] ])
    ; ("deeper else arm", 2, [ branch true [] [ branch true [] [] ] ])
    ; ( "deepest sibling"
      , 2
      , [ branch true [] []; branch true [ branch true [] [] ] []; Plan.Barrier ]
      )
    ; ( "through loops and frames"
      , 3
      , [ frame
            [ loop
                [ branch true
                    [ frame
                        [ branch false
                            [ loop [ branch true [ branch true [] [] ] [] ] ]
                            []
                        ]
                    ]
                    []
                ]
            ]
        ]
      )
    ]

(* ----- the benchmark harness's instruction count ----- *)

(* perfbench reports [lower.bytecode_instrs] through [Lower.Bytecode]:
   the plan itself and its op count, which equals the instruction count
   of the flattened form plans once had (one instruction per op), so the
   reported figure carries over. *)
let test_instruction_count_shim () =
  List.iter
    (fun (name, arch, kernel, expected) ->
      let plan = Pipeline.lower arch kernel in
      check_bool (name ^ ": get is the plan") true (Bytecode.get plan == plan);
      check_int (name ^ ": instruction count is the op count")
        (Plan.count_ops plan.Plan.body)
        (Bytecode.instruction_count plan);
      check_int (name ^ ": pinned instruction count") expected
        (Bytecode.instruction_count plan))
    [ ( "gemm-tc sm86"
      , Arch.SM86
      , Kernels.Gemm.tensor_core Arch.SM86
          (Kernels.Gemm.test_config Arch.SM86)
          ~epilogue:Kernels.Epilogue.none ~m:128 ~n:128 ~k:32 ()
      , 23 )
    ; ( "gemm-tc sm70"
      , Arch.SM70
      , Kernels.Gemm.tensor_core Arch.SM70
          (Kernels.Gemm.test_config Arch.SM70)
          ~epilogue:Kernels.Epilogue.none ~m:128 ~n:128 ~k:32 ()
      , 24 )
    ; ( "fmha sm86"
      , Arch.SM86
      , Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:32 ~dh:16
          ~chunk:16 ~nthreads:64 ()
      , 68 )
    ]

(* ----- settings are arguments ----- *)

(* Lowering, the executor and the domain pool once read
   GRAPHENE_SWPIPE_STAGES, GRAPHENE_SIM_ENGINE and GRAPHENE_SIM_DOMAINS.
   With all three set, every default must still be the argument default:
   1 pipeline stage, the plan executor (which books vector requests
   that the scalar tree walk never issues), and the machine's
   recommended domain count. *)
let test_settings_are_arguments () =
  Unix.putenv "GRAPHENE_SIM_ENGINE" "tree";
  Unix.putenv "GRAPHENE_SWPIPE_STAGES" "3";
  Unix.putenv "GRAPHENE_SIM_DOMAINS" "1";
  let kernel =
    Kernels.Gemm.tensor_core Arch.SM86
      (Kernels.Gemm.test_config Arch.SM86)
      ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:128 ()
  in
  let plan = Pipeline.lower Arch.SM86 kernel in
  check_int "lower defaults to 1 stage" 1
    plan.Plan.pipelining.Plan.pl_stages;
  let counters = Interp.run_plan plan ~args:(Corpus.seeded_inputs kernel) () in
  check_bool "run_plan executes the plan (vector requests booked)" true
    (counters.C.global_vec_requests > 0);
  check_int "default domains is the recommended count"
    (Domain.recommended_domain_count ())
    (Domain_pool.default_domains ())

let () =
  Alcotest.run "bytecode"
    [ ( "golden"
      , [ Alcotest.test_case "sim digests, plan and tree" `Quick
            test_sim_digests
        ] )
    ; ( "allocation"
      , [ Alcotest.test_case "minor words per cell" `Quick test_alloc_budget ]
      )
    ; ( "divergence"
      , [ Alcotest.test_case "mask arena depth" `Quick test_divergence_depth ]
      )
    ; ( "benchmark shim"
      , [ Alcotest.test_case "instruction count is the op count" `Quick
            test_instruction_count_shim
        ] )
    ; ( "settings"
      , [ Alcotest.test_case "environment is ignored" `Quick
            test_settings_are_arguments
        ] )
    ]
