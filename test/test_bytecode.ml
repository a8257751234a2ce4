(* Tests for the plan executor ([Interp.run_plan]'s dispatch over the
   compiled op tree):

   - pinned results: both executors against the seeded digests in
     golden/sim_digests.txt (output bits and every counter);
   - an allocation budget: minor words per cell of the tensor-core
     GEMMs at one domain;
   - cross-engine determinism: for every kernel family, both
     [Interp.run_tree] on the plan's kernel and [Interp.run_plan] at
     domains ∈ {1, 4, 7} must produce counters, profiler report JSON,
     Chrome traces, and output buffers bit-identical to the 1-domain
     tree reference;
   - the fixed-seed divergence corpus of test_divergence.ml, driven
     through the executor's preallocated mask arena down to nesting
     depth 3;
   - the arena's size, [Plan.divergence_depth], on hand-built op trees;
   - the [Lower.Bytecode] shim the benchmark harness reads: the
     instruction count is the plan's op count, pinned at the values the
     flattened form had;
   - settings are arguments: the environment variables that once
     steered lowering, the executor and the domain pool change nothing;
   - cost-based chunking: [Domain_pool.cost_chunk_size] bounds and
     monotonicity, [cost_chunks] covering [0, total) ascending. *)

module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Arch = Graphene.Arch
module Spec = Graphene.Spec
module C = Gpu_sim.Counters
module Interp = Gpu_sim.Interp
module Profiler = Gpu_sim.Profiler
module Trace = Gpu_sim.Trace
module Domain_pool = Gpu_sim.Domain_pool
module Plan = Lower.Plan
module Bytecode = Lower.Bytecode
module Pipeline = Lower.Pipeline
module Ref = Reference.Cpu_ref

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let check_counters fields name a b =
  Alcotest.(check (option string))
    (name ^ ": counters") None (C.diff fields a b)

(* ----- cross-engine determinism ----- *)

let domain_counts = [ 1; 4; 7 ]

(* Run the plan through [run_tree] (on [plan.kernel]) and [run_plan] at
   every domain count; demand bit-identical counters, profiler report
   JSON, Chrome traces, and output buffers against the 1-domain tree
   reference. The plan may be vector-widened, so plan runs skip only
   the request counters. *)
let check_engines ?(scalars = []) ?args name arch kernel =
  let base_args =
    match args with
    | Some a -> a
    | None ->
      List.mapi
        (fun i (p : Ts.t) ->
          (p.Ts.name, Ref.random_fp16 ~seed:(i + 1) (L.cosize p.Ts.layout)))
        kernel.Spec.params
  in
  let machine = Gpu_sim.Machine.of_arch arch in
  let plan = Pipeline.lower arch kernel in
  let tree ~profiler ~domains ~args =
    Interp.run_tree ~arch:plan.Plan.arch ~profiler ~domains plan.Plan.kernel
      ~args ~scalars ()
  in
  let plan_run ~profiler ~domains ~args =
    Interp.run_plan ~profiler ~domains plan ~args ~scalars ()
  in
  let run_one runner ~domains =
    let args = List.map (fun (n, a) -> (n, Array.copy a)) base_args in
    let trace = Trace.create () in
    let profiler = Profiler.create ~trace () in
    let counters = runner ~profiler ~domains ~args in
    let report = Profiler.report profiler ~kernel ~arch ~counters ~machine () in
    (args, counters, Profiler.report_to_json report, Trace.to_chrome_string trace)
  in
  let args1, c1, r1, t1 = run_one tree ~domains:1 in
  List.iter
    (fun (ename, runner, fields) ->
      List.iter
        (fun domains ->
          let tag = Printf.sprintf "%s: %s @ %d domains" name ename domains in
          let argsn, cn, rn, tn = run_one runner ~domains in
          check_counters fields tag c1 cn;
          check_str (tag ^ ": profiler report JSON") r1 rn;
          check_str (tag ^ ": chrome trace") t1 tn;
          List.iter2
            (fun (bn, x) (_, y) ->
              check_bool
                (Printf.sprintf "%s: buffer %s bitwise" tag bn)
                true (x = y))
            args1 argsn)
        domain_counts)
    [ ("tree", tree, C.All); ("plan", plan_run, C.No_requests) ]

let test_eng_gemm_tc () =
  List.iter
    (fun arch ->
      let cfg = Kernels.Gemm.test_config arch in
      let m, n = if arch = Arch.SM70 then (64, 64) else (128, 128) in
      check_engines
        (Printf.sprintf "gemm-tc %s" (Arch.name arch))
        arch
        (Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.none ~m
           ~n ~k:32 ()))
    [ Arch.SM86; Arch.SM70 ]

let test_eng_gemm_naive () =
  check_engines "gemm-naive" Arch.SM86
    (Kernels.Gemm.naive ~m:32 ~n:32 ~k:16 ~bm:16 ~bn:16 ~tm:4 ~tn:4 ())

let test_eng_gemm_parametric () =
  let m = 30 and n = 20 and k = 10 in
  let kernel =
    Kernels.Gemm.naive_parametric ~launch_m:m ~launch_n:n ~bm:16 ~bn:16 ~tm:4
      ~tn:4 ()
  in
  let args =
    [ ("A", Ref.random_fp16 ~seed:14 (m * k))
    ; ("B", Ref.random_fp16 ~seed:15 (k * n))
    ; ("C", Array.make (m * n) 0.0)
    ]
  in
  check_engines "gemm-parametric" Arch.SM86 kernel ~args
    ~scalars:[ ("M", m); ("N", n); ("K", k) ]

let test_eng_fmha () =
  check_engines "fmha sm86" Arch.SM86
    (Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:32 ~dh:16 ~chunk:16
       ~nthreads:64 ());
  check_engines "fmha sm70" Arch.SM70
    (Kernels.Fmha.kernel ~swizzle_smem:false Arch.SM70 ~batch:1 ~heads:1
       ~seq:32 ~dh:32 ~chunk:32 ~nthreads:64 ())

let test_eng_reductions () =
  check_engines "layernorm" Arch.SM86
    (Kernels.Layernorm.kernel ~rows:8 ~cols:256 ~nthreads:64 ());
  check_engines "softmax" Arch.SM86
    (Kernels.Softmax.kernel ~rows:8 ~cols:128 ~nthreads:64 ())

let test_eng_fused () =
  check_engines "lstm" Arch.SM86
    (Kernels.Lstm.kernel Arch.SM86
       (Kernels.Gemm.test_config Arch.SM86)
       ~m:64 ~n:64 ~k:64 ());
  check_engines "mlp" Arch.SM86
    (Kernels.Mlp.kernel Arch.SM86 ~m:64 ~width:64 ~layers:2 ~bm:64 ~wm:32
       ~wn:32 ());
  check_engines "gemm+layernorm" Arch.SM86
    (Kernels.Gemm_layernorm.kernel Arch.SM86 ~m:64 ~k:32 ~width:64 ~bm:64
       ~wm:32 ~wn:32 ())

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

   Minor-heap words per simulated cell (m * n * k) of one launch at one
   domain, after a warm-up launch has grown the domain's scratch
   buffers. The count is deterministic, so a float boxed again on the
   hot path fails here without timing anything. Each ceiling is the
   value measured when it was set, plus 25%. *)

let alloc_budgets =
  [ (Arch.SM86, 3, 64 * 64 * 128, 0.84) (* measured 0.670 *)
  ; (Arch.SM70, 1, 32 * 32 * 128, 2.41) (* measured 1.924 *)
  ]

let test_alloc_budget () =
  List.iter
    (fun (arch, stages, cells, ceiling) ->
      (* The gemm-tc preset: 64x64x128 on sm86, 32x32x128 on sm70. *)
      let kernel, args, _ = Experiments.Presets.build arch "gemm-tc" in
      let plan = Pipeline.lower ~stages arch kernel in
      let launch () = ignore (Interp.run_plan ~domains:1 plan ~args ()) in
      launch ();
      let w0 = Gc.minor_words () in
      launch ();
      let per_cell = (Gc.minor_words () -. w0) /. float_of_int cells in
      check_bool
        (Printf.sprintf "gemm-tc %s, %d stage(s): %.3f minor words/cell <= %.2f"
           (Arch.name arch) stages per_cell ceiling)
        true (per_cell <= ceiling))
    alloc_budgets

(* ----- divergence corpus through the plan executor ----- *)

let cta_size = 64
let grid_blocks = 2

(* Same generator shape as test_divergence.ml (fixed seed, tid-dependent
   branches and loops, per-thread stores into the block's slice), driven
   here through the plan executor's preallocated divergence-mask arena
   at 1 and 4 domains, against the tree reference. *)
let gen_kernel rng idx =
  let grid = Tt.grid "g" [ grid_blocks ] in
  let cta = Tt.linear "cta" cta_size Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let a = Ts.create_rm "A" [ grid_blocks * cta_size ] Dt.FP32 Ms.Global in
  let block_base = E.mul B.block_idx (E.const cta_size) in
  let fresh =
    let n = ref 0 in
    fun prefix ->
      incr n;
      Printf.sprintf "%s%d" prefix !n
  in
  let value () = float_of_int (1 + Random.State.int rng 9) in
  let leaf ?rot () =
    let cell =
      match rot with
      | None -> E.add block_base tid
      | Some kv ->
        E.add block_base (E.rem (E.add tid kv) (E.const cta_size))
    in
    B.init ~threads:thr (value ()) ~dst:(Ts.select a [ cell ]) ()
  in
  let cond () =
    match Random.State.int rng 4 with
    | 0 -> B.( <. ) tid (E.const (1 + Random.State.int rng (cta_size - 1)))
    | 1 ->
      B.( ==. )
        (E.rem tid (E.const (2 + Random.State.int rng 6)))
        E.zero
    | 2 -> B.( <=. ) (E.const (Random.State.int rng cta_size)) tid
    | _ ->
      B.( &&. )
        (B.( <. ) tid (E.const (8 + Random.State.int rng 48)))
        (B.( ==. ) (E.rem tid (E.const 2)) E.zero)
  in
  let rec block depth rot =
    List.init
      (1 + Random.State.int rng 2)
      (fun _ -> stmt depth rot)
  and stmt depth rot =
    match (if depth >= 3 then 0 else Random.State.int rng 5) with
    | 0 | 4 -> leaf ?rot ()
    | 1 -> B.if_ (cond ()) (block (depth + 1) rot)
    | 2 -> B.if_else (cond ()) (block (depth + 1) rot) (block (depth + 1) rot)
    | _ ->
      B.for_ (fresh "k")
        (E.const (1 + Random.State.int rng 3))
        (fun kv -> block (depth + 1) (Some kv))
  in
  B.kernel
    (Printf.sprintf "bc_divergence_%d" idx)
    ~grid ~cta ~params:[ a ]
    (block 0 None @ [ leaf () ])

let check_divergent_kernel name arch kernel plan =
  let machine = Gpu_sim.Machine.of_arch arch in
  let run_one runner ~domains =
    let args = [ ("A", Array.make (grid_blocks * cta_size) 0.0) ] in
    let trace = Trace.create () in
    let profiler = Profiler.create ~trace () in
    let counters = runner ~profiler ~domains ~args in
    let report = Profiler.report profiler ~kernel ~arch ~counters ~machine () in
    ( args
    , counters
    , Profiler.report_to_json report
    , Trace.to_chrome_string trace )
  in
  let tree ~profiler ~domains ~args =
    Interp.run_tree ~arch ~profiler ~domains kernel ~args ()
  in
  let plan_run ~profiler ~domains ~args =
    Interp.run_plan ~profiler ~domains plan ~args ()
  in
  let args0, c0, r0, t0 = run_one tree ~domains:1 in
  List.iter
    (fun domains ->
      let tag = Printf.sprintf "%s: plan @ %d domains" name domains in
      let argsn, cn, rn, tn = run_one plan_run ~domains in
      check_counters C.No_requests tag c0 cn;
      check_str (tag ^ ": profiler report JSON") r0 rn;
      check_str (tag ^ ": chrome trace") t0 tn;
      List.iter2
        (fun (bn, x) (_, y) ->
          check_bool (Printf.sprintf "%s: buffer %s bitwise" tag bn) true
            (x = y))
        args0 argsn)
    [ 1; 4 ]

let test_plan_divergence_corpus () =
  let rng = Random.State.make [| 0x9e3779b9; 42 |] in
  let saw_divergence = ref false and max_depth = ref 0 in
  for idx = 0 to 11 do
    let kernel = gen_kernel rng idx in
    let plan = Pipeline.lower Arch.SM86 kernel in
    let depth = Plan.divergence_depth plan.Plan.body in
    if depth > 0 then saw_divergence := true;
    max_depth := max !max_depth depth;
    check_divergent_kernel kernel.Spec.name Arch.SM86 kernel plan
  done;
  check_bool "corpus contains divergent kernels" true !saw_divergence;
  (* The generator nests at most three branches; the corpus must reach
     that depth, where the arena reuses a mask pair per level. *)
  check_int "corpus reaches divergent nesting depth 3" 3 !max_depth

(* [Plan.divergence_depth] sizes the executor's mask arena: it counts
   thread-dependent branches only, takes the deeper arm and the deepest
   sibling, and sees through loops and frames. *)
let test_divergence_depth () =
  let branch tid_dep b_then b_else =
    Plan.Branch
      { b_tid_dep = tid_dep; b_cond = (fun _ -> true); b_then; b_else }
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
  let args =
    List.mapi
      (fun i (p : Ts.t) ->
        (p.Ts.name, Ref.random_fp16 ~seed:(i + 1) (L.cosize p.Ts.layout)))
      kernel.Spec.params
  in
  let counters = Interp.run_plan plan ~args () in
  check_bool "run_plan executes the plan (vector requests booked)" true
    (counters.C.global_vec_requests > 0);
  check_int "default domains is the recommended count"
    (Domain.recommended_domain_count ())
    (Domain_pool.default_domains ())

(* ----- cost-based chunking ----- *)

let test_cost_chunk_size () =
  let grid =
    [ (0, 1, 0); (1, 1, 1); (64, 1, 1_000); (64, 4, 1_000)
    ; (64, 4, 2_000_000); (1024, 8, 50_000); (1024, 8, 10_000_000)
    ; (7, 31, 123_456); (100_000, 2, 1)
    ]
  in
  List.iter
    (fun (total, domains, block_ns) ->
      let c = Domain_pool.cost_chunk_size ~total ~domains ~block_ns in
      let tag = Printf.sprintf "total=%d domains=%d ns=%d" total domains block_ns in
      check_bool (tag ^ ": >= 1") true (c >= 1);
      check_bool (tag ^ ": <= max 1 total") true (c <= max 1 total);
      (* monotone nonincreasing in block_ns *)
      check_bool (tag ^ ": costlier blocks never widen chunks") true
        (Domain_pool.cost_chunk_size ~total ~domains ~block_ns:(block_ns * 10)
        <= c);
      (* monotone nonincreasing in domains *)
      check_bool (tag ^ ": more domains never widen chunks") true
        (Domain_pool.cost_chunk_size ~total ~domains:(domains + 1) ~block_ns
        <= c))
    grid;
  (* Expensive blocks schedule one at a time; free blocks still balance
     (>= ~4 chunks per domain). *)
  check_int "2ms blocks -> singleton chunks" 1
    (Domain_pool.cost_chunk_size ~total:64 ~domains:2 ~block_ns:2_000_000);
  check_bool "zero-cost blocks still split for balance" true
    (Domain_pool.cost_chunk_size ~total:1024 ~domains:4 ~block_ns:0
    <= 1024 / (4 * 4))

let test_cost_chunks () =
  check_bool "total=0 is empty" true
    (Domain_pool.cost_chunks ~total:0 ~domains:4 ~block_ns:100 = []);
  check_bool "total<0 is empty" true
    (Domain_pool.cost_chunks ~total:(-3) ~domains:4 ~block_ns:100 = []);
  List.iter
    (fun (total, domains, block_ns) ->
      let tag = Printf.sprintf "total=%d domains=%d ns=%d" total domains block_ns in
      let chunks = Domain_pool.cost_chunks ~total ~domains ~block_ns in
      let size = Domain_pool.cost_chunk_size ~total ~domains ~block_ns in
      let last =
        List.fold_left
          (fun prev (lo, hi) ->
            check_int (tag ^ ": contiguous") prev lo;
            check_bool (tag ^ ": non-empty") true (hi > lo);
            check_bool (tag ^ ": chunk-sized") true (hi - lo <= size);
            hi)
          0 chunks
      in
      check_int (tag ^ ": covers total") total last;
      (* every chunk except the last is exactly [size] *)
      let rec full = function
        | [] | [ _ ] -> ()
        | (lo, hi) :: rest ->
          check_int (tag ^ ": full chunk") size (hi - lo);
          full rest
      in
      full chunks)
    [ (1, 1, 0); (7, 2, 1_000); (64, 4, 100_000); (100, 16, 2_000_000)
    ; (1024, 8, 12_345)
    ]

let () =
  Alcotest.run "bytecode"
    [ ( "determinism"
      , [ Alcotest.test_case "gemm-tc sm86+sm70" `Quick test_eng_gemm_tc
        ; Alcotest.test_case "gemm naive" `Quick test_eng_gemm_naive
        ; Alcotest.test_case "gemm parametric" `Quick test_eng_gemm_parametric
        ; Alcotest.test_case "fmha" `Quick test_eng_fmha
        ; Alcotest.test_case "reductions" `Quick test_eng_reductions
        ; Alcotest.test_case "fused" `Quick test_eng_fused
        ] )
    ; ( "golden"
      , [ Alcotest.test_case "sim digests, plan and tree" `Quick
            test_sim_digests
        ] )
    ; ( "allocation"
      , [ Alcotest.test_case "minor words per cell" `Quick test_alloc_budget ]
      )
    ; ( "divergence"
      , [ Alcotest.test_case "fixed-seed corpus via bytecode" `Quick
            test_plan_divergence_corpus
        ; Alcotest.test_case "mask arena depth" `Quick test_divergence_depth
        ] )
    ; ( "benchmark shim"
      , [ Alcotest.test_case "instruction count is the op count" `Quick
            test_instruction_count_shim
        ] )
    ; ( "settings"
      , [ Alcotest.test_case "environment is ignored" `Quick
            test_settings_are_arguments
        ] )
    ; ( "chunking"
      , [ Alcotest.test_case "cost_chunk_size" `Quick test_cost_chunk_size
        ; Alcotest.test_case "cost_chunks" `Quick test_cost_chunks
        ] )
    ]
