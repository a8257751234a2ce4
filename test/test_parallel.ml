(* Tests for parallel grid execution and the plan cache:

   - determinism: for every kernel family, [Interp.run_plan] and
     [Interp.run_tree] at domains ∈ {2, 4, 7} must produce counters,
     profiler report JSON, Chrome traces, and output buffers
     bit-identical to the 1-domain run;
   - [Counters.merge] / [Counters.merge_list] sum every field,
     including DRAM sectors, bank conflicts, and the instruction mix
     (broadcasts stay free, conflicts stay counted); [Counters.diff]
     names the first differing field of its set;
   - [Domain_pool.block_ranges] is a contiguous ascending partition;
   - [Pipeline.lower_cached] lowers a kernel structure once across
     scalar-variant launches and never re-resolves atomics on a hit. *)

module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Arch = Graphene.Arch
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic
module C = Gpu_sim.Counters
module Interp = Gpu_sim.Interp
module Profiler = Gpu_sim.Profiler
module Trace = Gpu_sim.Trace
module Domain_pool = Gpu_sim.Domain_pool
module Pipeline = Lower.Pipeline
module Ref = Reference.Cpu_ref

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let check_counters fields name a b =
  Alcotest.(check (option string))
    (name ^ ": counters") None (C.diff fields a b)

(* ----- determinism across domain counts ----- *)

let domain_counts = [ 2; 4; 7 ]

(* Run the kernel at every domain count through both executor paths;
   demand bit-identical counters, profiler report JSON, Chrome traces,
   and output buffers against the 1-domain baseline. *)
let check_domains ?(scalars = []) ?args name arch kernel =
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
  let run_one runner ~domains =
    let args = List.map (fun (n, a) -> (n, Array.copy a)) base_args in
    let trace = Trace.create () in
    let profiler = Profiler.create ~trace () in
    let counters = runner ~profiler ~domains ~args in
    let report = Profiler.report profiler ~kernel ~arch ~counters ~machine () in
    (args, counters, Profiler.report_to_json report, Trace.to_chrome_string trace)
  in
  let plan_path ~profiler ~domains ~args =
    Interp.run_plan ~profiler ~domains plan ~args ~scalars ()
  in
  let tree_path ~profiler ~domains ~args =
    Interp.run_tree ~arch ~profiler ~domains kernel ~args ~scalars ()
  in
  let args1, c1, r1, t1 = run_one plan_path ~domains:1 in
  let compare_against_baseline fields tag (argsn, cn, rn, tn) =
    check_counters fields tag c1 cn;
    check_str (tag ^ ": profiler report JSON") r1 rn;
    check_str (tag ^ ": chrome trace") t1 tn;
    List.iter2
      (fun (bn, x) (_, y) ->
        check_bool (Printf.sprintf "%s: buffer %s bitwise" tag bn) true (x = y))
      args1 argsn
  in
  List.iter
    (fun domains ->
      compare_against_baseline C.All
        (Printf.sprintf "%s: plan @ %d domains" name domains)
        (run_one plan_path ~domains);
      compare_against_baseline C.No_requests
        (Printf.sprintf "%s: tree @ %d domains" name domains)
        (run_one tree_path ~domains))
    domain_counts

let test_par_gemm_tc () =
  (* m, n span several thread blocks (test_config tiles: 64x64 on SM86,
     32x32 on SM70), so 2 and 4 domains genuinely split the grid. *)
  List.iter
    (fun arch ->
      let cfg = Kernels.Gemm.test_config arch in
      let m, n = if arch = Arch.SM70 then (64, 64) else (128, 128) in
      check_domains
        (Printf.sprintf "gemm-tc %s" (Arch.name arch))
        arch
        (Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.none ~m
           ~n ~k:32 ()))
    [ Arch.SM86; Arch.SM70 ]

let test_par_gemm_naive () =
  check_domains "gemm-naive" Arch.SM86
    (Kernels.Gemm.naive ~m:32 ~n:32 ~k:16 ~bm:16 ~bn:16 ~tm:4 ~tn:4 ())

let test_par_gemm_parametric () =
  (* Ragged sizes: partial tiles diverge, and the per-domain slot
     environments must not leak block ids across ranges. *)
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
  check_domains "gemm-parametric" Arch.SM86 kernel ~args
    ~scalars:[ ("M", m); ("N", n); ("K", k) ]

let test_par_fmha () =
  check_domains "fmha sm86" Arch.SM86
    (Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:32 ~dh:16 ~chunk:16
       ~nthreads:64 ());
  check_domains "fmha sm70" Arch.SM70
    (Kernels.Fmha.kernel ~swizzle_smem:false Arch.SM70 ~batch:1 ~heads:1
       ~seq:32 ~dh:32 ~chunk:32 ~nthreads:64 ())

let test_par_reductions () =
  (* 8 row-blocks: with 7 domains the range split is maximally ragged
     (one domain gets two blocks, six get one). *)
  check_domains "layernorm" Arch.SM86
    (Kernels.Layernorm.kernel ~rows:8 ~cols:256 ~nthreads:64 ());
  check_domains "softmax" Arch.SM86
    (Kernels.Softmax.kernel ~rows:8 ~cols:128 ~nthreads:64 ())

let test_par_fused () =
  check_domains "lstm" Arch.SM86
    (Kernels.Lstm.kernel Arch.SM86
       (Kernels.Gemm.test_config Arch.SM86)
       ~m:64 ~n:64 ~k:64 ());
  check_domains "mlp" Arch.SM86
    (Kernels.Mlp.kernel Arch.SM86 ~m:64 ~width:64 ~layers:2 ~bm:64 ~wm:32
       ~wn:32 ());
  check_domains "gemm+layernorm" Arch.SM86
    (Kernels.Gemm_layernorm.kernel Arch.SM86 ~m:64 ~k:32 ~width:64 ~bm:64
       ~wm:32 ~wn:32 ())

(* ----- Counters.merge / merge_list ----- *)

let test_counters_merge () =
  let a = C.create () in
  (* 32 lanes loading 4B each, stride 4: 128 contiguous bytes = 4 DRAM
     sectors. *)
  C.record_global_batch a ~store:false ~bytes:4
    (Array.init 32 (fun i -> 4 * i))
    ~len:32;
  (* stride 128B: every lane hits bank 0 with a distinct word — a
     32-way conflict, 31 extra serialized cycles. *)
  C.record_shared_batch a ~store:true ~bytes:4
    (Array.init 32 (fun i -> 128 * i))
    ~len:32;
  a.C.flops <- 100;
  a.C.tensor_core_flops <- 64;
  C.add_instr a "hmma";
  C.add_instr_n a "lds" 3;
  check_int "a: sectors" 4 a.C.global_transactions;
  check_int "a: conflicts" 31 a.C.shared_bank_conflicts;
  let b = C.create () in
  (* stride 32B stores: 32 lanes over 1024 bytes = 32 sectors. *)
  C.record_global_batch b ~store:true ~bytes:4
    (Array.init 32 (fun i -> 32 * i))
    ~len:32;
  (* broadcast: every lane reads the same word — free, no conflicts. *)
  C.record_shared_batch b ~store:false ~bytes:4
    (Array.init 32 (fun _ -> 64))
    ~len:32;
  b.C.flops <- 7;
  C.add_instr b "lds";
  C.add_instr b "ffma";
  check_int "b: sectors" 32 b.C.global_transactions;
  check_int "b: broadcast is conflict-free" 0 b.C.shared_bank_conflicts;
  let dst = C.create () in
  C.merge dst a;
  C.merge dst b;
  check_int "merge: global_load_bytes" (32 * 4) dst.C.global_load_bytes;
  check_int "merge: global_store_bytes" (32 * 4) dst.C.global_store_bytes;
  check_int "merge: global_transactions" (4 + 32) dst.C.global_transactions;
  check_int "merge: shared_store_bytes" (32 * 4) dst.C.shared_store_bytes;
  check_int "merge: shared_load_bytes" (32 * 4) dst.C.shared_load_bytes;
  check_int "merge: shared_bank_conflicts" 31 dst.C.shared_bank_conflicts;
  check_int "merge: flops" 107 dst.C.flops;
  check_int "merge: tensor_core_flops" 64 dst.C.tensor_core_flops;
  check_int "merge: instructions"
    (a.C.instructions + b.C.instructions)
    dst.C.instructions;
  Alcotest.(check (list (pair string int)))
    "merge: instr mix"
    [ ("ffma", 1); ("hmma", 1); ("lds", 4) ]
    (C.instr_mix_alist dst);
  (* merge_list must equal pairwise merging, in any grouping. *)
  check_counters C.All "merge_list [a; b]" dst (C.merge_list [ a; b ]);
  check_counters C.All "merge_list [b; a]" dst (C.merge_list [ b; a ]);
  check_counters C.All "merge_list []" (C.create ()) (C.merge_list [])

(* [Counters.diff] names the first differing field of its set, then the
   first differing instruction-mix entry. *)
let test_counters_diff () =
  let check_diff name expected fields a b =
    Alcotest.(check (option string)) name expected (C.diff fields a b)
  in
  let a = C.create () and b = C.create () in
  check_diff "fresh counters agree" None C.All a b;
  b.C.global_vec_elems <- 4;
  b.C.async_waits <- 1;
  check_diff "first field by name" (Some "global_vec_elems: 0 vs 4") C.All a
    b;
  check_diff "No_requests skips the vector widths"
    (Some "async_waits: 0 vs 1") C.No_requests a b;
  check_diff "No_queue skips the queue depths"
    (Some "global_vec_elems: 0 vs 4") C.No_queue a b;
  check_diff "No_requests_or_queue skips both" None C.No_requests_or_queue a b;
  b.C.async_copies <- 2;
  check_diff "async_copies is in every set" (Some "async_copies: 0 vs 2")
    C.No_requests_or_queue a b;
  b.C.async_copies <- 0;
  C.add_instr_n a "mma" 3;
  C.add_instr_n b "mma" 2;
  C.add_instr_n b "ldmatrix" 1;
  check_diff "mix entry present on one side"
    (Some "instr_mix[ldmatrix]: absent vs 1") C.No_requests_or_queue a b;
  C.add_instr_n a "ldmatrix" 1;
  check_diff "scalar fields before the mix" (Some "instructions: 4 vs 3")
    C.No_requests_or_queue a b;
  b.C.instructions <- a.C.instructions;
  check_diff "mix count" (Some "instr_mix[mma]: 3 vs 2")
    C.No_requests_or_queue a b

(* ----- Domain_pool.block_ranges ----- *)

let test_block_ranges () =
  Alcotest.(check (list (pair int int)))
    "10 blocks over 4 chunks"
    [ (0, 2); (2, 5); (5, 7); (7, 10) ]
    (Domain_pool.block_ranges ~total:10 ~chunks:4);
  (* more chunks than blocks: clamp to one block per chunk *)
  Alcotest.(check (list (pair int int)))
    "3 blocks over 7 chunks"
    [ (0, 1); (1, 2); (2, 3) ]
    (Domain_pool.block_ranges ~total:3 ~chunks:7);
  Alcotest.(check (list (pair int int)))
    "0 chunks clamps to 1"
    [ (0, 5) ]
    (Domain_pool.block_ranges ~total:5 ~chunks:0);
  (* property: contiguous ascending cover of [0, total) *)
  List.iter
    (fun (total, chunks) ->
      let ranges = Domain_pool.block_ranges ~total ~chunks in
      let last =
        List.fold_left
          (fun prev (lo, hi) ->
            check_int "contiguous" prev lo;
            check_bool "non-empty" true (hi > lo);
            hi)
          0 ranges
      in
      check_int "covers total" total last)
    [ (1, 1); (7, 2); (64, 7); (100, 16) ]

(* ----- plan cache ----- *)

let test_plan_cache () =
  Pipeline.cache_clear ();
  let kernel =
    Kernels.Gemm.naive_parametric ~launch_m:30 ~launch_n:20 ~bm:16 ~bn:16 ~tm:4
      ~tn:4 ()
  in
  let arch = Arch.SM86 in
  let calls0 = !Atomic.find_calls in
  let plan1, hit1 = Pipeline.lower_cached arch kernel in
  let calls_after_lower = !Atomic.find_calls in
  check_bool "first lowering misses" false hit1;
  check_bool "lowering resolves atomics" true (calls_after_lower > calls0);
  let plan2, hit2 = Pipeline.lower_cached arch kernel in
  check_bool "second lowering hits" true hit2;
  check_bool "hit returns the memoized plan" true (plan1 == plan2);
  check_int "hit does not re-resolve atomics" calls_after_lower
    !Atomic.find_calls;
  let stats = Pipeline.cache_stats () in
  check_int "cache hits" 1 stats.Pipeline.hits;
  check_int "cache misses" 1 stats.Pipeline.misses;
  (* Two scalar-variant launches of the same structure: Interp.run must
     reuse the plan (misses stay at 1) yet produce per-variant results
     identical to the reference tree walk. *)
  List.iter
    (fun (m, n, k) ->
      let mk_args () =
        [ ("A", Ref.random_fp16 ~seed:(m + k) (m * k))
        ; ("B", Ref.random_fp16 ~seed:(k + n) (k * n))
        ; ("C", Array.make (m * n) 0.0)
        ]
      in
      let scalars = [ ("M", m); ("N", n); ("K", k) ] in
      let args_run = mk_args () in
      let c_run = Interp.run ~arch kernel ~args:args_run ~scalars () in
      let args_tree = mk_args () in
      let c_tree = Interp.run_tree ~arch kernel ~args:args_tree ~scalars () in
      let tag = Printf.sprintf "cached run %dx%dx%d" m n k in
      check_counters C.No_requests tag c_run c_tree;
      check_bool (tag ^ ": output bitwise") true
        (List.assoc "C" args_run = List.assoc "C" args_tree))
    [ (30, 20, 10); (25, 17, 8) ];
  let stats = Pipeline.cache_stats () in
  check_int "scalar variants share one lowering" 1 stats.Pipeline.misses;
  check_int "every launch after the first hits" 3 stats.Pipeline.hits

let () =
  Alcotest.run "parallel"
    [ ( "determinism"
      , [ Alcotest.test_case "gemm-tc sm86+sm70" `Quick test_par_gemm_tc
        ; Alcotest.test_case "gemm naive" `Quick test_par_gemm_naive
        ; Alcotest.test_case "gemm parametric" `Quick test_par_gemm_parametric
        ; Alcotest.test_case "fmha" `Quick test_par_fmha
        ; Alcotest.test_case "reductions" `Quick test_par_reductions
        ; Alcotest.test_case "fused" `Quick test_par_fused
        ] )
    ; ( "counters"
      , [ Alcotest.test_case "merge / merge_list" `Quick test_counters_merge
        ; Alcotest.test_case "diff" `Quick test_counters_diff
        ] )
    ; ( "domain_pool"
      , [ Alcotest.test_case "block_ranges" `Quick test_block_ranges ] )
    ; ( "plan_cache"
      , [ Alcotest.test_case "lower once, launch many" `Quick test_plan_cache ]
      )
    ]
