(* Tests for parallel grid execution and the plan cache (determinism
   across domain counts, for every kernel family, is the matrix of
   corpus.ml, run by test_equivalence):

   - [Counters.merge] sums every field,
     including DRAM sectors, bank conflicts, and the instruction mix
     (broadcasts stay free, conflicts stay counted); [Counters.diff]
     names the first differing field of its set;
   - [Domain_pool.block_ranges] is a contiguous ascending partition,
     [Domain_pool.run_list] re-raises the lowest failing task's own
     exception, and [Domain_pool.run_ordered] folds every index once, in
     order, never more than [width] at work, and re-raises the lowest
     failing index's exception;
   - a grid whose blocks fault raises the lowest failing block's fault
     on both executors at every domain count, also when several block
     ranges fail;
   - [Pipeline.lower_cached] lowers a kernel structure once across
     scalar-variant launches and never re-resolves atomics on a hit. *)

module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Arch = Graphene.Arch
module Atomic = Graphene.Atomic
module C = Gpu_sim.Counters
module Interp = Gpu_sim.Interp
module Domain_pool = Gpu_sim.Domain_pool
module Pipeline = Lower.Pipeline
module Ref = Reference.Cpu_ref

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- Counters.merge ----- *)

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
    (C.instr_mix_alist dst)

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

(* ----- Domain_pool.run_list failures ----- *)

exception Task_a
exception Task_b

(* A failing batch re-raises its lowest-index task's own exception, as a
   one-task batch does, after every task has run: callers such as
   [Search.fan_out] and grid runs see the same exception at every
   domain count. *)
let test_run_list_raises () =
  let pool = Domain_pool.global () in
  let ran = Stdlib.Atomic.make 0 in
  let task r () =
    Stdlib.Atomic.incr ran;
    match r with Some e -> raise e | None -> 0
  in
  let outcome thunks =
    Stdlib.Atomic.set ran 0;
    match Domain_pool.run_list pool thunks with
    | _ -> "no exception"
    | exception Task_a -> "Task_a"
    | exception e -> Printexc.to_string e
  in
  Alcotest.(check string) "one task" "Task_a" (outcome [ task (Some Task_a) ]);
  Alcotest.(check string)
    "[ok; raise A; raise B]" "Task_a"
    (outcome [ task None; task (Some Task_a); task (Some Task_b) ]);
  check_int "every task ran" 3 (Stdlib.Atomic.get ran);
  Alcotest.(check (list int))
    "the pool still runs batches" [ 0; 0 ]
    (Domain_pool.run_list pool [ task None; task None ])

(* ----- Domain_pool.run_ordered ----- *)

exception Slow_failure
exception Fast_failure
exception Fold_failure

(* Every third index costs 4 ms and the rest 0.2 ms, so above width 1
   later indices finish before earlier ones and wait for the fold. *)
let test_run_ordered () =
  let pool = Domain_pool.global () in
  let n = 24 in
  List.iter
    (fun width ->
      let running = Stdlib.Atomic.make 0 and peak = Stdlib.Atomic.make 0 in
      let work i =
        let now = Stdlib.Atomic.fetch_and_add running 1 + 1 in
        let rec raise_peak () =
          let p = Stdlib.Atomic.get peak in
          if now > p && not (Stdlib.Atomic.compare_and_set peak p now) then
            raise_peak ()
        in
        raise_peak ();
        Unix.sleepf (if i mod 3 = 0 then 0.004 else 0.0002);
        Stdlib.Atomic.decr running;
        i * i
      in
      let folded = ref [] in
      Domain_pool.run_ordered pool ~width ~n work ~fold:(fun i v ->
          folded := (i, v) :: !folded);
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "width %d: each index once, ascending" width)
        (List.init n (fun i -> (i, i * i)))
        (List.rev !folded);
      check_bool
        (Printf.sprintf "width %d: at most %d tasks at once" width width)
        true
        (Stdlib.Atomic.get peak <= width))
    [ 1; 2; 7 ]

(* Index 3 fails after 20 ms and index 5 at once, so above width 1 the
   higher index fails first; index 3's exception is still the one
   raised, and the fold stops before it. A failing fold counts as its
   index failing. *)
let test_run_ordered_raises () =
  let pool = Domain_pool.global () in
  let outcome f =
    match f () with
    | () -> "no exception"
    | exception Slow_failure -> "Slow_failure"
    | exception Fast_failure -> "Fast_failure"
    | exception Fold_failure -> "Fold_failure"
    | exception e -> Printexc.to_string e
  in
  List.iter
    (fun width ->
      let folded = ref [] in
      let work i =
        if i = 3 then begin
          Unix.sleepf 0.02;
          raise Slow_failure
        end
        else if i = 5 then raise Fast_failure
        else i
      in
      Alcotest.(check string)
        (Printf.sprintf "width %d: lowest failing index's exception" width)
        "Slow_failure"
        (outcome (fun () ->
             Domain_pool.run_ordered pool ~width ~n:8 work ~fold:(fun i _ ->
                 folded := i :: !folded)));
      Alcotest.(check (list int))
        (Printf.sprintf "width %d: fold stops before it" width)
        [ 0; 1; 2 ] (List.rev !folded);
      Alcotest.(check string)
        (Printf.sprintf "width %d: a failing fold" width)
        "Fold_failure"
        (outcome (fun () ->
             Domain_pool.run_ordered pool ~width ~n:8 work ~fold:(fun i _ ->
                 if i = 1 then raise Fold_failure))))
    [ 1; 2; 7 ]

(* ----- faulting grids ----- *)

(* 8 blocks of 32 threads each store their 32 cells of C; blocks 1 and
   3 store 1000 and 2000 cells past theirs, out of bounds. Lane 0 faults
   first in each, at offsets 1032 and 2096. At 4 and 7 domains the two
   blocks sit in different block ranges, so two ranges fail; every
   domain count must raise block 1's fault, the one a sequential run
   hits first. *)
let test_lowest_block_fault () =
  let grid = Tt.grid "g" [ 8 ] in
  let cta = Tt.cta "cta" [ 32 ] in
  let tid = B.thread_idx and bid = B.block_idx in
  let thr = Tt.select cta [ tid ] in
  let c = Ts.create_rm "C" [ 256 ] Dt.FP32 Ms.Global in
  let r = Ts.create "r" (L.vector 1) Dt.FP32 Ms.Register in
  (* 1 when [bid] is [b], else 0, for bid in [0, 8). *)
  let is b =
    E.sub
      (E.div (E.add bid (E.const (8 - b))) (E.const 8))
      (E.div (E.add bid (E.const (7 - b))) (E.const 8))
  in
  let offset =
    E.add
      (E.add (E.mul bid (E.const 32)) tid)
      (E.add (E.mul (E.const 1000) (is 1)) (E.mul (E.const 2000) (is 3)))
  in
  let kernel =
    B.kernel "fault_blocks" ~grid ~cta ~params:[ c ]
      [ Graphene.Spec.Alloc r
      ; B.init ~threads:thr 1.0 ~dst:r ()
      ; B.move ~threads:thr ~src:r ~dst:(Ts.select c [ offset ]) ()
      ]
  in
  let plan = Pipeline.lower Arch.SM86 kernel in
  let fault run =
    match run [ ("C", Array.make 256 0.0) ] with
    | _ -> "no fault"
    | exception Gpu_sim.Memory.Fault m -> m
    | exception e -> "unexpected " ^ Printexc.to_string e
  in
  List.iter
    (fun domains ->
      List.iter
        (fun (name, run) ->
          Alcotest.(check string)
            (Printf.sprintf "%s @%d: block 1's fault" name domains)
            "view %C: offset 1032 outside buffer C of size 256" (fault run))
        [ ( "tree"
          , fun args ->
              Interp.run_tree ~arch:Arch.SM86 ~domains kernel ~args () )
        ; ("plan", fun args -> Interp.run_plan ~domains plan ~args ())
        ])
    [ 1; 2; 4; 7 ]

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
      Corpus.check_counters C.No_requests tag c_run c_tree;
      check_bool (tag ^ ": output bitwise") true
        (List.assoc "C" args_run = List.assoc "C" args_tree))
    [ (30, 20, 10); (25, 17, 8) ];
  let stats = Pipeline.cache_stats () in
  check_int "scalar variants share one lowering" 1 stats.Pipeline.misses;
  check_int "every launch after the first hits" 3 stats.Pipeline.hits

let () =
  Alcotest.run "parallel"
    [ ( "counters"
      , [ Alcotest.test_case "merge" `Quick test_counters_merge
        ; Alcotest.test_case "diff" `Quick test_counters_diff
        ] )
    ; ( "domain_pool"
      , [ Alcotest.test_case "block_ranges" `Quick test_block_ranges
        ; Alcotest.test_case "run_list re-raises the task's exception" `Quick
            test_run_list_raises
        ; Alcotest.test_case "run_ordered folds each index once, in order"
            `Quick test_run_ordered
        ; Alcotest.test_case "run_ordered re-raises the lowest failing index"
            `Quick test_run_ordered_raises
        ] )
    ; ( "faults"
      , [ Alcotest.test_case "lowest failing block at every domain count"
            `Quick test_lowest_block_fault
        ] )
    ; ( "plan_cache"
      , [ Alcotest.test_case "lower once, launch many" `Quick test_plan_cache ]
      )
    ]
