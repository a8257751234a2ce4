(* Tests for the software-pipelining pass and the deferred async-copy
   queue (the bit-identity of 2- and 3-stage plans with the unpipelined
   one, on both executors, is the matrix of corpus.ml, run by
   test_equivalence):

   - hand-computed queue accounting on a toy copy loop: commit/wait
     counts and the in-flight depth samples of the 1-, 2- and 3-stage
     schedules match the closed-form prologue/steady/tail arithmetic;
   - legality refusals: every non-pipelinable family is refused for the
     documented reason (loop shape, escaping buffers, no staging loop,
     trip count, shared-memory overflow, queue depth, eager copies);
   - the perf-model latency-hiding term: a >= 2-stage pipeline with
     nonzero occupancy is strictly faster than the serialized 1-stage
     schedule for GEMM and FMHA on sm86, and bounded below by the
     legacy perfect-overlap roofline. *)

module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module B = Graphene.Builder
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module Arch = Graphene.Arch
module C = Gpu_sim.Counters
module Interp = Gpu_sim.Interp
module PM = Gpu_sim.Perf_model
module Pipeline = Lower.Pipeline
module Plan = Lower.Plan
module Sw = Lower.Swpipe
module Staging = Kernels.Staging

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ----- kernels ----- *)

(* k = 4 tiles of bk=32: deep enough to pipeline at 2 and 3 stages. *)
let gemm_tc ?(k = 128) arch () = Corpus.gemm_tc ~m:64 ~n:64 ~k arch ()
let fmha = (Corpus.find "fmha sm86").Corpus.build
let lstm = (Corpus.find "lstm").Corpus.build
let mlp = (Corpus.find "mlp").Corpus.build

(* ----- toy copy loop: hand-computed queue accounting ----- *)

(* One block, 32 threads, [trip] iterations; each stages an 8x32 fp16
   tile through shared memory and writes it back per-thread — the
   smallest kernel with the canonical stage/fence/sync/compute/sync
   shape. Every counter below is derivable by hand. [double_fence]
   restages the tile mid-iteration — a second fence in the body, which
   the pass must refuse as a loop-shape violation. *)
let toy_copy ?(cols = 32) ?(double_fence = false) ~trip () =
  let rows = 8 and nthreads = 32 in
  let inp = Ts.create_rm "In" [ trip * rows; cols ] Dt.FP16 Ms.Global in
  let out = Ts.create_rm "Out" [ trip * rows; cols ] Dt.FP16 Ms.Global in
  let grid = Tt.grid "grid" [ 1 ] in
  let cta = Tt.linear "cta" nthreads Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let ss, al_ss = B.alloc_shared "Ss" (L.row_major [ rows; cols ]) Dt.FP16 in
  let stg =
    Staging.create ~thr ~nthreads ~use_cp_async:true ~prefix:"t_" ()
  in
  let v, al_v = B.alloc_regs "v" (L.vector 8) Dt.FP16 in
  (* Thread [tid] owns vector group [tid] of the tile each pass; wide
     tiles sweep the groups in an inner loop. *)
  let groups_per_row = cols / 8 in
  let ss_g = B.vec_tile ss 8 in
  let out_g = B.vec_tile out 8 in
  let passes = rows * cols / 8 / nthreads in
  let stage kk =
    [ Staging.copy stg ~src:inp
        ~src_row0:(E.mul kk (E.const rows))
        ~src_col0:E.zero ~dst:ss
    ]
    @ Staging.fence [ stg ]
    @ [ B.sync ]
  in
  let body kk =
    stage kk
    @ (if double_fence then stage kk else [])
    @ [ B.for_ "p" (E.const passes) (fun p ->
            let g = E.add (E.mul p (E.const nthreads)) tid in
            let row = E.div g (E.const groups_per_row) in
            let col = E.rem g (E.const groups_per_row) in
            [ B.move ~label:"load tile" ~threads:thr
                ~src:(Ts.select ss_g [ row; col ])
                ~dst:v ()
            ; B.move ~label:"store tile" ~threads:thr ~src:v
                ~dst:
                  (Ts.select out_g
                     [ E.add (E.mul kk (E.const rows)) row; col ])
                ()
            ])
      ; B.sync
      ]
  in
  B.kernel "toy_pipe" ~grid ~cta ~params:[ inp; out ]
    (([ al_ss; al_v ] @ Staging.allocs stg)
    @ [ B.for_ "kk" (E.const trip) body ])

(* Closed-form schedule arithmetic for trip [t], stages [n >= 2]:
   prologue commits n-1 groups; each steady iteration commits once
   (possibly empty past the staging horizon) and waits once, sampling a
   full queue of n groups and draining the oldest; the tail wait samples
   the n-1 leftovers and drains them. So:
     commits      = t + n - 1
     waits        = t + 1
     inflight sum = t*n + (n - 1)
     max inflight = n
   Unpipelined (1 stage): t commits, t waits, every sample = 1. *)
let check_toy ~trip ~stages =
  let kernel = toy_copy ~trip () in
  let base = Corpus.seeded_inputs kernel in
  let plan = Pipeline.lower ~stages Arch.SM86 kernel in
  let args = List.map (fun (n, a) -> (n, Array.copy a)) base in
  let c = Interp.run_plan plan ~args () in
  let tag = Printf.sprintf "toy trip=%d stages=%d" trip stages in
  (* The kernel is a pure copy: Out must equal In exactly. *)
  check_bool (tag ^ ": output = input") true
    (List.assoc "Out" args = List.assoc "In" base);
  if stages <= 1 then begin
    check_int (tag ^ ": commits") trip c.C.async_commits;
    check_int (tag ^ ": waits") trip c.C.async_waits;
    check_int (tag ^ ": inflight sum") trip c.C.async_inflight_sum;
    check_int (tag ^ ": max inflight") 1 c.C.async_max_inflight
  end
  else begin
    check_int (tag ^ ": pl_stages") stages
      plan.Plan.pipelining.Plan.pl_stages;
    check_int (tag ^ ": commits") (trip + stages - 1) c.C.async_commits;
    check_int (tag ^ ": waits") (trip + 1) c.C.async_waits;
    check_int (tag ^ ": inflight sum")
      ((trip * stages) + stages - 1)
      c.C.async_inflight_sum;
    check_int (tag ^ ": max inflight") stages c.C.async_max_inflight;
    let expect_occ =
      float_of_int ((trip * stages) + stages - 1)
      /. float_of_int (trip + 1) /. float_of_int stages
    in
    Alcotest.(check (float 1e-9))
      (tag ^ ": occupancy") expect_occ
      (C.async_occupancy c ~stages)
  end

let test_toy_queue_accounting () =
  check_toy ~trip:4 ~stages:1;
  check_toy ~trip:4 ~stages:2;
  check_toy ~trip:4 ~stages:3;
  check_toy ~trip:7 ~stages:3

(* ----- legality refusals ----- *)

let rewrite ?(arch = Arch.SM86) ?(stages = 3) mk =
  snd (Sw.rewrite arch ~stages (mk ()))

let reasons v = List.map (fun (_, r) -> Sw.reason_to_string r) v.Sw.refusals

let has_reason name prefix v =
  check_bool
    (Printf.sprintf "%s: some refusal starts with %S (got: %s)" name prefix
       (String.concat "; " (reasons v)))
    true
    (List.exists
       (fun s ->
         String.length s >= String.length prefix
         && String.sub s 0 (String.length prefix) = prefix)
       (reasons v))

let test_rewrite_verdicts () =
  (* gemm-tc: one staging loop, rotated As+Bs (64x32 fp16 = 2048 scalars
     each = 4096 B, 8192 B staged per iteration). *)
  let v = rewrite (gemm_tc Arch.SM86) in
  check_int "gemm-tc: one pipelined loop" 1 (List.length v.Sw.loops);
  let p = List.hd v.Sw.loops in
  check_int "gemm-tc: trip" 4 p.Sw.p_trip;
  check_int "gemm-tc: stages" 3 p.Sw.p_stages;
  check_int "gemm-tc: queue bound" 3 p.Sw.p_queue_bound;
  check_int "gemm-tc: rotated buffers" 2 (List.length p.Sw.p_buffers);
  List.iter
    (fun (_, stride) -> check_int "gemm-tc: slot stride" 2048 stride)
    p.Sw.p_buffers;
  check_int "gemm-tc: stage bytes" 8192 p.Sw.p_stage_bytes;
  (* Effective depth clamps to the trip count. *)
  let v8 = rewrite ~stages:8 (gemm_tc Arch.SM86) in
  check_int "gemm-tc @8: clamped to trip" 4
    (List.hd v8.Sw.loops).Sw.p_stages

let test_rewrite_refusals () =
  (* stages <= 1 is the off switch. *)
  check_str "disabled" "disabled"
    (List.hd (reasons (rewrite ~stages:1 (gemm_tc Arch.SM86))));
  (* sm70 stages eagerly through registers: no fence to deepen. *)
  has_reason "sm70 gemm" "not-async"
    (rewrite ~arch:Arch.SM70 (gemm_tc Arch.SM70));
  (* FMHA's K and V sweeps both stage through the one KVs tile, so the
     buffer is live outside whichever loop the pass considers. *)
  let vf = rewrite fmha in
  check_int "fmha: no loops pipelined" 0 (List.length vf.Sw.loops);
  has_reason "fmha" "buffer-escapes:KVs" vf;
  (* A second fence inside the body breaks the canonical shape. *)
  has_reason "double fence" "loop-shape"
    (rewrite (fun () -> toy_copy ~double_fence:true ~trip:4 ()));
  (* The LSTM's two sweeps share the As/Bs staging buffers. *)
  let vl = rewrite lstm in
  check_int "lstm: no loops pipelined" 0 (List.length vl.Sw.loops);
  has_reason "lstm" "buffer-escapes" vl;
  (* The MLP unrolls its layers: no constant-trip staging loop at all. *)
  has_reason "mlp" "no-stage-loop" (rewrite mlp);
  (* One k-tile: nothing to overlap. *)
  has_reason "single tile" "too-few-tiles:1"
    (rewrite (gemm_tc ~k:32 Arch.SM86));
  (* 8x3072 fp16 tile = 48 KiB; three rotated copies exceed sm86's
     100 KiB block budget (trip 3 so the depth doesn't clamp to a
     2-stage rotation, which would fit). *)
  has_reason "smem overflow" "too-little-smem"
    (rewrite (fun () -> toy_copy ~cols:3072 ~trip:3 ()));
  (* sm86's async queue holds 8 committed groups; 9 stages can't. *)
  has_reason "queue depth" "queue-depth"
    (rewrite ~stages:9 (fun () -> toy_copy ~trip:10 ()))

(* ----- the perf-model latency-hiding term ----- *)

let test_latency_hiding_term () =
  let machine = Gpu_sim.Machine.of_arch Arch.SM86 in
  List.iter
    (fun (name, kernel) ->
      let t pipeline =
        (PM.of_kernel ~pipeline machine kernel ()).PM.time_s
      in
      let legacy = (PM.of_kernel machine kernel ()).PM.time_s in
      let serial = t { PM.stages = 1; occupancy = 0.0 } in
      let pipe2 = t { PM.stages = 2; occupancy = 0.5 } in
      let full = t { PM.stages = 3; occupancy = 1.0 } in
      check_bool (name ^ ": 2-stage strictly beats serialized") true
        (pipe2 < serial);
      check_bool (name ^ ": serialized is the upper bound") true
        (full <= pipe2 && pipe2 <= serial);
      (* Full occupancy collapses to the legacy perfect-overlap roofline;
         no pipeline judgment keeps the legacy estimate unchanged. *)
      Alcotest.(check (float 1e-12))
        (name ^ ": occupancy 1.0 = legacy roofline") legacy full;
      (* Occupancy outside [0,1] is clamped, not amplified. *)
      Alcotest.(check (float 1e-12))
        (name ^ ": occupancy clamps high") full
        (t { PM.stages = 3; occupancy = 7.0 }))
    [ ("gemm-tc", gemm_tc Arch.SM86 ()); ("fmha", fmha ()) ]

(* ----- measured occupancy feeds the model ----- *)

let test_measured_occupancy_speedup () =
  (* The acceptance criterion end-to-end: lower the GEMM at 3 stages,
     measure the queue occupancy in simulation, and the model must
     predict the pipelined schedule strictly faster than 1-stage. *)
  let kernel = gemm_tc Arch.SM86 () in
  let plan = Pipeline.lower ~stages:3 Arch.SM86 kernel in
  let stages = plan.Plan.pipelining.Plan.pl_stages in
  check_int "gemm-tc lowered at 3 stages" 3 stages;
  let c = Interp.run_plan plan ~args:(Corpus.seeded_inputs kernel) () in
  let occ = C.async_occupancy c ~stages in
  check_bool
    (Printf.sprintf "measured occupancy %.3f is substantial" occ)
    true
    (occ > 0.5 && occ <= 1.0);
  let machine = Gpu_sim.Machine.of_arch Arch.SM86 in
  let t pipeline = (PM.of_kernel ~pipeline machine kernel ()).PM.time_s in
  check_bool "model: measured pipeline strictly beats serialized" true
    (t { PM.stages; occupancy = occ }
    < t { PM.stages = 1; occupancy = 0.0 })

let () =
  Alcotest.run "swpipe"
    [ ( "queue"
      , [ Alcotest.test_case "toy-loop accounting" `Quick
            test_toy_queue_accounting
        ] )
    ; ( "legality"
      , [ Alcotest.test_case "rewrite verdicts" `Quick test_rewrite_verdicts
        ; Alcotest.test_case "refusal reasons" `Quick test_rewrite_refusals
        ] )
    ; ( "model"
      , [ Alcotest.test_case "latency-hiding term" `Quick
            test_latency_hiding_term
        ; Alcotest.test_case "measured occupancy" `Quick
            test_measured_occupancy_speedup
        ] )
    ]
