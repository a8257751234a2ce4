(* Tests for the software-pipelining pass and the deferred async-copy
   queue:

   - bit-identity oracle: for every pipelining kernel family, the
     2- and 3-stage plans produce bit-identical outputs and pre-existing
     counters to the unpipelined plan, both on the plan executor
     and on [run_tree] over the plan's (rewritten) Spec kernel, at 1
     and 4 domains — only the async-queue occupancy counters may move,
     and the two paths must agree with each other on those too;
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
module Spec = Graphene.Spec
module C = Gpu_sim.Counters
module Interp = Gpu_sim.Interp
module PM = Gpu_sim.Perf_model
module Pipeline = Lower.Pipeline
module Plan = Lower.Plan
module Sw = Lower.Swpipe
module Staging = Kernels.Staging
module Ref = Reference.Cpu_ref

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ----- kernel families ----- *)

let cfg86 = Kernels.Gemm.test_config Arch.SM86

(* k = 4 tiles of bk=32: deep enough to pipeline at 2 and 3 stages. *)
let gemm_tc ?(k = 128) arch () =
  Kernels.Gemm.tensor_core arch
    (Kernels.Gemm.test_config arch)
    ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k ()

let gemm_layouts () =
  Kernels.Gemm.tensor_core ~name:"gemm_tc_layouts" ~ta:true ~tb:true
    Arch.SM86 cfg86 ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:128 ()

let split_k_partial () =
  fst
    (Kernels.Gemm.split_k Arch.SM86 cfg86 ~epilogue:Kernels.Epilogue.none
       ~splits:2 ~m:64 ~n:64 ~k:128 ())

let gemm_layernorm () =
  Kernels.Gemm_layernorm.kernel Arch.SM86 ~m:64 ~k:64 ~width:64 ~bm:64
    ~wm:32 ~wn:32 ()

let fmha () =
  Kernels.Fmha.kernel Arch.SM86 ~batch:1 ~heads:1 ~seq:32 ~dh:16 ~chunk:16
    ~nthreads:64 ()

let lstm () =
  Kernels.Lstm.kernel Arch.SM86 cfg86 ~m:64 ~n:64 ~k:64 ()

let mlp () =
  Kernels.Mlp.kernel Arch.SM86 ~m:64 ~width:64 ~layers:2 ~bm:64 ~wm:32
    ~wn:32 ()

(* ----- counter equality ----- *)

(* Pipelining moves only the four queue-depth counters; the request
   counters follow the plan-level vectorize pass, which [run_tree]
   skips (it re-interprets the Spec, where moves are still scalar). *)
let check_counters fields name a b =
  Alcotest.(check (option string))
    (name ^ ": counters") None (C.diff fields a b)

let check_buffers name a b =
  List.iter2
    (fun (bn, x) (_, y) ->
      check_bool (Printf.sprintf "%s: buffer %s bitwise" name bn) true (x = y))
    a b

(* ----- bit-identity: pipelined vs unpipelined, both paths ----- *)

let mk_args kernel =
  List.mapi
    (fun i (p : Ts.t) ->
      (p.Ts.name, Ref.random_fp16 ~seed:(i + 1) (L.cosize p.Ts.layout)))
    kernel.Spec.params

(* [run_tree] on the plan's kernel walks the rewritten Spec, so running
   the pipelined plan through it and through the plan executor
   exercises the rotated schedule under both semantics. The unpipelined
   plan doubles as the tree-walk baseline: a 1-stage lowering leaves the
   kernel untouched, so its tree run IS the reference interpreter on the
   original kernel. *)
let check_identity ?(domains = 1) ~expect_pipelined name arch mk =
  let kernel = mk () in
  let base = mk_args kernel in
  let engines =
    [ ( "tree"
      , fun (plan : Plan.t) args ->
          Interp.run_tree ~arch:plan.Plan.arch ~domains plan.Plan.kernel ~args
            () )
    ; ("bytecode", fun plan args -> Interp.run_plan ~domains plan ~args ())
    ]
  in
  let run plan (ename, runner) =
    let args = List.map (fun (n, a) -> (n, Array.copy a)) base in
    let counters = runner plan args in
    (ename, (args, counters))
  in
  let uplan = Pipeline.lower ~stages:1 arch kernel in
  check_int (name ^ ": unpipelined pl_stages") 1
    uplan.Plan.pipelining.Plan.pl_stages;
  (* Per-path unpipelined baselines: the tree run of the 1-stage plan
     IS the reference interpreter on the untouched source kernel. *)
  let ubase = List.map (run uplan) engines in
  List.iter
    (fun stages ->
      let pplan = Pipeline.lower ~stages arch kernel in
      let eff = pplan.Plan.pipelining.Plan.pl_stages in
      if expect_pipelined then
        check_bool
          (Printf.sprintf "%s: pipelined at request %d (got %d)" name stages
             eff)
          true (eff >= 2)
      else
        check_int
          (Printf.sprintf "%s: refused at request %d" name stages)
          1 eff;
      let runs = List.map (run pplan) engines in
      (* Pipelined vs unpipelined, same path: every pre-existing
         counter and every output buffer must be bit-identical — only
         the four queue-depth counters may move. *)
      List.iter2
        (fun (ename, (uargs, uc)) (_, (eargs, ec)) ->
          let tag = Printf.sprintf "%s @%d stages, %s" name stages ename in
          check_counters C.No_queue tag uc ec;
          check_buffers tag uargs eargs)
        ubase runs;
      (* Across paths the request counters differ by design ([run_tree]
         skips the plan-level vectorize widening), but both paths must
         agree on the widening-independent set AND on the queue
         counters the pipeline legitimately moved. *)
      match runs with
      | (_, (args0, c0)) :: rest ->
        List.iter
          (fun (ename, (args, c)) ->
            let tag =
              Printf.sprintf "%s @%d stages: %s vs tree engine" name stages
                ename
            in
            check_counters C.No_requests tag c0 c;
            check_buffers tag args0 args)
          rest
      | [] -> ())
    [ 2; 3 ]

let pipelining_families =
  [ ("gemm-tc sm86", Arch.SM86, gemm_tc Arch.SM86)
  ; (* an odd k-tile count (3) *)
    ("gemm-tc k=96 sm86", Arch.SM86, gemm_tc ~k:96 Arch.SM86)
  ; ("gemm-layouts sm86", Arch.SM86, gemm_layouts)
  ; ("split-k partial sm86", Arch.SM86, split_k_partial)
  ; ("gemm-layernorm sm86", Arch.SM86, gemm_layernorm)
  ]

let refusing_families =
  [ ("fmha sm86", Arch.SM86, fmha)
  ; ("lstm sm86", Arch.SM86, lstm)
  ; ("mlp sm86", Arch.SM86, mlp)
  ; ("gemm-tc sm70", Arch.SM70, gemm_tc Arch.SM70)
  ]

let run_families ~domains =
  List.iter
    (fun (name, arch, mk) ->
      check_identity ~domains ~expect_pipelined:true name arch mk)
    pipelining_families;
  List.iter
    (fun (name, arch, mk) ->
      check_identity ~domains ~expect_pipelined:false name arch mk)
    refusing_families

let test_identity_1domain () = run_families ~domains:1
let test_identity_4domains () = run_families ~domains:4

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
  let base = mk_args kernel in
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
  let c = Interp.run_plan plan ~args:(mk_args kernel) () in
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
    [ ( "identity"
      , [ Alcotest.test_case "all families, 1 domain" `Quick
            test_identity_1domain
        ; Alcotest.test_case "all families, 4 domains" `Quick
            test_identity_4domains
        ] )
    ; ( "queue"
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
