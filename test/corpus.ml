(* The kernel-family corpus and the equivalence matrix, shared by the
   test suites (linked into each of them, like json_parse.ml).

   The contract is that a kernel means the same thing however it is
   lowered and executed. [matrix] runs one family through every
   executor configuration once and compares each run with every run it
   must equal. R, the reference, is [Interp.run_tree] at 1 domain.
   Every run records counters, a profiler report and a Chrome trace.

   - plan: the default lowering, at 1, 2, 4 and 7 domains and once with
     [?domains] omitted (the default domain count).
     Plan@1 equals R in everything but the request counters, which
     follow the plan's vector widths; every plan run equals plan@1 in
     every field.
   - tree: [run_tree] at 2, 4 and 7 domains equals R in every field.
   - scalar: the [~vectorize:false] lowering at 1 and 4 domains equals
     the tree run at the same domain count in every field, books no
     vectorized request and at least the widened plan's requests, and
     equals the widened plan in every field when nothing widened.
   - pipelined: the [~stages:2] and [3] lowerings, on the plan executor
     and through [run_tree] on the plan's (rewritten) kernel, at 1 and 4
     domains. Each equals the same executor's unpipelined run in its
     buffers and in every counter but the queue depths (its profile and
     trace describe another kernel), and the two equal each other except
     in the request counters. Where the pass refuses, the lowering must
     report 1 stage and leave the kernel unchanged: its runs would repeat
     the unpipelined ones, since the executors are deterministic in
     (plan, args).
   - static analysis: [Static_analysis.of_kernel]'s flop, byte and
     instruction totals equal R's counters, except the fields a family
     names in [static_gaps].

   A domain count above the grid size resolves to the grid size
   ([Interp.resolve_domains]), so it is the same run and runs once.
   Equalities chain: plan@N equals plan@1 in every field and plan@1
   equals R except requests, so plan@N equals R except requests. *)

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
module SA = Gpu_sim.Static_analysis
module Pipeline = Lower.Pipeline
module Plan = Lower.Plan
module Ref = Reference.Cpu_ref

(* The one counters comparison of the suites: [Counters.diff] names the
   first field of [fields] that differs. *)
let check_counters fields name a b =
  Alcotest.(check (option string))
    (name ^ ": counters") None (C.diff fields a b)

(* ----- the corpus ----- *)

type family =
  { name : string
  ; arch : Arch.t
  ; build : unit -> Spec.kernel
  ; args : (unit -> (string * float array) list) option
        (* hand-sized buffers, for parameter layouts that only the
           scalar bindings size *)
  ; scalars : (string * int) list
  ; pipelines : bool  (* swpipe deepens it at 2 and 3 stages *)
  ; static_gaps : (string * string) list
        (* totals field where static analysis and the simulator
           disagree, and why *)
  }

let family ?args ?(scalars = []) ?(pipelines = false) ?(static_gaps = [])
    name arch build =
  { name; arch; build; args; scalars; pipelines; static_gaps }

let gemm_tc ?(m = 128) ?(n = 64) ?(k = 128) ?ta ?tb ?name arch () =
  Kernels.Gemm.tensor_core ?name ?ta ?tb arch
    (Kernels.Gemm.test_config arch)
    ~epilogue:Kernels.Epilogue.none ~m ~n ~k ()

(* One block of 32 threads, each owning 8 contiguous fp16 elements: an
   unpredicated round trip through registers, then the same moves again
   under a tid-dependent branch. The vectorize pass widens the
   unpredicated pair to v4 and refuses the predicated pair with the mask
   hazard: a partially-active warp cannot be proven to move full
   vectors. *)
let divergent_copy () =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.linear "cta" 32 Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let a = Ts.create_rm "A" [ 32 * 8 ] Dt.FP16 Ms.Global in
  let o = Ts.create_rm "O" [ 32 * 8 ] Dt.FP16 Ms.Global in
  let regs, alloc = B.alloc_regs "r" (L.row_major [ 8 ]) Dt.FP16 in
  let per t = Ts.select (Ts.tile t [ L.tile_spec 8 ]) [ tid ] in
  let round_trip =
    [ B.move ~threads:thr ~src:(per a) ~dst:regs ()
    ; B.move ~threads:thr ~src:regs ~dst:(per o) ()
    ]
  in
  B.kernel "divergent_copy" ~grid ~cta ~params:[ a; o ]
    ((alloc :: round_trip)
    @ [ B.if_ (B.( <. ) tid (E.const 16)) round_trip ])

(* One block of 64 threads loads In[tid] into a register; a 2-trip loop
   w then broadcasts lane 5 with shfl.idx over warp (tid/32 + w) mod 2,
   and each thread stores its register to Out[tid]. At w = 1 thread 0
   probes warp 1 first, so the order of the shuffle's groups changes
   with w while the active mask does not: a member-group cache keyed
   without the loop slot would replay w = 0's order. (Selecting the warp
   by w alone would make every thread probe one group, which
   Static_analysis prices as two instances.) *)
let rotating_shfl () =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.linear "cta" 64 Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let warps = Tt.tile cta [ L.tile_spec 32 ] in
  let inp = Ts.create_rm "In" [ 64 ] Dt.FP32 Ms.Global in
  let out = Ts.create_rm "Out" [ 64 ] Dt.FP32 Ms.Global in
  let v, al_v = B.alloc_regs "v" (L.vector 1) Dt.FP32 in
  B.kernel "rotating_shfl" ~grid ~cta ~params:[ inp; out ]
    [ al_v
    ; B.move ~threads:thr ~src:(Ts.select inp [ tid ]) ~dst:v ()
    ; B.for_ "w" (E.const 2) (fun w ->
          let warp = E.rem (E.add (E.div tid (E.const 32)) w) (E.const 2) in
          [ B.shfl
              ~threads:(Tt.select warps [ warp ])
              (Spec.Idx (E.const 5)) ~src:v ~dst:v ()
          ])
    ; B.move ~threads:thr ~src:v ~dst:(Ts.select out [ tid ]) ()
    ]

(* The union of the families the executor suites compared. Each spans
   at least two blocks, except divergent-copy and rotating-shfl (one
   block by construction) and three pipelining families kept at one
   64x64 block:
   k=96, the transposed operands and GEMM+LayerNorm, whose every run
   repeats a tree walk per stage count and domain count. gemm-tc sm86 (2
   blocks of 4 k-tiles) and split-K's partial kernel (2 splits of 2
   k-tiles) run the pipelined schedule across blocks. *)
let families =
  let sm86 = Arch.SM86 and sm70 = Arch.SM70 in
  [ family "gemm-tc sm86" sm86 ~pipelines:true (gemm_tc sm86)
  ; family "gemm-tc sm70" sm70 (gemm_tc ~m:64 ~n:64 ~k:32 sm70)
  ; (* an odd k-tile count (3) *)
    family "gemm-tc k=96 sm86" sm86 ~pipelines:true
      (gemm_tc ~m:64 ~k:96 sm86)
  ; family "gemm-layouts sm86" sm86 ~pipelines:true
      (gemm_tc ~m:64 ~name:"gemm_tc_layouts" ~ta:true ~tb:true sm86)
  ; family "split-k partial sm86" sm86 ~pipelines:true (fun () ->
        fst
          (Kernels.Gemm.split_k sm86
             (Kernels.Gemm.test_config sm86)
             ~epilogue:Kernels.Epilogue.none ~splits:2 ~m:64 ~n:64 ~k:128
             ()))
  ; family "gemm-naive" sm86
      ~static_gaps:
        [ ( "global_bytes"
          , "the fma's cost charges the global accumulator's read and \
             write; the counters book only the store" )
        ]
      (fun () ->
        Kernels.Gemm.naive ~m:32 ~n:32 ~k:16 ~bm:16 ~bn:16 ~tm:4 ~tn:4 ())
  ; (* Scalar parameters exercise the slot environment; ragged sizes
       give predicated partial tiles (divergent branches), and the
       per-domain slot environments must not leak block ids. *)
    family "gemm-parametric" sm86
      ~args:(fun () ->
        [ ("A", Ref.random_fp16 ~seed:14 (30 * 10))
        ; ("B", Ref.random_fp16 ~seed:15 (10 * 20))
        ; ("C", Array.make (30 * 20) 0.0)
        ])
      ~scalars:[ ("M", 30); ("N", 20); ("K", 10) ]
      ~static_gaps:
        (List.map
           (fun f ->
             ( f
             , "the analysis prices every block like block 0, so partial \
                tiles count as full" ))
           [ "fma_flops"; "global_bytes"; "instructions" ])
      (fun () ->
        Kernels.Gemm.naive_parametric ~launch_m:30 ~launch_n:20 ~bm:16 ~bn:16
          ~tm:4 ~tn:4 ())
  ; family "fmha sm86" sm86 (fun () ->
        Kernels.Fmha.kernel sm86 ~batch:1 ~heads:1 ~seq:32 ~dh:16 ~chunk:16
          ~nthreads:64 ())
  ; family "fmha sm70" sm70 (fun () ->
        Kernels.Fmha.kernel ~swizzle_smem:false sm70 ~batch:1 ~heads:1
          ~seq:32 ~dh:32 ~chunk:32 ~nthreads:64 ())
  ; family "lstm" sm86 (fun () ->
        Kernels.Lstm.kernel sm86
          (Kernels.Gemm.test_config sm86)
          ~m:128 ~n:64 ~k:64 ())
  ; family "mlp" sm86 (fun () ->
        Kernels.Mlp.kernel sm86 ~m:128 ~width:64 ~layers:2 ~bm:64 ~wm:32
          ~wn:32 ())
  ; (* 8 row-blocks: at 7 domains the range split is maximally ragged *)
    family "layernorm" sm86 (fun () ->
        Kernels.Layernorm.kernel ~rows:8 ~cols:256 ~nthreads:64 ())
  ; family "softmax" sm86 (fun () ->
        Kernels.Softmax.kernel ~rows:8 ~cols:128 ~nthreads:64 ())
  ; family "gemm+layernorm" sm86 ~pipelines:true (fun () ->
        Kernels.Gemm_layernorm.kernel sm86 ~m:64 ~k:128 ~width:64 ~bm:64
          ~wm:32 ~wn:32 ())
  ; family "divergent-copy" sm86 divergent_copy
  ; family "rotating-shfl" sm86 rotating_shfl
  ]

let find name = List.find (fun f -> f.name = name) families

(* Seeded fp16 inputs in every parameter. *)
let seeded_inputs kernel =
  List.mapi
    (fun i (p : Ts.t) ->
      (p.Ts.name, Ref.random_fp16 ~seed:(i + 1) (L.cosize p.Ts.layout)))
    kernel.Spec.params

let inputs f kernel =
  match f.args with Some mk -> mk () | None -> seeded_inputs kernel

(* ----- the matrix ----- *)

type run =
  { tag : string
  ; bufs : (string * float array) list
  ; c : C.t
  ; report : string
  ; trace : string
  }

(* [b] equals [a] in [fields] and in every output bit; [observed] also
   demands equal profiler reports and Chrome traces (runs of one
   kernel). *)
let same ?(observed = true) fields a b =
  let tag = Printf.sprintf "%s vs %s" b.tag a.tag in
  check_counters fields tag a.c b.c;
  if observed then begin
    Alcotest.(check string) (tag ^ ": profiler report JSON") a.report b.report;
    Alcotest.(check string) (tag ^ ": chrome trace") a.trace b.trace
  end;
  List.iter2
    (fun (bn, x) (_, y) ->
      Alcotest.(check bool) (Printf.sprintf "%s: buffer %s bitwise" tag bn)
        true (x = y))
    a.bufs b.bufs

let static_fields (t : SA.totals) (c : C.t) =
  [ ("tc_flops", t.SA.tc_flops, c.C.tensor_core_flops)
  ; ("fma_flops", t.SA.fma_flops, c.C.flops)
  ; ( "global_bytes"
    , t.SA.global_bytes
    , c.C.global_load_bytes + c.C.global_store_bytes )
  ; ( "shared_bytes"
    , t.SA.shared_bytes
    , c.C.shared_load_bytes + c.C.shared_store_bytes )
  ; ("instructions", t.SA.instructions, c.C.instructions)
  ]

(* Each named gap must still be a disagreement, so a fix on either side
   shows up here and retires its entry. *)
let check_static f kernel r =
  let totals = SA.of_kernel f.arch kernel ~scalars:f.scalars () in
  List.iter
    (fun (field, static, simulated) ->
      let agree = Float.equal static (float_of_int simulated) in
      let tag =
        Printf.sprintf "%s: static %s %.0f vs simulated %d" f.name field
          static simulated
      in
      match List.assoc_opt field f.static_gaps with
      | None -> Alcotest.(check bool) (tag ^ " agree") true agree
      | Some why -> Alcotest.(check bool) (tag ^ " differ: " ^ why) false agree)
    (static_fields totals r.c)

(* The 2-, 4- and 7-domain runs take [run_grid]'s split, merged path at
   any core count; the pool runs their block ranges on at most one
   domain per core. *)
let matrix f =
  let kernel = f.build () in
  let arch = f.arch and scalars = f.scalars in
  let base = inputs f kernel in
  let machine = Gpu_sim.Machine.of_arch arch in
  let exec ?(kernel = kernel) tag runner =
    let bufs = List.map (fun (n, a) -> (n, Array.copy a)) base in
    let trace = Trace.create () in
    let profiler = Profiler.create ~trace () in
    let c = runner ~profiler ~args:bufs in
    let report =
      Profiler.report profiler ~kernel ~arch ~counters:c ~machine ()
    in
    { tag = Printf.sprintf "%s: %s" f.name tag
    ; bufs
    ; c
    ; report = Profiler.report_to_json report
    ; trace = Trace.to_chrome_string trace
    }
  in
  let tree ?(kernel = kernel) tag domains =
    exec ~kernel tag (fun ~profiler ~args ->
        Interp.run_tree ~arch ~profiler ?domains kernel ~args ~scalars ())
  in
  let run ?kernel tag plan domains =
    exec ?kernel tag (fun ~profiler ~args ->
        Interp.run_plan ~profiler ?domains plan ~args ~scalars ())
  in
  let at name d = Printf.sprintf "%s @%d" name d in
  let r = tree "tree @1" (Some 1) in
  check_static f kernel r;
  let plan = Pipeline.lower arch kernel in
  Alcotest.(check int) (f.name ^ ": default plan unpipelined") 1
    plan.Plan.pipelining.Plan.pl_stages;
  Alcotest.(check bool) (f.name ^ ": default plan keeps the kernel") true
    (plan.Plan.kernel = kernel);
  let p1 = run "plan @1" plan (Some 1) in
  same C.No_requests r p1;
  same C.All p1 (run "plan @auto" plan None);
  let scalar_plan = Pipeline.lower ~vectorize:false arch kernel in
  let widened, _ = Plan.vec_counts plan.Plan.body in
  let pipelined =
    List.filter_map
      (fun stages ->
        let pplan = Pipeline.lower ~stages arch kernel in
        let eff = pplan.Plan.pipelining.Plan.pl_stages in
        let tag = Printf.sprintf "%s @%d stages" f.name stages in
        if f.pipelines then begin
          Alcotest.(check bool)
            (Printf.sprintf "%s: pipelined (got %d)" tag eff)
            true (eff >= 2);
          Some (stages, pplan)
        end
        else begin
          Alcotest.(check int) (tag ^ ": refused") 1 eff;
          Alcotest.(check bool) (tag ^ ": kernel unchanged") true
            (pplan.Plan.kernel = kernel);
          None
        end)
      [ 2; 3 ]
  in
  (* A count above the grid size resolves to the grid size
     ([Interp.resolve_domains]): the same run, made once. *)
  let grid = Tt.size kernel.Spec.grid in
  let resolved ds =
    List.sort_uniq compare (List.map (fun d -> max 1 (min d grid)) ds)
  in
  (* The scalar-forced and pipelined lowerings run at 1 and 4 domains. *)
  let side_counts = resolved [ 1; 4 ] in
  List.iter
    (fun d ->
      let t, p =
        if d = 1 then (r, p1)
        else begin
          let t = tree (at "tree" d) (Some d) in
          let p = run (at "plan" d) plan (Some d) in
          same C.All r t;
          same C.All p1 p;
          (t, p)
        end
      in
      if List.mem d side_counts then begin
        let s = run (at "scalar plan" d) scalar_plan (Some d) in
        same C.All t s;
        Alcotest.(check int) (s.tag ^ ": no vectorized requests") 0
          (s.c.C.global_vec_requests + s.c.C.shared_vec_requests);
        Alcotest.(check bool) (s.tag ^ ": at least the widened requests") true
          (s.c.C.global_requests >= p.c.C.global_requests
          && s.c.C.shared_requests >= p.c.C.shared_requests);
        if widened = 0 then same C.All p s;
        List.iter
          (fun (stages, pplan) ->
            let name e = Printf.sprintf "%s %d-stage @%d" e stages d in
            let kernel = pplan.Plan.kernel in
            let pt = tree ~kernel (name "tree") (Some d) in
            let pp = run ~kernel (name "plan") pplan (Some d) in
            same ~observed:false C.No_queue t pt;
            same ~observed:false C.No_queue p pp;
            same C.No_requests pt pp)
          pipelined
      end)
    (resolved [ 1; 2; 4; 7 ])
