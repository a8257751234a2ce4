(* Randomized (fixed-seed) property test for thread-divergent control
   flow in the warp-mask plan executor:

   - a corpus of generated kernels nesting tid-dependent [if]/[if-else]
     branches and loops (with loop-dependent store indices) must pass
     the equivalence matrix of corpus.ml — counters, instruction mix,
     profiler report JSON, Chrome trace and output buffers of both
     executors at every domain count, and the static-analysis totals —
     and reach divergent nesting depth 3. The branch guards and the
     plain stores split into lane tables; the [(tid + k) mod 64] stores
     mix threadIdx.x with a loop counter under [mod], so they do not
     split and keep the per-lane fallback closure covered;
   - collective atomics: a warp shuffle lowers to the plan's one
     [Collective] atomic, groups each warp through its compiled member
     function, and raises on both engines when a branch splits a
     warp. *)

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
module Plan = Lower.Plan
module Pipeline = Lower.Pipeline

let check_bool = Alcotest.(check bool)

(* ----- generated divergence corpus ----- *)

let cta_size = 64
let grid_blocks = 2

(* One generated kernel: a CTA of 64 threads over 2 blocks, random
   nesting (depth <= 3) of tid-dependent branches and small loops, every
   leaf a per-thread store into the block's own slice of [A]. Loop
   bodies sometimes store through a loop-dependent index, so offsets
   that change per iteration are exercised alongside per-lane ones. *)
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
  (* Store to the thread's own cell, optionally rotated by a loop
     variable (stays inside the block's 64-cell slice, so parallel
     block ranges never race). *)
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
    (Printf.sprintf "divergence_%d" idx)
    ~grid ~cta ~params:[ a ]
    (block 0 None @ [ leaf () ])

(* The fixed-seed corpus: 12 kernels drawn in order from one generator
   state. *)
let corpus =
  let rng = Random.State.make [| 0x9e3779b9; 42 |] in
  List.init 12 (gen_kernel rng)

(* The corpus must diverge, and reach the generator's nesting depth of
   three branches, where the plan executor's mask arena reuses a pair
   per level. *)
let test_corpus_depth () =
  let max_depth =
    List.fold_left
      (fun depth kernel ->
        let plan = Pipeline.lower Arch.SM86 kernel in
        max depth (Plan.divergence_depth plan.Plan.body))
      0 corpus
  in
  check_bool "corpus contains divergent kernels" true (max_depth > 0);
  Alcotest.(check int) "corpus reaches divergent nesting depth 3" 3 max_depth

(* Each generated kernel runs through the equivalence matrix
   (corpus.ml), static-analysis totals included: the analysis splits
   the active threads at every thread-dependent branch as the executors
   do, so nested guards are priced exactly. *)
let test_matrix kernel () =
  Corpus.matrix (Corpus.family kernel.Spec.name Arch.SM86 (fun () -> kernel))

(* ----- collective atomics ----- *)

(* Two warps; each broadcasts its lane 5 with shfl.idx. [guard], when
   given, wraps the shuffle in a thread-dependent branch. *)
let shfl_kernel ?guard () =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.linear "cta" 64 Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let warp =
    Tt.select (Tt.tile cta [ L.tile_spec 32 ]) [ E.div tid (E.const 32) ]
  in
  let inp = Ts.create_rm "In" [ 64 ] Dt.FP32 Ms.Global in
  let out = Ts.create_rm "Out" [ 64 ] Dt.FP32 Ms.Global in
  let v, al_v = B.alloc_regs "v" (L.vector 1) Dt.FP32 in
  let shfl = B.shfl ~threads:warp (Spec.Idx (E.const 5)) ~src:v ~dst:v () in
  B.kernel "bcast2" ~grid ~cta ~params:[ inp; out ]
    [ al_v
    ; B.move ~threads:thr ~src:(Ts.select inp [ tid ]) ~dst:v ()
    ; (match guard with
      | None -> shfl
      | Some bound -> B.if_ (B.( <. ) tid (E.const bound)) [ shfl ])
    ; B.move ~threads:thr ~src:v ~dst:(Ts.select out [ tid ]) ()
    ]

let shfl_args () =
  [ ("In", Array.init 64 float_of_int); ("Out", Array.make 64 0.0) ]

let test_collective_groups_warps () =
  let kernel = shfl_kernel () in
  let plan = Pipeline.lower Arch.SM86 kernel in
  let collectives = ref [] and per_thread = ref 0 in
  Plan.iter_atomics
    (fun a ->
      match a.Plan.a_threads with
      | Plan.Per_thread -> incr per_thread
      | Plan.Collective _ ->
        collectives := a.Plan.a_instr.Graphene.Atomic.name :: !collectives)
    plan.Plan.body;
  Alcotest.(check (list string))
    "the shuffle is the one collective atomic" [ "shfl.sync" ] !collectives;
  Alcotest.(check int)
    "every other atomic is per-thread"
    (Plan.count_atomics plan.Plan.body - 1)
    !per_thread;
  let expected = Array.init 64 (fun i -> float_of_int ((i / 32 * 32) + 5)) in
  let tree_args = shfl_args () and plan_args = shfl_args () in
  let c_tree = Interp.run_tree ~arch:Arch.SM86 kernel ~args:tree_args () in
  let c_plan = Interp.run_plan plan ~args:plan_args () in
  check_bool "tree: each warp broadcasts its lane 5" true
    (List.assoc "Out" tree_args = expected);
  check_bool "plan: each warp broadcasts its lane 5" true
    (List.assoc "Out" plan_args = expected);
  Corpus.check_counters C.No_requests "plan vs tree" c_tree c_plan

(* A branch that keeps lanes 0..15 splits every warp: the shuffle's
   instance is not fully active, and both engines refuse it with the
   same message. The plan is still a valid value — the error is the
   executor's, at run time. *)
let test_divergent_collective_raises () =
  let kernel = shfl_kernel ~guard:16 () in
  let plan = Pipeline.lower Arch.SM86 kernel in
  let error run =
    try
      ignore (run (shfl_args ()));
      None
    with Interp.Exec_error msg -> Some msg
  in
  let tree_err =
    error (fun args -> Interp.run_tree ~arch:Arch.SM86 kernel ~args ())
  in
  let plan_err = error (fun args -> Interp.run_plan plan ~args ()) in
  Alcotest.(check (option string))
    "tree raises the divergent-collective error"
    (Some "collective shfl.sync executed with divergent threads") tree_err;
  Alcotest.(check (option string)) "plan raises the tree's error" tree_err
    plan_err;
  (* A guard that keeps whole warps (lanes 0..31) is not divergent for
     the shuffle: the first warp broadcasts, the second keeps its
     input. *)
  let kernel = shfl_kernel ~guard:32 () in
  let args = shfl_args () in
  ignore (Interp.run_plan (Pipeline.lower Arch.SM86 kernel) ~args ());
  check_bool "warp-aligned guard runs" true
    (List.assoc "Out" args
    = Array.init 64 (fun i -> if i < 32 then 5.0 else float_of_int i))

let () =
  Alcotest.run "divergence"
    [ ( "divergence"
      , [ Alcotest.test_case "randomized tid-dependent branch corpus" `Quick
            test_corpus_depth
        ] )
    ; ( "matrix"
      , List.map
          (fun (kernel : Spec.kernel) ->
            Alcotest.test_case kernel.Spec.name `Quick (test_matrix kernel))
          corpus )
    ; ( "collective"
      , [ Alcotest.test_case "shuffle groups each warp" `Quick
            test_collective_groups_warps
        ; Alcotest.test_case "divergent shuffle raises" `Quick
            test_divergent_collective_raises
        ] )
    ]
