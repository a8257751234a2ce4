(* Tests for the lowering pipeline and the compiled-plan executor (plan
   against tree equivalence over every kernel family is the matrix of
   corpus.ml, run by test_equivalence):

   - Atomic.find is called exactly once per leaf spec per lowering and
     never at execution time;
   - compiled view offsets match the symbolic enumeration;
   - lazy error semantics (unmatched leaves, unbound scalars);
   - the six passes run in order (validate, swpipe, flatten, resolve,
     vectorize, compile);
   - Counters.add_instr_n, the registry's instruction classes and the
     class-driven issue accounting of Counters.book_issue. *)

module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Arch = Graphene.Arch
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic
module C = Gpu_sim.Counters
module Interp = Gpu_sim.Interp
module Pipeline = Lower.Pipeline
module Plan = Lower.Plan

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains s sub =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s
    && (String.equal (String.sub s i n) sub || go (i + 1))
  in
  go 0

(* ----- Atomic.find call counting ----- *)

let count_leaves kernel =
  Spec.fold_specs
    (fun acc s -> if s.Spec.decomp = None then acc + 1 else acc)
    0 kernel.Spec.body

let test_find_called_once_per_leaf () =
  let arch = Arch.SM86 in
  let kernel =
    Kernels.Gemm.tensor_core arch
      (Kernels.Gemm.test_config arch)
      ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:32 ()
  in
  let leaves = count_leaves kernel in
  check_bool "kernel has leaves" true (leaves > 0);
  let before = !Atomic.find_calls in
  let plan = Pipeline.lower arch kernel in
  check_int "one find per leaf during lowering" (before + leaves)
    !Atomic.find_calls;
  check_int "every leaf resolved" leaves (Plan.count_atomics plan.Plan.body);
  let args =
    List.map
      (fun (p : Ts.t) ->
        (p.Ts.name, Array.make (L.cosize p.Ts.layout) 0.0))
      kernel.Spec.params
  in
  let after_lower = !Atomic.find_calls in
  ignore (Interp.run_plan plan ~args ());
  ignore (Interp.run_plan plan ~args ());
  check_int "zero finds during plan execution" after_lower !Atomic.find_calls

(* ----- compiled offsets vs symbolic enumeration ----- *)

let test_compiled_offsets_match () =
  let arch = Arch.SM86 in
  let kernel =
    Kernels.Gemm.tensor_core arch
      (Kernels.Gemm.test_config arch)
      ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:32 ()
  in
  let views =
    Spec.fold_specs
      (fun acc s ->
        if s.Spec.decomp = None then acc @ s.Spec.ins @ s.Spec.outs else acc)
      [] kernel.Spec.body
  in
  check_bool "collected views" true (views <> []);
  let checked = ref 0 in
  List.iter
    (fun v ->
      (* Give every free variable of this view a slot; bind loop vars to
         a small non-zero value so strides actually matter. *)
      let extra =
        List.filter
          (fun n -> not (List.mem_assoc n Lower.Slots.base_scope))
          (Ts.free_vars v)
      in
      let scope =
        Lower.Slots.base_scope @ List.mapi (fun i n -> (n, 2 + i)) extra
      in
      let st = Lower.Slots.create () in
      let cview = Lower.Expr_comp.compile_view st scope v in
      List.iter
        (fun tid ->
          let bs =
            ("threadIdx.x", tid) :: ("blockIdx.x", 0)
            :: List.mapi (fun i n -> (n, (i mod 2) + 1)) extra
          in
          let env_arr =
            Array.make (List.length scope + Lower.Slots.count st + 8) 0
          in
          List.iter
            (fun (name, value) ->
              match List.assoc_opt name scope with
              | Some slot -> env_arr.(slot) <- value
              | None -> ())
            bs;
          let sym = Ts.scalar_offsets ~env:(fun n -> List.assoc n bs) v in
          let compiled = cview env_arr in
          incr checked;
          Alcotest.(check (array int))
            (Printf.sprintf "offsets of %%%s (tid %d)" v.Ts.name tid)
            sym compiled)
        [ 0; 5; 31; 64; 127 ])
    views;
  check_bool "checked some views" true (!checked > 0)

(* ----- lazy error semantics ----- *)

let test_unmatched_leaf_is_lazy () =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.cta "cta" [ 32 ] in
  let thr = Tt.select cta [ B.thread_idx ] in
  let a = Ts.create_rm "A" [ 32 ] Dt.FP32 Ms.Global in
  let dst = Ts.select a [ B.thread_idx ] in
  (* A 7-element register move matches no atomic spec. *)
  let r = Ts.create "r" (L.vector 7) Dt.FP32 Ms.Register in
  let bogus = B.move ~threads:thr ~src:r ~dst:(Ts.select a [ E.zero ]) () in
  let kernel dead =
    B.kernel "lazy" ~grid ~cta ~params:[ a ]
      [ Graphene.Spec.Alloc r
      ; B.if_ B.(E.const (if dead then 1 else 0) ==. E.zero) [ bogus ]
      ; B.init ~threads:thr 1.0 ~dst ()
      ]
  in
  (* Unreachable unmatched leaf: lowering succeeds, execution succeeds. *)
  let plan = Pipeline.lower Arch.SM86 (kernel true) in
  let buf = Array.make 32 0.0 in
  ignore (Interp.run_plan plan ~args:[ ("A", buf) ] ());
  check_bool "dead unmatched leaf never fires" true (buf.(0) = 1.0);
  (* Reachable: the same diagnostic the tree interpreter raises. *)
  let plan_live = Pipeline.lower Arch.SM86 (kernel false) in
  check_bool "live unmatched leaf raises" true
    (try
       ignore (Interp.run_plan plan_live ~args:[ ("A", Array.make 32 0.0) ] ());
       false
     with Interp.Exec_error msg ->
       contains msg "no atomic spec matches"
       && contains msg "near-miss candidates")

let test_unbound_scalar_message () =
  let kernel =
    Kernels.Gemm.naive_parametric ~launch_m:16 ~launch_n:16 ~bm:16 ~bn:16
      ~tm:4 ~tn:4 ()
  in
  let plan = Pipeline.lower Arch.SM86 kernel in
  let args =
    [ ("A", Array.make 256 0.0); ("B", Array.make 256 0.0)
    ; ("C", Array.make 256 0.0)
    ]
  in
  check_bool "missing scalar raises the tree path's message" true
    (try
       ignore (Interp.run_plan plan ~args ());
       false
     with Interp.Exec_error msg ->
       (try
          ignore (Interp.run_tree ~arch:Arch.SM86 kernel ~args ());
          false
        with Interp.Exec_error msg' -> String.equal msg msg'))

(* The log sees the input listing, then each of the six passes once,
   in order — with and without software pipelining. swpipe rewrites the
   kernel before flatten, so at 3 stages the flatten render is already
   the pipelined loop, waiting with two groups in flight. *)
let test_pass_order () =
  let kernel =
    Kernels.Gemm.tensor_core Arch.SM86
      (Kernels.Gemm.test_config Arch.SM86)
      ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:128 ()
  in
  List.iter
    (fun stages ->
      let seen = ref [] in
      let log ~pass ~doc:_ render = seen := (pass, render) :: !seen in
      let plan = Pipeline.lower ~log ~stages Arch.SM86 kernel in
      Alcotest.(check (list string))
        (Printf.sprintf "passes at stages %d" stages)
        [ "input"; "validate"; "swpipe"; "flatten"; "resolve"; "vectorize"
        ; "compile"
        ]
        (List.rev_map fst !seen);
      check_int
        (Printf.sprintf "stages %d: swpipe outcome" stages)
        stages plan.Plan.pipelining.Plan.pl_stages;
      check_bool
        (Printf.sprintf "stages %d: flatten renders the pipelined loop" stages)
        (stages = 3)
        (contains (List.assoc "flatten" !seen) "cp.async.wait_group(2)"))
    [ 1; 3 ]

(* ----- satellites: add_instr_n, instruction classes ----- *)

let test_add_instr_n () =
  let a = C.create () and b = C.create () in
  List.iter
    (fun (name, n) ->
      C.add_instr_n a name n;
      for _ = 1 to n do
        C.add_instr b name
      done)
    [ ("fma.rn.f32", 3); ("ldmatrix.x4", 1); ("fma.rn.f32", 2)
    ; ("mma.m16n8k16", 0); ("cp.async.f16x8", 128)
    ];
  Alcotest.(check (list (pair string int)))
    "mix equals n repeated add_instr" (C.instr_mix_alist b)
    (C.instr_mix_alist a);
  check_int "instructions equal" b.C.instructions a.C.instructions

let klass name =
  match Atomic.lookup name with
  | Some i -> i.Atomic.klass
  | None -> Alcotest.failf "%s is not in the registry" name

let test_instr_classes () =
  let ldmatrix name x trans =
    check_bool name true (klass name = Atomic.Ldmatrix { x; trans })
  in
  ldmatrix "ldmatrix.x1" 1 false;
  ldmatrix "ldmatrix.x2" 2 false;
  ldmatrix "ldmatrix.x4" 4 false;
  ldmatrix "ldmatrix.x1.trans" 1 true;
  ldmatrix "ldmatrix.x2.trans" 2 true;
  ldmatrix "ldmatrix.x4.trans" 4 true;
  let mma name m n k =
    check_bool name true (klass name = Atomic.Mma { m; n; k })
  in
  mma "mma.m16n8k16" 16 8 16;
  mma "mma.m16n8k16.bf16" 16 8 16;
  mma "mma.m8n8k4" 8 8 4;
  List.iter
    (fun (name, expected) -> check_bool name true (klass name = expected))
    [ ("ld.global.v4.b32.f16x8", Atomic.Global_move)
    ; ("st.global.f32", Atomic.Global_move)
    ; ("ld.shared.b16", Atomic.Shared_move)
    ; ("st.shared.bf16", Atomic.Shared_move)
    ; ("cp.async.bf16x8", Atomic.Cp_async)
    ; ("cp.async.wait_group", Atomic.Async_fence)
    ; ("mov.rf", Atomic.Mov)
    ; ("cvt.fp16.fp32", Atomic.Cvt)
    ; ("hfma2", Atomic.Fma)
    ; ("fmaf", Atomic.Fma)
    ; ("pointwise.unary", Atomic.Unary_pw)
    ; ("binary.mul.f16", Atomic.Binary_pw)
    ; ("pointwise.binary", Atomic.Binary_pw)
    ; ("red.thread", Atomic.Reduction)
    ; ("shfl.sync", Atomic.Shfl)
    ; ("init", Atomic.Init)
    ]

(* The class alone decides which flop counter an issue lands in and
   whether it is an async copy. *)
let test_book_issue () =
  let cost =
    { Atomic.flops = 8; global_bytes = 0; shared_bytes = 0; instructions = 2 }
  in
  let book name =
    let c = C.create () in
    (match Atomic.lookup name with
    | Some i -> C.book_issue c i cost ~instances:3
    | None -> Alcotest.failf "%s is not in the registry" name);
    c
  in
  let mma = book "mma.m8n8k4" in
  check_int "mma: tensor-core flops" 24 mma.C.tensor_core_flops;
  check_int "mma: no CUDA-core flops" 0 mma.C.flops;
  check_int "mma: instructions" 6 mma.C.instructions;
  Alcotest.(check (list (pair string int)))
    "mma: mix" [ ("mma.m8n8k4", 3) ] (C.instr_mix_alist mma);
  let cp = book "cp.async.f16x8" in
  check_int "cp.async: copies" 3 cp.C.async_copies;
  check_int "cp.async: flops" 24 cp.C.flops;
  let fma = book "fmaf" in
  check_int "fma: CUDA-core flops" 24 fma.C.flops;
  check_int "fma: no tensor-core flops" 0 fma.C.tensor_core_flops;
  check_int "fma: no copies" 0 fma.C.async_copies

let () =
  Alcotest.run "lower"
    [ ( "pipeline",
        [ Alcotest.test_case "find called once per leaf" `Quick
            test_find_called_once_per_leaf
        ; Alcotest.test_case "compiled offsets match symbolic" `Quick
            test_compiled_offsets_match
        ; Alcotest.test_case "unmatched leaf stays lazy" `Quick
            test_unmatched_leaf_is_lazy
        ; Alcotest.test_case "unbound scalar message" `Quick
            test_unbound_scalar_message
        ; Alcotest.test_case "six passes in order" `Quick test_pass_order
        ] )
    ; ( "satellites",
        [ Alcotest.test_case "add_instr_n" `Quick test_add_instr_n
        ; Alcotest.test_case "instruction classes" `Quick test_instr_classes
        ; Alcotest.test_case "book_issue by class" `Quick test_book_issue
        ] )
    ]
