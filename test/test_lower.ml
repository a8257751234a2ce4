(* Tests for the lowering pipeline and the compiled-plan executor (plan
   against tree equivalence over every kernel family is the matrix of
   corpus.ml, run by test_equivalence):

   - Atomic.find is called exactly once per leaf spec per lowering and
     never at execution time;
   - compiled view offsets match the symbolic enumeration;
   - lazy error semantics (unmatched leaves, unbound scalars);
   - lane splits: the split is exact in machine integers, the serving
     FFN kernel's views and divergent guard split, and a lane part or
     uniform part that faults faults where the tree path does, or
     never;
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

let occurrences s sub =
  let n = String.length sub in
  let rec go i acc =
    if i + n > String.length s then acc
    else
      go (i + 1)
        (if String.equal (String.sub s i n) sub then acc + 1 else acc)
  in
  go 0 0

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
      let cview = (Lower.Expr_comp.compile_view st scope v).offsets in
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

(* ----- lane splits ----- *)

(* Index expressions over threadIdx.x, blockIdx.x, a loop counter [k]
   and a scalar [S], with constants large enough to overflow: one per
   split rule and refusal, then random ones combining terms over the
   lane variables, the uniform ones and [S] alone by every operator.
   Where an expression splits, [uniform + lane] equals it at every
   binding, the uniform part ignores threadIdx.x, the lane part reads
   nothing but threadIdx.x and [S], and the parts fault exactly when the
   expression does. *)
let test_split_exact () =
  let rng = Random.State.make [| 28 |] in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let huge = E.Const (max_int / 3) in
  let const () =
    if Random.State.bool rng then E.Const (Random.State.int rng 9 - 2)
    else E.Const (max_int / (1 + Random.State.int rng 5))
  in
  let op a b =
    match Random.State.int rng 10 with
    | 0 | 1 | 2 -> E.Add (a, b)
    | 3 -> E.Sub (a, b)
    | 4 | 5 | 6 -> E.Mul (a, b)
    | 7 -> E.Div (a, b)
    | 8 -> E.Mod (a, b)
    | _ -> if Random.State.bool rng then E.Min (a, b) else E.Max (a, b)
  in
  let rec term vars depth =
    if depth = 0 then
      if Random.State.int rng 5 = 0 then const () else E.Var (pick vars)
    else op (term vars (depth - 1)) (term vars (depth - 1))
  in
  let rec gen depth =
    if depth = 0 then
      term
        (pick
           [ [ "threadIdx.x" ]; [ "threadIdx.x"; "S" ]; [ "blockIdx.x"; "k" ]
           ; [ "S" ]
           ])
        (Random.State.int rng 2)
    else op (gen (depth - 1)) (gen (depth - 1))
  in
  let tid = E.Var "threadIdx.x" and bid = E.Var "blockIdx.x" in
  let k = E.Var "k" and sv = E.Var "S" in
  let tk = E.Add (tid, k) in
  let fixed =
    [ E.Add (E.Mul (E.Add (E.Mul (bid, E.Const 16), E.Add (tid, k)), sv), k)
    ; E.Sub (E.Mul (E.Const 3, E.Sub (tid, k)), bid)
    ; E.Mul (E.Add (tk, sv), huge)
    ; E.Mul (huge, E.Sub (k, E.Mul (tid, sv)))
    ; E.Sub (E.Const 0, tk)
    ; E.Div (tk, E.Const 3)
    ; E.Div (tk, sv)
    ; E.Mod (tk, E.Const 64)
    ; E.Min (tid, k)
    ; E.Max (tk, bid)
    ; E.Mul (tk, E.Add (k, E.Const 1))
    ; E.Mul (tk, tid)
    ; E.Add (E.Div (k, sv), tid)
    ; E.Add (E.Div (tid, sv), k)
    ; E.Mul (E.Const 0, E.Add (E.Div (k, sv), tid))
    ]
  in
  let exprs =
    fixed @ List.init 600 (fun _ -> gen (1 + Random.State.int rng 3))
  in
  let eval c env = match c env with v -> Ok v | exception e -> Error e in
  let module Sl = Lower.Slots in
  let split = ref 0 in
  List.iter (fun e ->
    let label = E.to_string e in
    let st = Sl.create () in
    let k = Sl.fresh_loop st in
    let scope = Sl.base_scope @ [ ("k", k) ] in
    let whole = Lower.Expr_comp.compile st scope e in
    match
      Lower.Expr_comp.compile_lanes (Lower.Expr_comp.registry ()) st scope e
    with
    | None -> ()
    | Some { Lower.Expr_comp.uniform; lane; _ } ->
      incr split;
      let env = Array.make (Sl.count st) Sl.unbound in
      let bind ~tid ~bid ~kv =
        env.(Sl.tid_slot) <- tid;
        env.(Sl.bid_slot) <- bid;
        env.(k) <- kv
      in
      for _ = 1 to 8 do
        Option.iter
          (fun slot -> env.(slot) <- Random.State.int rng 7 - 1)
          (Sl.find_scalar st "S");
        let tid = Random.State.int rng 128 in
        bind ~tid ~bid:(Random.State.int rng 5) ~kv:(Random.State.int rng 5);
        let w = eval whole env and u = eval uniform env in
        let l = eval lane env in
        (match (w, u, l) with
        | Ok w, Ok u, Ok l when w <> u + l ->
          Alcotest.failf "%s: %d <> %d + %d" label w u l
        | Ok _, Ok _, Ok _ | Error _, Error _, _ | Error _, _, Error _ -> ()
        | _ -> Alcotest.failf "%s: the parts fault apart from the whole" label);
        (* The lane part reads no block or loop slot, the uniform part
           no tid slot. *)
        bind ~tid ~bid:Sl.unbound ~kv:Sl.unbound;
        if eval lane env <> l then Alcotest.failf "%s: lane part" label;
        bind ~tid:(tid + 1) ~bid:3 ~kv:1;
        let u1 = eval uniform env in
        env.(Sl.tid_slot) <- Sl.unbound;
        if eval uniform env <> u1 then Alcotest.failf "%s: uniform part" label
      done)
    exprs;
  check_bool "some expressions split" true (!split > 100)

(* The serving engine's FFN kernel (the parametric naive GEMM on its
   32x64 launch grid): its three views and its divergent guard against
   [M] and [N] are lane-split on both architectures, and the listing
   marks them, so a silent fallback to per-lane closures fails here. *)
let test_ffn_lane_split () =
  let kernel =
    Kernels.Gemm.naive_parametric ~launch_m:32 ~launch_n:64 ~bm:16 ~bn:16
      ~tm:4 ~tn:4 ()
  in
  List.iter
    (fun arch ->
      let plan = Pipeline.lower arch kernel in
      let views = ref [] in
      Plan.iter_atomics
        (fun a -> views := !views @ a.Plan.a_ins @ a.Plan.a_outs)
        plan.Plan.body;
      let tag = Arch.name arch in
      check_int (tag ^ ": three views") 3 (List.length !views);
      List.iter
        (fun (v : Plan.view) ->
          check_bool
            (Printf.sprintf "%s: %%%s lane-split" tag v.Plan.v_ts.Ts.name)
            true
            (Option.is_some v.Plan.v_lanes))
        !views;
      let listing = Plan.to_string plan in
      check_int (tag ^ ": one divergent guard") 1
        (occurrences listing "#divergent");
      check_bool (tag ^ ": the guard is lane-split") true
        (contains listing "branch #divergent,lane-table {");
      check_int (tag ^ ": listing marks the views") 3
        (occurrences listing "per-lane,lane-table]");
      (* The lane splits are numbered densely: the views' offsets and the
         guard's four comparison sides. *)
      Array.iteri
        (fun i (l : Lower.Expr_comp.lanes) ->
          check_int (Printf.sprintf "%s: lane split %d" tag i) i
            l.Lower.Expr_comp.id)
        plan.Plan.lanes;
      check_int (tag ^ ": lane splits") 7 (Array.length plan.Plan.lanes))
    Arch.all

(* A lane part or a uniform part that faults must fault where the tree
   path does, or never. One block of 64 threads runs a 2-trip loop [k];
   under [guard], every thread stores 1.0 to A[cell]. [Z] is bound to
   0. *)
let lane_fault_kernel guard cell =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.linear "cta" 64 Tt.Thread in
  let tid = B.thread_idx and z = E.var "Z" in
  let thr = Tt.select cta [ tid ] in
  let a = Ts.create_rm "A" [ 128 ] Dt.FP32 Ms.Global in
  B.kernel "lane_faults" ~scalar_params:[ "Z" ] ~grid ~cta ~params:[ a ]
    [ B.for_ "k" (E.const 2) (fun k ->
          [ B.if_ (guard tid k z)
              [ B.init ~threads:thr 1.0 ~dst:(Ts.select a [ cell tid k z ]) ()
              ]
          ])
    ]

(* Each case runs on the tree and on the plan at 1 and 2 domains, with
   the same outcome: the same output or the same exception. The one
   exception is a view offset dividing by zero once reached: the tree
   evaluates view offsets by substitution and simplification and raises
   [Invalid_argument] from [Int_expr.to_int_exn] at lane 1 (0 / 0
   simplifies to 0), while the plan's per-lane closure raises
   [Division_by_zero] at lane 0; that case checks that both fault and
   that the plan still raises what its per-lane closure raises. The last
   field of a case says whether its guard runs on lane tables. *)
let test_lane_faults () =
  let own tid k _ = E.add (E.mul k (E.const 64)) tid in
  (* The lane part [tid / Z] cannot be tabulated, so the view keeps its
     per-lane closure. *)
  let lane_div tid k z = E.add (E.mul k (E.const 64)) (E.div tid z) in
  let lt a b = Spec.Cmp (Spec.Lt, a, b) in
  let none tid _ _ = lt tid E.zero and some tid _ _ = lt tid (E.const 3) in
  let uniform_div tid k z = lt (E.add (E.div k z) tid) (E.const 5) in
  let cases =
    [ ("view lane part / 0, no lane passes", none, lane_div, `Same, true)
    ; ( "view lane part / 0, some lanes pass"
      , some
      , lane_div
      , `Both_fault "Division_by_zero", true )
    ; ( "&&: lane part / 0 on the right, no lane reaches it"
      , (fun tid k z -> Spec.And (none tid k z, lt (E.div tid z) (E.const 5)))
      , own
      , `Same, true )
    ; ( "&&: uniform part / 0 on the right, no lane reaches it"
      , (fun tid k z -> Spec.And (none tid k z, uniform_div tid k z))
      , own
      , `Same, true )
    ; ( "&&: uniform part / 0 on the right, some lanes reach it"
      , (fun tid k z -> Spec.And (some tid k z, uniform_div tid k z))
      , own
      , `Same, true )
    ; ( "||: lane part / 0 on the right, no lane reaches it"
      , (fun tid _ z ->
          Spec.Or (lt tid (E.const 64), lt (E.div tid z) (E.const 5)))
      , own
      , `Same, true )
    ; ( "&&: lane part / 0 on the right, some lanes reach it"
      , (fun tid k z -> Spec.And (some tid k z, lt (E.div tid z) (E.const 5)))
      , own
      , `Same, true )
      (* [(tid + k) mod 3] does not split, so neither side of the [&&]
         gets a table and the guard runs its per-lane closure. *)
    ; ( "unsplit guard"
      , (fun tid k _ ->
          Spec.And
            ( some tid k E.zero
            , Spec.Cmp (Spec.Eq, E.rem (E.add tid k) (E.const 3), E.zero) ))
      , own
      , `Same, false )
    ]
  in
  let show = function Ok _ -> "no fault" | Error e -> e in
  List.iter
    (fun (label, guard, cell, expect, tables) ->
      let kernel = lane_fault_kernel guard cell in
      let plan = Pipeline.lower Arch.SM86 kernel in
      check_bool (label ^ ": guard has lane tables") tables
        (contains (Plan.to_string plan) "#divergent,lane-table");
      (* A guard's sides are numbered only when all of them split. *)
      if not tables then
        check_int (label ^ ": only the view is split") 1
          (Array.length plan.Plan.lanes);
      let outcome run =
        let a = Array.make 128 0.0 in
        match run a with
        | _ -> Ok a
        | exception e -> Error (Printexc.to_string e)
      in
      let scalars = [ ("Z", 0) ] in
      let tree =
        outcome (fun a ->
            Interp.run_tree ~arch:Arch.SM86 ~domains:1 kernel
              ~args:[ ("A", a) ] ~scalars ())
      in
      List.iter
        (fun domains ->
          let tag = Printf.sprintf "%s, plan at %d domain(s)" label domains in
          let got =
            outcome (fun a ->
                Interp.run_plan ~domains plan ~args:[ ("A", a) ] ~scalars ())
          in
          match expect with
          | `Same ->
            Alcotest.(check string) tag (show tree) (show got);
            check_bool (tag ^ ": outputs") true (got = tree)
          | `Both_fault exn ->
            check_bool (tag ^ ": the tree faults") true (Result.is_error tree);
            Alcotest.(check string) tag exn (show got))
        [ 1; 2 ])
    cases

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
    ; ( "lane tables",
        [ Alcotest.test_case "split is exact" `Quick test_split_exact
        ; Alcotest.test_case "FFN views and guard split" `Quick
            test_ffn_lane_split
        ; Alcotest.test_case "faults stay where the tree raises" `Quick
            test_lane_faults
        ] )
    ; ( "satellites",
        [ Alcotest.test_case "add_instr_n" `Quick test_add_instr_n
        ; Alcotest.test_case "instruction classes" `Quick test_instr_classes
        ; Alcotest.test_case "book_issue by class" `Quick test_book_issue
        ] )
    ]
