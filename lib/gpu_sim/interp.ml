module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Ms = Gpu_tensor.Memspace
module Dt = Gpu_tensor.Dtype
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic
module P = Lower.Plan
module Slots = Lower.Slots

exception Exec_error of string

let error fmt = Format.kasprintf (fun s -> raise (Exec_error s)) fmt

type ctx =
  { arch : Graphene.Arch.t
  ; mem : Memory.t
  ; counters : Counters.t
  ; cta_size : int
  ; prof : Profiler.t option
  ; mutable block : int  (* blockIdx.x of the block currently executing *)
  }

let sem_trace ctx =
  match ctx.prof with Some p -> Profiler.detail_trace p | None -> None

let with_tid env tid v = if String.equal v "threadIdx.x" then tid else env v

let mentions_tid e = List.mem "threadIdx.x" (E.free_vars e)

(* Group active threads by warp (ascending), modeling warp-synchronous
   issue for address batching. *)
let warps_of active =
  let by_warp = Hashtbl.create 8 in
  List.iter
    (fun tid ->
      let w = tid / 32 in
      Hashtbl.replace by_warp w
        (tid :: Option.value ~default:[] (Hashtbl.find_opt by_warp w)))
    active;
  let warps = Hashtbl.fold (fun w tids acc -> (w, List.rev tids) :: acc) by_warp [] in
  List.sort Stdlib.compare warps

(* ===== the tree-walking reference interpreter =====

   [run_tree] is the original direct interpreter: it re-resolves atomic
   specs with [Atomic.find] and re-evaluates all symbolic index
   arithmetic at every step, and batches addresses its own way, so it
   stays independent of the lowering. It shares with the compiled path
   what the atomic registry owns (the instruction class and the
   ldmatrix row views), the accounting rules, and the instruction
   bodies: both executors hand [Semantics.exec] one warp-level instance
   at a time, the tree with symbolic per-lane offsets. It is kept as the
   executable reference the compiled-plan executor ([run_plan], below)
   is tested bit-identical against; since the bodies are shared, the
   seeded digests in test/golden/sim_digests.txt pin what they compute. *)

(* Symbolic element offsets of a view for one thread. *)
let tree_offsets env v tid = Ts.scalar_offsets ~env:(with_tid env tid) v

(* First-scalar byte address of a view for one thread, or None for register
   views (registers have no shared address space to model). *)
let first_byte_address env tid (v : Ts.t) =
  match v.Ts.mem with
  | Ms.Register -> None
  | Ms.Global | Ms.Shared ->
    let offs = tree_offsets env v tid in
    if Array.length offs = 0 then None
    else Some (offs.(0) * Dt.size_bytes (Ts.dtype v))

(* One warp-synchronous access batch — the byte addresses are the first
   [len] entries of [addrs] — into the run's counters and the current
   profiler row. Shared by both executors. *)
let record_batch ctx ~global ~store ~bytes ~warp addrs ~len =
  if global then begin
    Counters.record_global_batch ctx.counters ~store ~bytes addrs ~len;
    match ctx.prof with
    | Some p ->
      Profiler.on_global_batch p ~block:ctx.block ~store ~bytes ~warp addrs
        ~len
    | None -> ()
  end
  else begin
    Counters.record_shared_batch ctx.counters ~store ~bytes addrs ~len;
    match ctx.prof with
    | Some p ->
      Profiler.on_shared_batch p ~block:ctx.block ~store ~bytes ~warp addrs
        ~len
    | None -> ()
  end

let record_view_batch ctx env tids ~store (v : Ts.t) =
  match v.Ts.mem with
  | Ms.Register -> ()
  | Ms.Global | Ms.Shared ->
    let n = try Ts.num_scalars_int v with Invalid_argument _ -> 1 in
    let bytes = n * Dt.size_bytes (Ts.dtype v) in
    let addrs =
      Array.of_list
        (List.filter_map (fun tid -> first_byte_address env tid v) tids)
    in
    if Array.length addrs > 0 then begin
      let warp = match tids with t :: _ -> t / 32 | [] -> 0 in
      let global = Ms.equal v.Ts.mem Ms.Global in
      (* One scalar request per scalar index per warp batch: the tree
         path never widens, so this is the width-1 baseline the plan
         executor's scalar-forced lowering must reproduce exactly. *)
      Counters.record_requests ctx.counters ~global ~elems:n ~width:1 ~bytes:0;
      record_batch ctx ~global ~store ~bytes ~warp addrs
        ~len:(Array.length addrs)
    end

(* ----- cp.async queue ops (shared by both executors) -----

   Commit/wait are statements, not atomic specs: they touch no counter a
   pre-pipelining kernel has (instructions, instr_mix, bytes, ...), only
   the async_* fields — which is what keeps a pipelined lowering
   bit-identical to its unpipelined twin on every pre-existing counter.
   The in-flight depth is sampled at each wait BEFORE it drains (the
   steady-state occupancy the perf model consumes), and the peak is
   tracked at each commit. *)

let exec_commit_group ctx =
  Memory.async_commit ctx.mem;
  let c = ctx.counters in
  c.Counters.async_commits <- c.Counters.async_commits + 1;
  let inflight = Memory.async_inflight ctx.mem in
  if inflight > c.Counters.async_max_inflight then
    c.Counters.async_max_inflight <- inflight

let exec_wait_group ctx n =
  let c = ctx.counters in
  c.Counters.async_waits <- c.Counters.async_waits + 1;
  c.Counters.async_inflight_sum <-
    c.Counters.async_inflight_sum + Memory.async_inflight ctx.mem;
  Memory.async_wait ctx.mem n

(* Book [instances] issues of one atomic instruction of cost [c], into
   the run's counters and the current profiler row — shared by both
   executors (the tree computes [c] per call, the plan precomputes it). *)
let book_cost ctx (instr : Atomic.instr) (c : Atomic.cost) ~instances =
  Counters.book_issue ctx.counters instr c ~instances;
  match ctx.prof with
  | Some p -> Profiler.on_cost p instr c ~instances
  | None -> ()

(* The tree's operands: symbolic offsets, per thread. *)
let tree_operands env views =
  Array.of_list
    (List.map
       (fun v -> Semantics.operand v ~by_tid:(tree_offsets env v))
       views)

(* Execute a per-thread atomic spec for all active threads, warp by warp, so
   that address batches model warp-synchronous coalescing. *)
let exec_per_thread ctx (instr : Atomic.instr) (s : Spec.t) env active =
  let warps = warps_of active in
  let cost = instr.Atomic.cost s in
  let dur = max 1 cost.Atomic.instructions in
  let ins = tree_operands env s.Spec.ins
  and outs = tree_operands env s.Spec.outs in
  List.iter
    (fun (w, tids) ->
      (* Address accounting happens before data movement so that loads
         observe pre-instruction state (irrelevant for addresses). *)
      List.iter (record_view_batch ctx env tids ~store:false) s.Spec.ins;
      List.iter (record_view_batch ctx env tids ~store:true) s.Spec.outs;
      let tids = Array.of_list tids in
      let lanes = Array.length tids in
      Semantics.exec ?trace:(sem_trace ctx) ~block:ctx.block ctx.mem ~instr
        ~spec:s ~env ~tids ~lanes ~ins ~outs;
      Option.iter
        (fun p -> Profiler.exec_event p ~block:ctx.block ~warp:w ~lanes ~dur)
        ctx.prof)
    warps;
  book_cost ctx instr cost ~instances:(List.length active)

(* ldmatrix address traffic: each lane supplies one 16-byte address covering
   a stored row (a logical column for the .trans variants); matrices are
   consumed in phases of eight lanes. *)
let record_ldmatrix ctx ~trans x (s : Spec.t) env members =
  match s.Spec.ins with
  | [ src ] ->
    let elt = Dt.size_bytes (Ts.dtype src) in
    let rows = Atomic.ldmatrix_rows ~trans x src in
    for j = 0 to x - 1 do
      let addrs =
        Array.map
          (fun row -> (tree_offsets env row members.(0)).(0) * elt)
          rows.(j)
      in
      Counters.record_requests ctx.counters ~global:false ~elems:1 ~width:1
        ~bytes:0;
      record_batch ctx ~global:false ~store:false ~bytes:16
        ~warp:(members.(0) / 32) addrs ~len:8
    done
  | _ -> ()

let exec_collective ctx (instr : Atomic.instr) (s : Spec.t) env active =
  (* Group the active threads into instances of the collective. *)
  let seen = Hashtbl.create 8 in
  let active_set = Hashtbl.create 64 in
  List.iter (fun t -> Hashtbl.replace active_set t ()) active;
  let groups = ref [] in
  List.iter
    (fun tid ->
      let members =
        Tt.member_ids ~env:(with_tid env tid) s.Spec.threads
      in
      let key = Array.to_list members in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.replace seen key ();
        if not (Array.for_all (Hashtbl.mem active_set) members) then
          error "collective %s executed with divergent threads"
            instr.Atomic.name;
        groups := members :: !groups
      end)
    active;
  let groups = List.rev !groups in
  let cost = instr.Atomic.cost s in
  let dur = max 1 cost.Atomic.instructions in
  let ins = tree_operands env s.Spec.ins
  and outs = tree_operands env s.Spec.outs in
  List.iter
    (fun members ->
      (match instr.Atomic.klass with
      | Atomic.Ldmatrix { x; trans } ->
        record_ldmatrix ctx ~trans x s env members
      | _ -> ());
      Semantics.exec ?trace:(sem_trace ctx) ~block:ctx.block ctx.mem ~instr
        ~spec:s ~env ~tids:members ~lanes:(Array.length members) ~ins ~outs;
      Option.iter
        (fun p ->
          Profiler.exec_event p ~block:ctx.block ~warp:(members.(0) / 32)
            ~lanes:(Array.length members) ~dur)
        ctx.prof)
    groups;
  book_cost ctx instr cost ~instances:(List.length groups)

let rec exec_stmt ctx env active stmt =
  match stmt with
  | Spec.Comment _ | Spec.Alloc _ -> ()
  | Spec.Sync ->
    (* A barrier under divergent control flow deadlocks real hardware. *)
    if List.length active <> ctx.cta_size then
      error "__syncthreads() inside divergent control flow (%d of %d threads)"
        (List.length active) ctx.cta_size;
    Option.iter (fun p -> Profiler.on_barrier p ~block:ctx.block) ctx.prof
  | Spec.Commit_group -> exec_commit_group ctx
  | Spec.Wait_group n -> exec_wait_group ctx n
  | Spec.For { var; lo; hi; step; body; _ } ->
    if mentions_tid lo || mentions_tid hi || mentions_tid step then
      error "loop %s has thread-dependent bounds" var;
    let lo = E.eval ~env lo and hi = E.eval ~env hi and step = E.eval ~env step in
    if step <= 0 then error "loop %s has non-positive step" var;
    Option.iter (fun p -> Profiler.enter_frame p var) ctx.prof;
    let v = ref lo in
    while !v < hi do
      let env' x = if String.equal x var then !v else env x in
      List.iter (exec_stmt ctx env' active) body;
      v := !v + step
    done;
    Option.iter Profiler.exit_frame ctx.prof
  | Spec.If { cond; then_; else_ } ->
    if Spec.pred_mentions "threadIdx.x" cond then begin
      let taken, not_taken =
        List.partition
          (fun tid -> Spec.eval_pred (with_tid env tid) cond)
          active
      in
      if taken <> [] then List.iter (exec_stmt ctx env taken) then_;
      if not_taken <> [] && else_ <> [] then
        List.iter (exec_stmt ctx env not_taken) else_
    end
    else if Spec.eval_pred env cond then
      List.iter (exec_stmt ctx env active) then_
    else List.iter (exec_stmt ctx env active) else_
  | Spec.Spec_stmt s -> (
    match s.Spec.decomp with
    | Some body ->
      let framed = String.length s.Spec.label > 0 in
      if framed then
        Option.iter (fun p -> Profiler.enter_frame p s.Spec.label) ctx.prof;
      List.iter (exec_stmt ctx env active) body;
      if framed then Option.iter Profiler.exit_frame ctx.prof
    | None -> (
      match Atomic.find ctx.arch s with
      | None ->
        error "no atomic spec matches %s"
          (Format.asprintf "%a" Spec.pp { s with Spec.decomp = None })
      | Some instr ->
        Option.iter
          (fun p ->
            Profiler.begin_atomic p ~label:s.Spec.label
              ~kind:(Spec.kind_name s.Spec.kind) ~instr:instr.Atomic.name)
          ctx.prof;
        if instr.Atomic.threads = 1 then exec_per_thread ctx instr s env active
        else exec_collective ctx instr s env active))

(* ===== parallel grid execution =====

   Thread blocks are independent: each owns its shared memory, register
   files and barrier scope, and distinct blocks write disjoint global
   cells (the same contract real hardware gives a kernel). So a launch
   on [domains] domains cuts the grid into that many contiguous
   ascending block ranges ([Domain_pool.block_ranges], the split the
   schedule search and the serving engine use), one pool task each.
   Each range builds its own executor state against the shared global
   arena, with private block-local memory, a fresh counter set and a
   forked profiler; once the batch has joined, the ranges merge into the
   caller's sinks in ascending order. The merge order is fixed, so every
   observable — counters, profiler reports, Chrome traces, output
   buffers — is bit-identical to the 1-domain run. See
   docs/PARALLELISM.md for the full argument. *)

let resolve_domains ?domains ~grid_size () =
  let d =
    match domains with Some d -> d | None -> Domain_pool.default_domains ()
  in
  max 1 (min d grid_size)

(* The driver shared by [run_tree] and [run_plan]. [make_state c p]
   builds one range's executor state recording into the sinks [c] and
   [p]; [exec_block st bid] executes one thread block into them. A range
   stops at its first failing block and [run_list] re-raises the lowest
   failing range's exception, so a launch raises its lowest failing
   block's fault at every domain count. *)
let run_grid ~domains ~grid_size ~counters ~profiler ~make_state ~exec_block =
  let run_range counters profiler (lo, hi) =
    let st = make_state counters profiler in
    for bid = lo to hi - 1 do
      exec_block st bid
    done
  in
  if domains <= 1 then run_range counters profiler (0, grid_size)
  else
    Domain_pool.run_list (Domain_pool.global ())
      (List.map
         (fun range () ->
           let c = Counters.create () in
           let p = Option.map Profiler.fork profiler in
           run_range c p range;
           (c, p))
         (Domain_pool.block_ranges ~total:grid_size ~chunks:domains))
    |> List.iter (fun (c, p) ->
           Counters.merge counters c;
           match (profiler, p) with
           | Some dst, Some src -> Profiler.merge_into dst src
           | _ -> ())

let run_tree ~arch ?profiler ?domains (k : Spec.kernel) ~args ?(scalars = []) ()
    =
  let arena = Memory.create_global () in
  List.iter (fun (name, data) -> Memory.bind_arena arena name data) args;
  let allocs = Spec.allocs k.Spec.body in
  let declare mem =
    List.iter
      (fun (t : Ts.t) ->
        match t.Ts.mem with
        | Ms.Shared ->
          Memory.declare_shared mem t.Ts.buffer (Ts.alloc_size t)
        | Ms.Register ->
          Memory.declare_regs mem t.Ts.buffer (L.cosize t.Ts.layout)
        | Ms.Global -> error "Alloc of a global tensor %s" t.Ts.buffer)
      allocs
  in
  let cta_size = Tt.size k.Spec.cta in
  let grid_size = Tt.size k.Spec.grid in
  let base_env v =
    match List.assoc_opt v scalars with
    | Some n -> n
    | None -> error "unbound variable %s (missing scalar argument?)" v
  in
  let all_threads = List.init cta_size Fun.id in
  let counters = Counters.create () in
  let domains = resolve_domains ?domains ~grid_size () in
  run_grid ~domains ~grid_size ~counters ~profiler
    ~make_state:(fun counters prof ->
      let mem = Memory.of_global arena in
      declare mem;
      { arch; mem; counters; cta_size; prof; block = 0 })
    ~exec_block:(fun ctx bid ->
      Memory.new_block ctx.mem;
      ctx.block <- bid;
      Option.iter Profiler.begin_block ctx.prof;
      let env v = if String.equal v "blockIdx.x" then bid else base_env v in
      List.iter (exec_stmt ctx env all_threads) k.Spec.body);
  counters

(* ===== the compiled-plan executor =====

   Runs a [Lower.Plan.t]'s op tree with one recursive match over
   [Plan.op]. Atomic resolution already happened (once, at lowering),
   loop bounds / predicates / view offsets are closures over one dense
   slot array, and all profiler attribution strings and costs are
   precomputed; [Semantics.exec] dispatches on the resolved
   instruction's class.

   Active sets are per-warp 32-bit masks ([Warp_mask]) instead of thread
   id lists; a divergent branch splits them into a preallocated arena
   with one taken/not-taken pair per nesting depth
   ([Plan.divergence_depth] sizes it). The plan's per-lane marks decide
   how often a view is enumerated: a per-lane view once per lane, any
   other once per call, by its first lane. Only collective member
   groupings are cached across calls, reused while the slots their
   member function reads ([members_slots]) and the active mask are
   unchanged — equal inputs give equal groups. Address batches read
   only the first scalar offset, via the allocation-free [v_addr0]
   closure.

   Lane tables: where the compile pass split a per-lane view's offset
   or a divergent guard's comparison sides into a uniform and a lane
   part ([Plan.t.lanes]), the range's state tabulates each lane part
   for every tid of the CTA when it is built, and each call evaluates
   the uniform part once, at the first lane that needs it; a lane then
   reads [u + table.(tid)] in address batches, operand offsets, the
   fast path's bases and the guard's taken masks. The tables are a
   function of the scalar bindings alone, so nothing invalidates them
   during a launch. A view whose lane part faults while it is
   tabulated keeps its per-lane closure for the launch, and a guard
   with a side that has no table runs its per-lane closure, so the
   fault fires where the tree path raises it, or never.

   Dispatch allocates nothing: profiler hooks are direct matches on
   [ctx.prof], loops are [while] loops, and every scratch buffer lives
   in the per-range state; test_bytecode's allocation budget pins the
   minor words per simulated cell.

   Observable behavior — counters (bar the request counters, which
   follow the plan's vector widths), profiler events and their order,
   traces, error messages, memory effects — is bit-identical to
   [run_tree]; the equivalence matrix of test/corpus.ml pins that down
   per kernel family. *)

module WM = Warp_mask

let no_addr = Lower.Expr_comp.no_addr

(* Name lookup for the residual symbolic paths (a shfl.idx source-lane
   expression, a derived ldmatrix row view). *)
let plan_env_fun (a : P.atomic) (env : int array) name =
  match a.P.a_lookup name with
  | Some slot ->
    let x = env.(slot) in
    if x = Slots.unbound then
      error "unbound variable %s (missing scalar argument?)" name
    else x
  | None -> error "unbound variable %s (missing scalar argument?)" name

(* Cached collective grouping: valid for the same snapshot of the
   member function's block and loop slots AND the same activity mask
   (the groups are a function of both). *)
type gcache =
  { mutable gc_valid : bool
  ; gc_snap : int array
  ; gc_mask : int array
  ; mutable gc_groups : int array array
  }

(* A lane split's per-range state: its lane part, tabulated by tid when
   the state is built, and its uniform part's value [u], evaluated at
   the first lane that needs it in the call numbered [stamp]. *)
type lane_state =
  { uniform : Lower.Expr_comp.cexpr
  ; tab : int array
  ; mutable stamp : int
  ; mutable u : int
  }

(* Tabulate a lane part for tids 0 .. cta_size-1 under the range's
   scalar bindings. [None] when it faults (a division by a scalar bound
   to 0, an unbound scalar): the expression then keeps its per-lane
   closure for the launch, which faults where the tree path does. *)
let tabulate env ~cta_size (l : Lower.Expr_comp.lanes) =
  match
    Array.init cta_size (fun tid ->
        env.(Slots.tid_slot) <- tid;
        l.Lower.Expr_comp.lane env)
  with
  | tab -> Some { uniform = l.Lower.Expr_comp.uniform; tab; stamp = -1; u = 0 }
  | exception (Division_by_zero | Slots.Unbound_var _) -> None

(* The split expression's value at lane [tid] during call [call]. *)
let lane_value env call ls tid =
  if ls.stamp <> call then begin
    ls.u <- ls.uniform env;
    ls.stamp <- call
  end;
  ls.u + Array.unsafe_get ls.tab tid

(* One block range's executor state, built once per range and reused
   for every block it runs: the slot env, one full-CTA mask, the
   divergence-mask arena, reusable scratch buffers, the collective-group
   caches and the per-atomic closures ([plan_env_fun] and the operands),
   all indexed by the plan's dense atomic ids, and the lane tables,
   indexed by lane-split id, with the number of the current call: each
   atomic call and each divergent guard evaluation takes the next one,
   so a uniform part is evaluated once per call. *)
type pctx =
  { c : ctx
  ; env : int array
  ; full : WM.t
  ; taken : WM.t array  (* divergence mask arena, by branch depth *)
  ; not_taken : WM.t array
  ; addrs : int array  (* address batch scratch: one slot per warp lane *)
  ; ld8 : int array  (* ldmatrix row-address scratch *)
  ; tids : int array  (* one warp's active tids, ascending *)
  ; gcaches : gcache array  (* seated for collectives *)
  ; seen : (int array, unit) Hashtbl.t  (* group-dedup scratch *)
  ; a_envf : (string -> int) array
  ; a_ins : Semantics.operand array array
  ; a_outs : Semantics.operand array array
  ; tables : lane_state option array
  ; call : int ref
  }

let snap_matches snap slots (env : int array) =
  let n = Array.length slots in
  let rec go i =
    i >= n
    || Array.unsafe_get snap i
       = Array.unsafe_get env (Array.unsafe_get slots i)
       && go (i + 1)
  in
  go 0

let snap_update snap slots (env : int array) =
  for i = 0 to Array.length slots - 1 do
    Array.unsafe_set snap i (Array.unsafe_get env (Array.unsafe_get slots i))
  done

(* The lane table of a split view or guard side, where this range has
   one. *)
let table tables (l : Lower.Expr_comp.lanes) = tables.(l.Lower.Expr_comp.id)

let closure_addr0 bx (pv : P.view) tid =
  bx.env.(Slots.tid_slot) <- tid;
  pv.P.v_addr0 bx.env

(* First scalar offset of a per-lane view for lane [tid]. *)
let view_addr0 bx (pv : P.view) tid =
  match pv.P.v_lanes with
  | Some vl -> (
    match table bx.tables vl.Lower.Expr_comp.base with
    | Some ls ->
      Lower.Expr_comp.view_addr0 vl (lane_value bx.env !(bx.call) ls tid)
    | None -> closure_addr0 bx pv tid)
  | None -> closure_addr0 bx pv tid

(* Seat one call's operands: a per-lane view is enumerated per lane, any
   other once, by the first lane that needs it — its offsets cannot
   change while the call runs. *)
let rec seat_operands views (ops : Semantics.operand array) i =
  match views with
  | [] -> ()
  | (pv : P.view) :: tl ->
    ops.(i).Semantics.addressing <-
      (if pv.P.v_per_lane then Semantics.By_thread
       else Semantics.Uniform_pending);
    seat_operands tl ops (i + 1)

(* Build one range's executor state. An operand's offsets closure reads
   its lane table, or the slot env as it stands, after setting the tid
   slot for a per-lane view. *)
let make_pctx ctx (plan : P.t) (env : int array) =
  let cta_size = plan.P.cta_size in
  let nwords = WM.nwords ~cta_size in
  let n = plan.P.n_atomics in
  let gcaches =
    Array.make n
      { gc_valid = false; gc_snap = [||]; gc_mask = [||]; gc_groups = [||] }
  in
  let a_envf = Array.make n (fun _ -> 0) in
  let a_ins = Array.make n [||] and a_outs = Array.make n [||] in
  let tables = Array.map (tabulate env ~cta_size) plan.P.lanes in
  let call = ref 0 in
  P.iter_atomics
    (fun a ->
      let operand (pv : P.view) =
        let split =
          match pv.P.v_lanes with
          | Some vl -> Option.map (fun ls -> (vl, ls)) (table tables vl.base)
          | None -> None
        in
        let by_tid =
          match split with
          | Some (vl, ls) ->
            fun tid ->
              Lower.Expr_comp.view_offsets vl (lane_value env !call ls tid)
          | None ->
            if pv.P.v_per_lane then (fun tid ->
              env.(Slots.tid_slot) <- tid;
              pv.P.v_offsets env)
            else fun _ -> pv.P.v_offsets env
        in
        let op = Semantics.operand pv.P.v_ts ~by_tid in
        if a.P.a_fastcopy then op.Semantics.bases <- Array.make 32 0;
        op
      in
      a_envf.(a.P.a_id) <- plan_env_fun a env;
      a_ins.(a.P.a_id) <- Array.of_list (List.map operand a.P.a_ins);
      a_outs.(a.P.a_id) <- Array.of_list (List.map operand a.P.a_outs);
      match a.P.a_threads with
      | P.Per_thread -> ()
      | P.Collective { members_slots; _ } ->
        gcaches.(a.P.a_id) <-
          { gc_valid = false
          ; gc_snap = Array.make (Array.length members_slots) Slots.unbound
          ; gc_mask = Array.make nwords 0
          ; gc_groups = [||]
          })
    plan.P.body;
  let depth = P.divergence_depth plan.P.body in
  { c = ctx
  ; env
  ; full = WM.full ~cta_size
  ; taken = Array.init depth (fun _ -> Array.make nwords 0)
  ; not_taken = Array.init depth (fun _ -> Array.make nwords 0)
  ; addrs = Array.make 32 0
  ; ld8 = Array.make 8 0
  ; tids = Array.make 32 0
  ; gcaches
  ; seen = Hashtbl.create 32
  ; a_envf
  ; a_ins
  ; a_outs
  ; tables
  ; call
  }

(* One warp's address batch for one view: first scalar byte address per
   active lane, ascending. A thread-independent view yields one address
   computed once and duplicated per lane — the byte totals and the
   conflict phase structure depend on the lane count, so the duplicates
   are semantically load-bearing, not waste. *)
let plan_record_batch bx w wmask ~store (pv : P.view) =
  match pv.P.v_mem with
  | Ms.Register -> ()
  | Ms.Global | Ms.Shared ->
    let env = bx.env and addrs = bx.addrs in
    let n = ref 0 in
    if pv.P.v_per_lane then begin
      let base = w * 32 in
      for l = 0 to 31 do
        if wmask land (1 lsl l) <> 0 then begin
          let a = view_addr0 bx pv (base + l) in
          if a <> no_addr then begin
            Array.unsafe_set addrs !n (a * pv.P.v_elt_bytes);
            incr n
          end
        end
      done
    end
    else begin
      let a = pv.P.v_addr0 env in
      if a <> no_addr then begin
        let count = WM.popcount32 wmask in
        let byte = a * pv.P.v_elt_bytes in
        for i = 0 to count - 1 do
          Array.unsafe_set addrs i byte
        done;
        n := count
      end
    end;
    if !n > 0 then begin
      let ctx = bx.c in
      let bytes = pv.P.v_batch_bytes in
      (* Request accounting at the view's executed vector width. Only the
         request/vectorized counters see the widening; the byte and
         sector accounting below is untouched, so a widened plan differs
         from its scalar twin in requests alone. *)
      let global = Ms.equal pv.P.v_mem Ms.Global in
      Counters.record_requests ctx.counters ~global
        ~elems:(bytes / pv.P.v_elt_bytes)
        ~width:pv.P.v_vec_width ~bytes:(bytes * !n);
      record_batch ctx ~global ~store ~bytes ~warp:w addrs ~len:!n
    end

let rec plan_record_batches bx w wmask ~store = function
  | [] -> ()
  | pv :: tl ->
    plan_record_batch bx w wmask ~store pv;
    plan_record_batches bx w wmask ~store tl

(* The wide-transaction fast path: a vector-widened, full-span
   contiguous move, whose every active lane covers exactly
   [addr0, addr0 + n) on both sides, hands its body each lane's two
   bases instead of offset enumerations. *)
let seat_contiguous bx (a : P.atomic) ~lanes =
  match (a.P.a_ins, a.P.a_outs) with
  | [ src ], [ dst ] ->
    let si = bx.a_ins.(a.P.a_id).(0) and so = bx.a_outs.(a.P.a_id).(0) in
    let n = src.P.v_batch_bytes / src.P.v_elt_bytes in
    si.Semantics.addressing <- Semantics.Contiguous;
    si.Semantics.span <- n;
    so.Semantics.addressing <- Semantics.Contiguous;
    so.Semantics.span <- n;
    for l = 0 to lanes - 1 do
      let tid = bx.tids.(l) in
      si.Semantics.bases.(l) <- view_addr0 bx src tid;
      so.Semantics.bases.(l) <- view_addr0 bx dst tid
    done
  | _ ->
    error "fast-path move %s is not one source to one destination (plan \
           invariant violated)"
      a.P.a_instr.Atomic.name

(* One warp at a time: book its address batches, collect its active
   tids and hand them to the instruction's body in one call. Counter
   accounting is the same on the fast path and off it. *)
let plan_exec_per_thread bx (a : P.atomic) (mask : WM.t) =
  let ctx = bx.c in
  let ins = bx.a_ins.(a.P.a_id) and outs = bx.a_outs.(a.P.a_id) in
  incr bx.call;
  if not a.P.a_fastcopy then begin
    seat_operands a.P.a_ins ins 0;
    seat_operands a.P.a_outs outs 0
  end;
  let envf = bx.a_envf.(a.P.a_id) in
  let trace = sem_trace ctx in
  let total = ref 0 in
  for w = 0 to Array.length mask - 1 do
    let m = Array.unsafe_get mask w in
    if m <> 0 then begin
      plan_record_batches bx w m ~store:false a.P.a_ins;
      plan_record_batches bx w m ~store:true a.P.a_outs;
      let base = w * 32 in
      let lanes = ref 0 in
      for l = 0 to 31 do
        if m land (1 lsl l) <> 0 then begin
          bx.tids.(!lanes) <- base + l;
          incr lanes
        end
      done;
      let lanes = !lanes in
      if a.P.a_fastcopy then seat_contiguous bx a ~lanes;
      Semantics.exec ?trace ~block:ctx.block ctx.mem ~instr:a.P.a_instr
        ~spec:a.P.a_spec ~env:envf ~tids:bx.tids ~lanes ~ins ~outs;
      total := !total + lanes;
      match ctx.prof with
      | Some p ->
        Profiler.exec_event p ~block:ctx.block ~warp:w ~lanes ~dur:a.P.a_dur
      | None -> ()
    end
  done;
  book_cost ctx a.P.a_instr a.P.a_cost ~instances:!total

let plan_record_ldmatrix bx (a : P.atomic) ~trans x members =
  let ctx = bx.c in
  match a.P.a_ld_rows with
  | Some (rows, elt_bytes) ->
    bx.env.(Slots.tid_slot) <- members.(0);
    for j = 0 to x - 1 do
      let rj = rows.(j) in
      for r = 0 to 7 do
        let addr = rj.(r) bx.env in
        (* An empty row enumeration faults as an array access does on
           the tree path; keep the same exception. *)
        if addr = no_addr then invalid_arg "index out of bounds";
        Array.unsafe_set bx.ld8 r (addr * elt_bytes)
      done;
      Counters.record_requests ctx.counters ~global:false ~elems:1 ~width:1
        ~bytes:0;
      record_batch ctx ~global:false ~store:false ~bytes:16
        ~warp:(members.(0) / 32) bx.ld8 ~len:8
    done
  | None ->
    (* Symbolic fallback (e.g. an outer extent the compiler couldn't make
       concrete) — identical traffic, derived the tree path's way. *)
    record_ldmatrix ctx ~trans x a.P.a_spec (bx.a_envf.(a.P.a_id)) members

(* Group the active threads into collective instances: probe every active
   thread ascending, dedup on the member array, and require every member
   of a fresh group to be active — exactly the tree path's grouping, so
   overlapping or divergent member sets fail identically. *)
let compute_groups bx (a : P.atomic) members_of (mask : WM.t) =
  Hashtbl.clear bx.seen;
  let groups = ref [] and n = ref 0 in
  WM.iter
    (fun tid ->
      let members = members_of bx.env tid in
      if not (Hashtbl.mem bx.seen members) then begin
        Hashtbl.replace bx.seen members ();
        if not (Array.for_all (WM.mem mask) members) then
          error "collective %s executed with divergent threads"
            a.P.a_instr.Atomic.name;
        groups := members :: !groups;
        incr n
      end)
    mask;
  let out = Array.make !n [||] in
  let rec fill i = function
    | [] -> ()
    | g :: tl ->
      out.(i) <- g;
      fill (i - 1) tl
  in
  fill (!n - 1) !groups;
  out

let plan_groups bx (a : P.atomic) members_of members_slots (mask : WM.t) =
  let gc = bx.gcaches.(a.P.a_id) in
  if
    gc.gc_valid
    && snap_matches gc.gc_snap members_slots bx.env
    && WM.equal gc.gc_mask mask
  then gc.gc_groups
  else begin
    let groups = compute_groups bx a members_of mask in
    gc.gc_groups <- groups;
    snap_update gc.gc_snap members_slots bx.env;
    Array.blit mask 0 gc.gc_mask 0 (Array.length mask);
    gc.gc_valid <- true;
    groups
  end

let plan_exec_collective bx (a : P.atomic) members_of members_slots
    (mask : WM.t) =
  let ctx = bx.c in
  let groups = plan_groups bx a members_of members_slots mask in
  let ins = bx.a_ins.(a.P.a_id) and outs = bx.a_outs.(a.P.a_id) in
  incr bx.call;
  seat_operands a.P.a_ins ins 0;
  seat_operands a.P.a_outs outs 0;
  let envf = bx.a_envf.(a.P.a_id) in
  let trace = sem_trace ctx in
  for g = 0 to Array.length groups - 1 do
    let members = Array.unsafe_get groups g in
    (match a.P.a_instr.Atomic.klass with
    | Atomic.Ldmatrix { x; trans } -> plan_record_ldmatrix bx a ~trans x members
    | _ -> ());
    Semantics.exec ?trace ~block:ctx.block ctx.mem ~instr:a.P.a_instr
      ~spec:a.P.a_spec ~env:envf ~tids:members ~lanes:(Array.length members)
      ~ins ~outs;
    match ctx.prof with
    | Some p ->
      Profiler.exec_event p ~block:ctx.block ~warp:(members.(0) / 32)
        ~lanes:(Array.length members) ~dur:a.P.a_dur
    | None -> ()
  done;
  book_cost ctx a.P.a_instr a.P.a_cost ~instances:(Array.length groups)

(* A divergent guard's taken mask, lane by lane through its per-lane
   closure: bits of [mask] whose lane passes [cond]. *)
let closure_taken env cond (mask : WM.t) (taken : WM.t) =
  for w = 0 to Array.length mask - 1 do
    let m = Array.unsafe_get mask w in
    let t = ref 0 in
    if m <> 0 then begin
      let base = w * 32 in
      for l = 0 to 31 do
        if m land (1 lsl l) <> 0 then begin
          env.(Slots.tid_slot) <- base + l;
          if cond env then t := !t lor (1 lsl l)
        end
      done
    end;
    Array.unsafe_set taken w !t
  done

(* A guard side without a lane table in this range. *)
exception Untabled

(* The taken bits among the non-empty lane set [m] of the warp word at
   [base], through the guard's lane tables. [&&] and [||] short-circuit
   on lane sets, so a lane evaluates a comparison only where the
   per-lane closure would reach it. *)
let rec guard_word bx g base m =
  match (g : Lower.Expr_comp.guard) with
  | Cmp (r, Some a, Some b) -> (
    match (table bx.tables a, table bx.tables b) with
    | Some ta, Some tb ->
      let env = bx.env and call = !(bx.call) in
      let t = ref 0 in
      for l = 0 to 31 do
        if m land (1 lsl l) <> 0 then begin
          let x = lane_value env call ta (base + l) in
          if Spec.holds r x (lane_value env call tb (base + l)) then
            t := !t lor (1 lsl l)
        end
      done;
      !t
    | _ -> raise Untabled)
  | Cmp _ -> raise Untabled
  | And (p, q) ->
    let t = guard_word bx p base m in
    if t = 0 then 0 else guard_word bx q base t
  | Or (p, q) ->
    let t = guard_word bx p base m in
    let rest = m land lnot t in
    if rest = 0 then t else t lor guard_word bx q base rest
  | Not p -> m land lnot (guard_word bx p base m)

(* The taken mask through the guard's lane tables; through the per-lane
   closure when a side has none. On a fault, replay the per-lane closure
   lane by lane: comparisons are pure, and the replay raises the fault
   of the lane that reaches one first, as the tree path does. *)
let guard_taken bx g cond (mask : WM.t) (taken : WM.t) =
  incr bx.call;
  try
    for w = 0 to Array.length mask - 1 do
      let m = Array.unsafe_get mask w in
      Array.unsafe_set taken w
        (if m = 0 then 0 else guard_word bx g (w * 32) m)
    done
  with
  | Untabled -> closure_taken bx.env cond mask taken
  | (Division_by_zero | Slots.Unbound_var _) as e ->
    closure_taken bx.env cond mask taken;
    raise e

(* The dispatch: execute [ops] in order under [mask]. [depth] is the
   number of enclosing divergent branches, which indexes the mask arena:
   everything inside a divergent branch's bodies runs at depth+1 or
   deeper, so the pair at [depth] is free for reuse by the next branch
   at this level. *)
let rec exec_ops bx (mask : WM.t) depth = function
  | [] -> ()
  | op :: tl ->
    exec_op bx mask depth op;
    exec_ops bx mask depth tl

and exec_op bx (mask : WM.t) depth = function
  | P.Atomic_exec a -> (
    let ctx = bx.c in
    (match ctx.prof with
    | Some p ->
      Profiler.begin_atomic p ~label:a.P.a_label ~kind:a.P.a_kind
        ~instr:a.P.a_instr.Atomic.name
    | None -> ());
    match a.P.a_threads with
    | P.Per_thread -> plan_exec_per_thread bx a mask
    | P.Collective { members; members_slots; _ } ->
      plan_exec_collective bx a members members_slots mask)
  | P.Loop { l_var; l_slot; l_lo; l_hi; l_step; l_body } ->
    let env = bx.env in
    let lo = l_lo env in
    let hi = l_hi env in
    let step = l_step env in
    if step <= 0 then error "loop %s has non-positive step" l_var;
    let ctx = bx.c in
    (match ctx.prof with
    | Some p -> Profiler.enter_frame p l_var
    | None -> ());
    let v = ref lo in
    while !v < hi do
      env.(l_slot) <- !v;
      exec_ops bx mask depth l_body;
      v := !v + step
    done;
    (match ctx.prof with Some p -> Profiler.exit_frame p | None -> ())
  | P.Branch { b_guard = None; b_cond; b_then; b_else } ->
    if b_cond bx.env then exec_ops bx mask depth b_then
    else exec_ops bx mask depth b_else
  | P.Branch { b_guard = Some g; b_cond; b_then; b_else } -> (
    (* The words are rewritten wholesale — including zeroing where the
       incoming mask word is 0, since a previous branch at this depth
       may have left stale bits there. *)
    let taken = Array.unsafe_get bx.taken depth in
    let not_taken = Array.unsafe_get bx.not_taken depth in
    guard_taken bx g b_cond mask taken;
    for w = 0 to Array.length mask - 1 do
      Array.unsafe_set not_taken w
        (Array.unsafe_get mask w land lnot (Array.unsafe_get taken w))
    done;
    if not (WM.is_empty taken) then exec_ops bx taken (depth + 1) b_then;
    (* An absent else arm is skipped without consulting the mask, as the
       tree path does. *)
    match b_else with
    | [] -> ()
    | _ ->
      if not (WM.is_empty not_taken) then
        exec_ops bx not_taken (depth + 1) b_else)
  | P.Barrier -> (
    let ctx = bx.c in
    let active = WM.popcount mask in
    if active <> ctx.cta_size then
      error "__syncthreads() inside divergent control flow (%d of %d threads)"
        active ctx.cta_size;
    match ctx.prof with
    | Some p -> Profiler.on_barrier p ~block:ctx.block
    | None -> ())
  | P.Frame { f_label; f_body } ->
    let ctx = bx.c in
    (match ctx.prof with
    | Some p -> Profiler.enter_frame p f_label
    | None -> ());
    exec_ops bx mask depth f_body;
    (match ctx.prof with Some p -> Profiler.exit_frame p | None -> ())
  | P.Fail msg -> error "%s" msg
  | P.Commit_group -> exec_commit_group bx.c
  | P.Wait_group n -> exec_wait_group bx.c n

(* ===== the plan executor ===== *)

(* Compatibility shim: the executor has one engine. The type, its name
   and [run_plan]'s [?engine] remain only because the benchmark harness
   (perfbench/) still names them; they go when it stops doing so. *)
type engine = Bytecode

let engine_name Bytecode = "bytecode"
let default_plan_engine () = Bytecode

let run_plan ?profiler ?domains ?engine:(_ : engine option) (plan : P.t) ~args
    ?(scalars = []) () =
  let arena = Memory.create_global () in
  List.iter (fun (name, data) -> Memory.bind_arena arena name data) args;
  let declare mem =
    List.iter
      (fun (al : P.alloc) ->
        match al.P.al_mem with
        | Ms.Shared -> Memory.declare_shared mem al.P.al_buffer al.P.al_size
        | Ms.Register -> Memory.declare_regs mem al.P.al_buffer al.P.al_size
        | Ms.Global -> error "Alloc of a global tensor %s" al.P.al_buffer)
      plan.P.allocs
  in
  let base_env = Array.make plan.P.nslots Slots.unbound in
  List.iter
    (fun (name, v) ->
      match List.assoc_opt name plan.P.scalar_slots with
      | Some slot -> base_env.(slot) <- v
      | None -> () (* extra scalar args are ignored, as in run_tree *))
    scalars;
  let grid_size = plan.P.grid_size in
  let counters = Counters.create () in
  let domains = resolve_domains ?domains ~grid_size () in
  (* Each range's state gets its own block-local memory, its own copy of
     the scalar bindings (the slot env is mutated during execution) and
     its own group caches and scratch buffers, shared by nothing. *)
  run_grid ~domains ~grid_size ~counters ~profiler
    ~make_state:(fun counters prof ->
      let mem = Memory.of_global arena in
      declare mem;
      make_pctx
        { arch = plan.P.arch
        ; mem
        ; counters
        ; cta_size = plan.P.cta_size
        ; prof
        ; block = 0
        }
        plan (Array.copy base_env))
    ~exec_block:(fun bx bid ->
      let ctx = bx.c in
      Memory.new_block ctx.mem;
      ctx.block <- bid;
      (match ctx.prof with
      | Some p -> Profiler.begin_block p
      | None -> ());
      bx.env.(Slots.bid_slot) <- bid;
      try exec_ops bx bx.full 0 plan.P.body
      with Slots.Unbound_var v ->
        error "unbound variable %s (missing scalar argument?)" v);
  counters

(* Lower once (through the plan cache), execute. Callers running the same
   kernel repeatedly with different scalar arguments hit the cache; see
   Lower.Pipeline.lower_cached. *)
let run ~arch ?profiler ?domains (k : Spec.kernel) ~args ?scalars () =
  let plan, _cache_hit = Lower.Pipeline.lower_cached arch k in
  run_plan ?profiler ?domains plan ~args ?scalars ()
