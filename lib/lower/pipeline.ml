(* The lowering pipeline: Spec.kernel -> Plan.t, in six named passes.

     validate   advisory structural diagnostics (shapes, allocations)
     swpipe     async staging loops rewritten to rotating-buffer
                pipelines at [stages >= 2] (see Swpipe); a spec-to-spec
                rewrite, so every later pass sees the pipelined kernel
     flatten    decomposition tree -> flat statement list (allocs and
                comments dropped, labeled decompositions become frames,
                thread-dependent loop bounds become lazy failures)
     resolve    each leaf spec paired with its atomic instruction —
                Atomic.find runs exactly once per leaf, never at
                execution time; unmatched leaves become lazy failures
                listing near-miss candidates
     vectorize  unit-stride contiguity / alignment proof per view:
                eligible per-thread moves widen to v2/v4 vector atomics,
                near-misses carry the refusal reason; fully-static
                shared views get the bank-conflict lint
     compile    expressions, predicates, view offsets and thread
                arrangements compiled to closures over the slot array,
                each view once; each view is marked per-lane when it
                reads threadIdx.x, per-lane offsets and divergent
                guards are also split into a uniform and a lane part,
                each member function keys its group cache by the block
                and loop slots it reads, and the vector widths ride
                along; the resulting op tree is what Interp.run_plan
                executes

   Atomic matching (Validate.check_atomics) is deliberately NOT part of
   the validate pass: the resolve pass subsumes it, and running it would
   double the Atomic.find calls the pipeline promises to make only once
   per leaf. *)

module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Ms = Gpu_tensor.Memspace
module Dt = Gpu_tensor.Dtype
module Arch = Graphene.Arch
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic
module Validate = Graphene.Validate

let mentions_tid e = List.mem "threadIdx.x" (E.free_vars e)

(* ----- the flattened intermediate form ----- *)

type 'leaf fstmt =
  | F_leaf of 'leaf
  | F_loop of
      { var : string; lo : E.t; hi : E.t; step : E.t; body : 'leaf fstmt list }
  | F_branch of Spec.pred * 'leaf fstmt list * 'leaf fstmt list
  | F_barrier
  | F_commit_group
  | F_wait_group of int
  | F_frame of string * 'leaf fstmt list
  | F_fail of string

let rec pp_fstmt pp_leaf fmt = function
  | F_leaf l -> pp_leaf fmt l
  | F_loop { var; lo; hi; step; body } ->
    Format.fprintf fmt "@[<v 2>for(%s = %a; %s < %a; %s += %a) {@,%a@]@,}" var
      E.pp lo var E.pp hi var E.pp step (pp_fbody pp_leaf) body
  | F_branch (p, then_, []) ->
    Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,}" Spec.pp_pred p
      (pp_fbody pp_leaf) then_
  | F_branch (p, then_, else_) ->
    Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,} else {@,%a@,}" Spec.pp_pred p
      (pp_fbody pp_leaf) then_ (pp_fbody pp_leaf) else_
  | F_barrier -> Format.fprintf fmt "__syncthreads()"
  | F_commit_group -> Format.fprintf fmt "cp.async.commit_group()"
  | F_wait_group n -> Format.fprintf fmt "cp.async.wait_group(%d)" n
  | F_frame (label, body) ->
    Format.fprintf fmt "@[<v 2>frame %S {@,%a@]@,}" label (pp_fbody pp_leaf)
      body
  | F_fail msg -> (
    match String.index_opt msg '\n' with
    | None -> Format.fprintf fmt "fail %S" msg
    | Some i -> Format.fprintf fmt "fail %S ..." (String.sub msg 0 i))

and pp_fbody pp_leaf fmt stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_fstmt pp_leaf) fmt
    stmts

let render_fstmts pp_leaf stmts =
  Format.asprintf "@[<v>%a@]" (pp_fbody pp_leaf) stmts

let rec map_leaves f = function
  | F_leaf l -> f l
  | F_loop r -> F_loop { r with body = List.map (map_leaves f) r.body }
  | F_branch (p, t, e) ->
    F_branch (p, List.map (map_leaves f) t, List.map (map_leaves f) e)
  | F_barrier -> F_barrier
  | F_commit_group -> F_commit_group
  | F_wait_group n -> F_wait_group n
  | F_frame (lbl, body) -> F_frame (lbl, List.map (map_leaves f) body)
  | F_fail m -> F_fail m

(* ----- pass 1: validate ----- *)

let validate_pass =
  Pass.make ~name:"validate"
    ~doc:"advisory structural diagnostics (shapes, allocations)"
    ~render:(fun (_, diags) ->
      if diags = [] then "ok"
      else String.concat "\n" (List.map (fun d -> "WARN " ^ d) diags))
    (fun (k : Spec.kernel) ->
      (k, Validate.check_shapes k @ Validate.check_allocs k))

(* ----- pass 2: swpipe ----- *)

let pipelining_of_verdict (v : Swpipe.verdict) : Plan.pipelining =
  let note = Swpipe.verdict_to_string v in
  let refusals =
    List.map
      (fun (var, r) -> (var, Swpipe.reason_to_string r))
      v.Swpipe.refusals
  in
  match v.Swpipe.loops with
  | [] -> { Plan.unpipelined with Plan.pl_note = note; pl_refusals = refusals }
  | loops ->
    { Plan.pl_stages =
        List.fold_left (fun acc p -> max acc p.Swpipe.p_stages) 1 loops
    ; pl_buffers = List.concat_map (fun p -> p.Swpipe.p_buffers) loops
    ; pl_stage_bytes =
        List.fold_left (fun acc p -> acc + p.Swpipe.p_stage_bytes) 0 loops
    ; pl_queue_bound =
        List.fold_left (fun acc p -> max acc p.Swpipe.p_queue_bound) 0 loops
    ; pl_note = note
    ; pl_refusals = refusals
    }

(* A spec-level rewrite: every later pass, and the plan's [kernel], sees
   the pipelined form, so [run_tree] on the plan's kernel checks the
   same schedule [run_plan] executes. An unpipelined verdict returns the
   kernel itself. *)
let swpipe_pass arch ~stages =
  Pass.make ~name:"swpipe"
    ~doc:"software-pipeline async staging loops (rotating shared buffers)"
    ~render:(fun (_, pl) -> pl.Plan.pl_note)
    (fun k ->
      let k, verdict = Swpipe.rewrite arch ~stages k in
      (k, pipelining_of_verdict verdict))

(* ----- pass 3: flatten ----- *)

let rec flatten_stmts stmts = List.concat_map flatten_stmt stmts

and flatten_stmt (st : Spec.stmt) : Spec.t fstmt list =
  match st with
  | Spec.Comment _ | Spec.Alloc _ -> []
  | Spec.Sync -> [ F_barrier ]
  | Spec.Commit_group -> [ F_commit_group ]
  | Spec.Wait_group n -> [ F_wait_group n ]
  | Spec.For { var; lo; hi; step; body; _ } ->
    if mentions_tid lo || mentions_tid hi || mentions_tid step then
      [ F_fail (Printf.sprintf "loop %s has thread-dependent bounds" var) ]
    else [ F_loop { var; lo; hi; step; body = flatten_stmts body } ]
  | Spec.If { cond; then_; else_ } ->
    [ F_branch (cond, flatten_stmts then_, flatten_stmts else_) ]
  | Spec.Spec_stmt s -> (
    match s.Spec.decomp with
    | Some body ->
      let inner = flatten_stmts body in
      if String.length s.Spec.label > 0 then [ F_frame (s.Spec.label, inner) ]
      else inner
    | None -> [ F_leaf s ])

let flatten_pass =
  Pass.make ~name:"flatten"
    ~doc:"decomposition tree to flat statements (allocs/comments dropped)"
    ~render:(render_fstmts Spec.pp)
    (fun (k : Spec.kernel) -> flatten_stmts k.Spec.body)

(* ----- pass 4: resolve ----- *)

(* The instruction classes a spec kind's near-miss listing draws from. *)
let same_family (kind : Spec.kind) (klass : Atomic.klass) =
  match (kind, klass) with
  | ( Spec.Move,
      ( Atomic.Global_move | Atomic.Shared_move | Atomic.Cp_async
      | Atomic.Async_fence | Atomic.Mov | Atomic.Cvt | Atomic.Ldmatrix _ ) )
  | Spec.Mat_mul, (Atomic.Mma _ | Atomic.Fma)
  | Spec.Unary_pointwise _, Atomic.Unary_pw
  | Spec.Binary_pointwise _, Atomic.Binary_pw
  | Spec.Reduction _, Atomic.Reduction
  | Spec.Shfl _, Atomic.Shfl
  | Spec.Init _, (Atomic.Init | Atomic.Mov) ->
    true
  | _ -> false

let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* The tree interpreter's unmatched-spec message, extended with the
   closest registry candidates of the same family so the user can see
   which signature constraint (dtype, extent, memory space, thread
   count) rejected the spec. *)
let unmatched_message arch (s : Spec.t) =
  let base =
    Format.asprintf "no atomic spec matches %a" Spec.pp
      { s with Spec.decomp = None }
  in
  let cands =
    List.filter
      (fun (i : Atomic.instr) ->
        List.exists (Arch.equal arch) i.Atomic.archs
        && same_family s.Spec.kind i.Atomic.klass)
      Atomic.registry
  in
  match take 6 cands with
  | [] -> base
  | cands ->
    base
    ^ Printf.sprintf "\n  near-miss candidates on %s:" (Arch.name arch)
    ^ String.concat ""
        (List.map
           (fun (i : Atomic.instr) ->
             Printf.sprintf "\n    %-26s %s (%s) -> (%s)" i.Atomic.name
               i.Atomic.sig_threads i.Atomic.sig_ins i.Atomic.sig_outs)
           cands)

let resolve_pass arch =
  Pass.make ~name:"resolve"
    ~doc:"pair each leaf spec with its atomic instruction (once)"
    ~render:
      (render_fstmts (fun fmt ((s : Spec.t), (i : Atomic.instr)) ->
           Format.fprintf fmt "%a@,  -> %s" Spec.pp s i.Atomic.name))
    (fun stmts ->
      List.map
        (map_leaves (fun (s : Spec.t) ->
             match Atomic.find arch s with
             | Some instr -> F_leaf (s, instr)
             | None -> F_fail (unmatched_message arch s)))
        stmts)

(* ----- pass 5: vectorize ----- *)

(* Annotate every leaf with its widening verdict and bank lint. The
   recursion tracks whether the leaf sits under a thread-dependent branch
   (the divergent-mask hazard the legality rules refuse); loop bodies and
   frames are transparent. The pass runs even when widening is disabled —
   the bank lint and the per-view diagnostics are wanted either way, and
   a disabled lowering records [Refused Disabled] on every atomic. *)
let rec vectorize_stmts ~enabled ~cta_size divergent stmts =
  List.map (vectorize_stmt ~enabled ~cta_size divergent) stmts

and vectorize_stmt ~enabled ~cta_size divergent = function
  | F_leaf ((s : Spec.t), (instr : Atomic.instr)) ->
    F_leaf (s, instr, Vectorize.of_leaf ~enabled ~divergent ~cta_size s instr)
  | F_loop r ->
    F_loop
      { r with body = vectorize_stmts ~enabled ~cta_size divergent r.body }
  | F_branch (p, then_, else_) ->
    let dv = divergent || Spec.pred_mentions "threadIdx.x" p in
    F_branch
      ( p
      , vectorize_stmts ~enabled ~cta_size dv then_
      , vectorize_stmts ~enabled ~cta_size dv else_ )
  | F_barrier -> F_barrier
  | F_commit_group -> F_commit_group
  | F_wait_group n -> F_wait_group n
  | F_frame (label, body) ->
    F_frame (label, vectorize_stmts ~enabled ~cta_size divergent body)
  | F_fail msg -> F_fail msg

let vectorize_pass ~enabled ~cta_size =
  Pass.make ~name:"vectorize"
    ~doc:"unit-stride/alignment legality: widen moves to v2/v4, lint banks"
    ~render:
      (render_fstmts
         (fun fmt ((_ : Spec.t), (i : Atomic.instr), (v : Vectorize.leaf)) ->
           Format.fprintf fmt "%s: %a" i.Atomic.name Vectorize.pp_leaf v))
    (fun stmts -> vectorize_stmts ~enabled ~cta_size false stmts)

(* ----- pass 6: compile ----- *)

(* The key of the executor's group cache: the slots of the blockIdx.x
   and loop counters a member function reads — the only slots that
   change during a launch besides threadIdx.x, which is the probe. Both
   live in [scope] (blockIdx.x in the base scope, loop binders prepended
   innermost first), so the assoc hit is exactly the slot the member
   closure was compiled against; scalar parameters bind once per launch
   and stay out. *)
let members_slots scope (t : Tt.t) =
  Array.of_list
    (List.filter_map
       (fun v ->
         match List.assoc_opt v scope with
         | Some slot when slot <> Slots.tid_slot -> Some slot
         | _ -> None)
       (Tt.free_vars t))

(* Dense plan-wide ids: atomics index the executor's per-atomic arrays,
   lane splits its lane tables. *)
type ids =
  { mutable atomics : int
  ; splits : Expr_comp.registry
  }

let compile_atomic st ids scope (s : Spec.t) (instr : Atomic.instr)
    (vleaf : Vectorize.leaf) : Plan.atomic =
  let cost = instr.Atomic.cost s in
  let width =
    match vleaf.Vectorize.l_verdict with
    | Vectorize.Widened w -> w
    | Vectorize.Refused _ -> 1
  in
  let view (v : Ts.t) (vd : Vectorize.verdict) =
    let code = Expr_comp.compile_view ~splits:ids.splits st scope v in
    { Plan.v_ts = v
    ; v_mem = v.Ts.mem
    ; v_elt_bytes = Dt.size_bytes (Ts.dtype v)
    ; v_batch_bytes = Plan.batch_bytes v
    ; v_offsets = code.Expr_comp.offsets
    ; v_addr0 = code.Expr_comp.addr0
    ; v_per_lane = code.Expr_comp.per_lane
    ; v_lanes = code.Expr_comp.lanes
    ; v_vec = vd
    ; v_vec_width = width
    }
  in
  let a_threads =
    if instr.Atomic.threads = 1 then Plan.Per_thread
    else
      Plan.Collective
        { members = Expr_comp.compile_members st scope s.Spec.threads
        ; members_slots = members_slots scope s.Spec.threads
        }
  in
  let a_ld_rows =
    match (instr.Atomic.klass, s.Spec.ins) with
    | Atomic.Ldmatrix { x; trans }, [ src ] -> (
      (* A symbolic outer extent makes the row views underivable here;
         fall back to the interpreter's symbolic path, which raises the
         same error the tree path would — and only on execution. *)
      match
        Array.map
          (Array.map (fun v -> (Expr_comp.compile_view st scope v).addr0))
          (Atomic.ldmatrix_rows ~trans x src)
      with
      | rows -> Some (rows, Dt.size_bytes (Ts.dtype src))
      | exception _ -> None)
    | _ -> None
  in
  let a_lookup name =
    match List.assoc_opt name scope with
    | Some slot -> Some slot
    | None -> Slots.find_scalar st name
  in
  let a_id = ids.atomics in
  ids.atomics <- a_id + 1;
  { Plan.a_id
  ; a_spec = s
  ; a_instr = instr
  ; a_cost = cost
  ; a_dur = max 1 cost.Atomic.instructions
  ; a_label = s.Spec.label
  ; a_kind = Spec.kind_name s.Spec.kind
  ; a_threads
  ; a_ins = List.map2 view s.Spec.ins vleaf.Vectorize.l_ins
  ; a_outs = List.map2 view s.Spec.outs vleaf.Vectorize.l_outs
  ; a_ld_rows
  ; a_lookup
  ; a_vec = vleaf.Vectorize.l_verdict
  ; a_vec_width = width
  ; a_fastcopy = vleaf.Vectorize.l_fastcopy && width > 1
  ; a_banks = vleaf.Vectorize.l_banks
  }

let rec compile_ops st ids scope stmts =
  List.map (compile_op st ids scope) stmts

and compile_op st ids scope = function
  | F_leaf (s, instr, vleaf) ->
    Plan.Atomic_exec (compile_atomic st ids scope s instr vleaf)
  | F_loop { var; lo; hi; step; body } ->
    let l_lo = Expr_comp.compile st scope lo
    and l_hi = Expr_comp.compile st scope hi
    and l_step = Expr_comp.compile st scope step in
    let slot = Slots.fresh_loop st in
    Plan.Loop
      { l_var = var
      ; l_slot = slot
      ; l_lo
      ; l_hi
      ; l_step
      ; l_body = compile_ops st ids ((var, slot) :: scope) body
      }
  | F_branch (p, then_, else_) ->
    let b_cond = Expr_comp.compile_pred st scope p in
    let b_guard =
      if Spec.pred_mentions "threadIdx.x" p then
        Some (Expr_comp.compile_guard ids.splits st scope p)
      else None
    in
    Plan.Branch
      { b_cond
      ; b_guard
      ; b_then = compile_ops st ids scope then_
      ; b_else = compile_ops st ids scope else_
      }
  | F_barrier -> Plan.Barrier
  | F_commit_group -> Plan.Commit_group
  | F_wait_group n -> Plan.Wait_group n
  | F_frame (label, body) ->
    Plan.Frame { f_label = label; f_body = compile_ops st ids scope body }
  | F_fail msg -> Plan.Fail msg

let compile_pass ~vec_enabled ~pipelining arch diagnostics =
  Pass.make ~name:"compile"
    ~doc:"expressions, predicates and view offsets to closures"
    ~render:Plan.to_string
    (fun (k, resolved) ->
      let st = Slots.create () in
      (* Pre-register declared scalar parameters so they keep stable
         slots even when only some views mention them. *)
      List.iter
        (fun p -> ignore (Slots.scalar_slot st p))
        k.Spec.scalar_params;
      let ids = { atomics = 0; splits = Expr_comp.registry () } in
      let body = compile_ops st ids Slots.base_scope resolved in
      let allocs =
        List.map
          (fun (t : Ts.t) ->
            { Plan.al_buffer = t.Ts.buffer
            ; al_mem = t.Ts.mem
            ; al_size =
                (match t.Ts.mem with
                | Ms.Shared -> Ts.alloc_size t
                | Ms.Register -> L.cosize t.Ts.layout
                | Ms.Global -> 0)
            })
          (Spec.allocs k.Spec.body)
      in
      { Plan.kernel = k
      ; arch
      ; nslots = Slots.count st
      ; scalar_slots = Slots.scalar_alist st
      ; cta_size = Tt.size k.Spec.cta
      ; grid_size = Tt.size k.Spec.grid
      ; allocs
      ; body
      ; n_atomics = ids.atomics
      ; lanes = Expr_comp.registered ids.splits
      ; diagnostics
      ; vec_enabled
      ; pipelining
      })

(* ----- driver ----- *)

(* Passes 1-5, validate through vectorize: everything [lower] and
   [analyze] share. Returns the kernel to compile (the swpipe-rewritten
   one when the pass pipelined), the validate diagnostics, the
   vectorized statements and the swpipe outcome. *)
let front_half ?log ~vectorize ~stages arch (k : Spec.kernel) =
  (match log with
  | Some f ->
    f ~pass:"input" ~doc:"source kernel" (Spec.kernel_to_string k)
  | None -> ());
  let k, diagnostics = Pass.apply ?log validate_pass k in
  let k, pipelining =
    Pass.apply ?log (swpipe_pass arch ~stages:(max 1 stages)) k
  in
  let flat = Pass.apply ?log flatten_pass k in
  let resolved = Pass.apply ?log (resolve_pass arch) flat in
  let cta_size = Tt.size k.Spec.cta in
  let vectorized =
    Pass.apply ?log (vectorize_pass ~enabled:vectorize ~cta_size) resolved
  in
  (k, diagnostics, vectorized, pipelining)

let lower ?log ?(vectorize = true) ?(stages = 1) arch (k : Spec.kernel) :
    Plan.t =
  let k, diagnostics, vectorized, pipelining =
    front_half ?log ~vectorize ~stages arch k
  in
  Pass.apply ?log
    (compile_pass ~vec_enabled:vectorize ~pipelining arch diagnostics)
    (k, vectorized)

type analysis =
  { pipelining : Plan.pipelining
  ; widening : Plan.widening
  }

let rec iter_leaves f stmts = List.iter (iter_leaf f) stmts

and iter_leaf f = function
  | F_leaf l -> f l
  | F_loop { body; _ } | F_frame (_, body) -> iter_leaves f body
  | F_branch (_, then_, else_) ->
    iter_leaves f then_;
    iter_leaves f else_
  | F_barrier | F_commit_group | F_wait_group _ | F_fail _ -> ()

let analyze ?(vectorize = true) ?(stages = 1) arch (k : Spec.kernel) =
  let _, _, vectorized, pipelining = front_half ~vectorize ~stages arch k in
  { pipelining
  ; widening =
      Plan.widening (fun visit ->
          iter_leaves
            (fun (s, instr, (v : Vectorize.leaf)) ->
              visit instr s v.Vectorize.l_verdict)
            vectorized)
  }

(* ----- the plan cache -----

   Keyed by (arch, vectorize, stages, kernel) under full structural
   equality.
   [Spec.kernel] is pure data (no closures), so [Stdlib.(=)] is a sound
   key comparison and the generic [Hashtbl.hash] a consistent hash; and
   because scalar parameters appear in the kernel only by NAME (their
   values are bound per launch into the plan's slot array), two launches
   of the same kernel structure with different scalar values share one
   plan — the cache is keyed "modulo scalar parameter values" for free.

   A mutex guards the table: the schedule search lowers its tier-2
   proxies from several domains at once. Lowering itself runs outside
   the lock; if two domains race on the same key, the first insert wins
   and both share it. Plans are immutable, so sharing one across domains
   needs no further care. *)

type cache_stats =
  { hits : int
  ; misses : int
  }

let cache : (Arch.t * bool * int * Spec.kernel, Plan.t) Hashtbl.t =
  Hashtbl.create 32
let cache_mutex = Mutex.create ()
let cache_hits = ref 0
let cache_misses = ref 0

let cache_stats () =
  Mutex.lock cache_mutex;
  let s = { hits = !cache_hits; misses = !cache_misses } in
  Mutex.unlock cache_mutex;
  s

let cache_clear () =
  Mutex.lock cache_mutex;
  Hashtbl.reset cache;
  cache_hits := 0;
  cache_misses := 0;
  Mutex.unlock cache_mutex

let lower_cached ?(vectorize = true) ?(stages = 1) arch (k : Spec.kernel) :
    Plan.t * bool =
  let stages = max 1 stages in
  let key = (arch, vectorize, stages, k) in
  Mutex.lock cache_mutex;
  match Hashtbl.find_opt cache key with
  | Some plan ->
    incr cache_hits;
    Mutex.unlock cache_mutex;
    (plan, true)
  | None ->
    incr cache_misses;
    Mutex.unlock cache_mutex;
    let plan = lower ~vectorize ~stages arch k in
    Mutex.lock cache_mutex;
    let plan =
      match Hashtbl.find_opt cache key with
      | Some first -> first (* lost a race; share the first insert *)
      | None ->
        Hashtbl.add cache key plan;
        plan
    in
    Mutex.unlock cache_mutex;
    (plan, false)
