(* Schedule-space search: the repository's one tuner.

   Rather than sweeping scalar parameters of one fixed GEMM
   decomposition, this module searches the decomposition space itself —
   tile and warp-tile shapes, swizzle on/off, vectorize on/off, software
   pipeline depth — behind a kernel-agnostic candidate interface, so the
   same engine tunes GEMM and FMHA (and any space a caller enumerates).

   The search runs in three escalating tiers:

   1. model scoring of the full frontier: build each candidate's kernel
      IR, run the lowering's analysis half on it ({!Lower.Pipeline.analyze}:
      validate through vectorize, no compiled plan, no plan cache — lowering
      refusals reject the candidate before any simulation; the vectorize
      and swpipe verdicts feed the score), and rank by the perf model's
      latency-hiding estimate at the assumed steady-state occupancy;
   2. proxy simulation of the top-K front-runners: execute each on a
      shrunken proxy problem and feed the *measured* async-copy queue
      occupancy ({!Gpu_sim.Counters.async_occupancy}) and global access
      width ({!Gpu_sim.Counters.global_mean_vec_width}) back into the
      model, replacing tier 1's assumptions;
   3. exact verification of the winner: the proxy plan must replay
      bit-identical to the tree-walking reference interpreter on seeded
      random inputs — search aggressively because verification is exact
      (the Mirage move).

   Everything is deterministic: candidate ids are enumeration positions,
   the budget subsample is a seeded splitmix64 priority (nested across
   budgets), all parallel fan-out uses the domain pool's
   ascending-regroup discipline, and every ranking sort breaks ties on
   id — the outcome (and its JSON) is byte-identical at any domain
   count. Wall-clock fields are quarantined so [to_json ~wall:false]
   diffs clean across runs. *)

module Arch = Graphene.Arch
module Spec = Graphene.Spec
module Ts = Gpu_tensor.Tensor
module Gemm = Kernels.Gemm
module Fmha = Kernels.Fmha
module PM = Gpu_sim.Perf_model
module C = Gpu_sim.Counters

(* ----- the candidate-space interface ----- *)

(* One point of the decomposition space. [build] returns the kernel IR
   at the full problem size (tier 1 scores its static totals); [proxy]
   returns the same decomposition on a shrunken problem — big enough to
   reach the pipeline's steady state (>= 4 staging tiles), small enough
   to simulate in milliseconds — for tiers 2 and 3. Both may raise
   [Invalid_argument] for points the kernel builder refuses; such
   candidates are pruned, not errors. *)
type candidate =
  { id : int  (** position in enumeration order: the tie-break everywhere *)
  ; knobs : (string * string) list
        (** the decomposition's knob settings, for display/telemetry *)
  ; stages : int  (** requested software-pipeline depth *)
  ; vectorize : bool option
        (** [Some b] pins the vectorize pass; [None] = the pipeline
            default (on) *)
  ; legacy : bool
        (** member of the old fixed sweep ({!gemm_configs} with
            library-default swizzle and vectorize) — the baseline the
            search must beat *)
  ; build : unit -> Spec.kernel
  ; totals : unit -> Gpu_sim.Static_analysis.totals
        (** [Static_analysis.of_kernel] of [build ()], memoized with it *)
  ; proxy : unit -> Spec.kernel
  }

type space =
  { space_name : string
  ; arch : Arch.t
  ; problem : string  (** human-readable problem size, e.g. "4096x4096x1024" *)
  ; enumerate : unit -> candidate list
  }

(* Build closures are called from tier 1 (possibly on a pool worker) and
   again from tiers 2/3; memoizing keeps each kernel IR built once, and
   the candidates that differ only in lowering knobs (vectorize, stages)
   share one memo, as they share the memo of its static totals. The
   plain ref is safe under domain parallelism — the payload is immutable
   and the build pure, so the worst a race costs is a duplicate build. *)
let memo f =
  let cell = ref None in
  fun () ->
    match !cell with
    | Some v -> v
    | None ->
      let v = f () in
      cell := Some v;
      v

(* ----- tier 1: model scoring ----- *)

let stages_space = [ 1; 2; 3 ]

(* Modeled queue occupancy for an N-stage pipeline before any measured
   value exists: the steady state keeps N-1 of N slots in flight. *)
let assumed_occupancy stages =
  if stages <= 1 then 0.0
  else float_of_int (stages - 1) /. float_of_int stages

type scored =
  { cand : candidate
  ; estimate : PM.estimate
        (** tier-1 score: measured legality (vec width, effective
            stages) at the assumed occupancy *)
  ; bound : PM.estimate
        (** optimistic bound: full v4 width, perfect overlap — no
            measurement can push the candidate below this, so anything
            whose bound trails the tier-1 leader is dominated *)
  ; vec_width : float
        (** structural global width ({!Lower.Plan.widening}), 4.0 when
            the kernel moves nothing through global memory *)
  ; eff_stages : int  (** the effective pipeline depth swpipe granted *)
  ; vec_refusals : (string * int) list
        (** the vectorize refusal histogram ({!Lower.Plan.widening}) *)
  ; swpipe_refusals : (string * string) list
        (** swpipe's [(loop, reason slug)] pipelining refusals *)
  ; score_s : float  (** wall time to build + analyze + score (telemetry) *)
  }

type verdict =
  | Scored of scored
  | Pruned of string  (** reason slug: [build-refused] / [lower-refused] *)

(* Tier 1 reads only what the lowering decided — the vectorize and
   swpipe verdicts — so it runs the analysis half of the pipeline and
   compiles no plan: only the tier-2 proxies are lowered (and cached). *)
let score_candidate (machine : Gpu_sim.Machine.t) (cand : candidate) =
  let t0 = Unix.gettimeofday () in
  let arch = machine.Gpu_sim.Machine.arch in
  match cand.build () with
  | exception Invalid_argument _ -> Pruned "build-refused"
  | kernel -> (
    match
      Lower.Pipeline.analyze ?vectorize:cand.vectorize arch kernel
        ~stages:cand.stages
    with
    | exception _ -> Pruned "lower-refused"
    | { Lower.Pipeline.pipelining; widening } ->
      let vec_width =
        Option.value ~default:4.0 widening.Lower.Plan.global_vec_width
      in
      let eff_stages = pipelining.Lower.Plan.pl_stages in
      let totals = cand.totals () in
      let estimate =
        PM.of_totals ~vec_width
          ~pipeline:
            { PM.stages = eff_stages
            ; occupancy = assumed_occupancy eff_stages
            }
          machine totals
      in
      let bound =
        PM.of_totals ~vec_width:4.0
          ~pipeline:{ PM.stages = eff_stages; occupancy = 1.0 }
          machine totals
      in
      Scored
        { cand
        ; estimate
        ; bound
        ; vec_width
        ; eff_stages
        ; vec_refusals = widening.Lower.Plan.vec_refusals
        ; swpipe_refusals = pipelining.Lower.Plan.pl_refusals
        ; score_s = Unix.gettimeofday () -. t0
        })

(* Map [f] over [items] in parallel over contiguous groups (one pool
   task each); ascending regroup keeps the returned list — hence
   everything downstream — identical at every domain count. *)
let fan_out ?domains f items =
  let total = List.length items in
  let chunks =
    max 1
      (min total
         (Option.value domains
            ~default:(Gpu_sim.Domain_pool.default_domains ())))
  in
  if chunks <= 1 then List.map f items
  else begin
    let arr = Array.of_list items in
    Gpu_sim.Domain_pool.run_list
      (Gpu_sim.Domain_pool.global ())
      (List.map
         (fun (lo, hi) () -> List.init (hi - lo) (fun i -> f arr.(lo + i)))
         (Gpu_sim.Domain_pool.block_ranges ~total ~chunks))
    |> List.concat
  end

(* Score every candidate, in enumeration order. *)
let tier1 ?domains machine cands =
  fan_out ?domains (fun c -> (c, score_candidate machine c)) cands

(* ----- tier 2: proxy simulation with measured feedback ----- *)

type simulated =
  { sc : scored
  ; refined : PM.estimate
        (** the tier-1 estimate re-derived with measured occupancy and
            measured global access width *)
  ; occupancy : float  (** measured async-queue occupancy on the proxy *)
  ; measured_vec : float  (** measured mean global width, elements/request *)
  ; proxy_stages : int  (** the proxy plan's effective pipeline depth *)
  ; sim_s : float  (** wall time of the proxy run (telemetry) *)
  }

let zero_args (kernel : Spec.kernel) =
  List.map
    (fun (p : Ts.t) ->
      (p.Ts.name, Array.make (Shape.Layout.cosize p.Ts.layout) 0.0))
    kernel.Spec.params

(* Traffic is data-independent, so the proxy runs on zero-filled buffers
   and one domain (the candidates themselves fan out over the pool). *)
let simulate (machine : Gpu_sim.Machine.t) (s : scored) =
  let t0 = Unix.gettimeofday () in
  let arch = machine.Gpu_sim.Machine.arch in
  match
    let pk = s.cand.proxy () in
    let plan, _ =
      Lower.Pipeline.lower_cached ?vectorize:s.cand.vectorize arch pk
        ~stages:s.cand.stages
    in
    (pk, plan, Gpu_sim.Interp.run_plan ~domains:1 plan ~args:(zero_args pk) ())
  with
  | exception _ -> None
  | _, plan, counters ->
    let proxy_stages = plan.Lower.Plan.pipelining.Lower.Plan.pl_stages in
    let occupancy =
      if proxy_stages <= 1 then 0.0
      else C.async_occupancy counters ~stages:proxy_stages
    in
    (* The model's DRAM-efficiency term is calibrated for widths in
       [1, 4] (scalar .. v4); clamp so a measurement artifact can never
       push the refined estimate outside the calibrated range. *)
    let measured_vec =
      Float.min 4.0 (Float.max 1.0 (C.global_mean_vec_width counters))
    in
    let refined =
      PM.of_kernel ~vec_width:measured_vec
        ~pipeline:{ PM.stages = s.eff_stages; occupancy }
        machine (s.cand.build ()) ()
    in
    Some
      { sc = s
      ; refined
      ; occupancy
      ; measured_vec
      ; proxy_stages
      ; sim_s = Unix.gettimeofday () -. t0
      }

(* The per-spec profile of a candidate's proxy run — what a ranking
   cannot say about *why* a decomposition wins (bank conflicts,
   coalescing, instruction mix). Same plan, buffers and domain count as
   {!simulate}, so the report reproduces tier 2's measurements; a
   refusal raises. *)
let profile (machine : Gpu_sim.Machine.t) (cand : candidate) =
  let arch = machine.Gpu_sim.Machine.arch in
  let kernel = cand.proxy () in
  let plan, _ =
    Lower.Pipeline.lower_cached ?vectorize:cand.vectorize arch kernel
      ~stages:cand.stages
  in
  let profiler = Gpu_sim.Profiler.create () in
  let counters =
    Gpu_sim.Interp.run_plan ~profiler ~domains:1 plan
      ~args:(zero_args kernel) ()
  in
  Gpu_sim.Profiler.report profiler ~kernel ~arch ~counters ~machine ()

(* ----- tier 3: the exact equivalence oracle ----- *)

(* The oracle's counter comparison: the plan may be vector-widened and
   software-pipelined, the tree walk of the source kernel is neither, so
   the request and queue-depth counters are excluded by design; every
   other field and the instruction mix must match bitwise. *)
let counters_equal (a : C.t) (b : C.t) =
  C.diff C.No_requests_or_queue a b = None

(* [verify_plan kernel plan] — run [kernel] through the tree-walking
   reference interpreter and [plan] through the compiled executor on
   copies of the same seeded random fp16 buffers; accept only if every
   buffer and every compared counter is bitwise identical. This is the
   exact oracle: a plan that reorders a floating-point reduction, skips
   an element, or mismatches the kernel it claims to implement fails
   bitwise even when it is numerically plausible. *)
let verify_plan ?(seed = 0) (kernel : Spec.kernel) (plan : Lower.Plan.t) =
  let arch = plan.Lower.Plan.arch in
  let mk i (p : Ts.t) =
    ( p.Ts.name
    , Reference.Cpu_ref.random_fp16
        ~seed:(seed + (31 * i) + 7)
        (Shape.Layout.cosize p.Ts.layout) )
  in
  let args_tree = List.mapi mk kernel.Spec.params in
  let args_plan = List.map (fun (n, a) -> (n, Array.copy a)) args_tree in
  match
    ( Gpu_sim.Interp.run_tree ~arch ~domains:1 kernel ~args:args_tree ()
    , Gpu_sim.Interp.run_plan ~domains:1 plan ~args:args_plan () )
  with
  | exception _ -> false
  | ct, cp ->
    counters_equal ct cp
    && List.length args_tree = List.length args_plan
    && List.for_all2
         (fun (na, xa) (nb, xb) -> String.equal na nb && xa = xb)
         args_tree args_plan

(* Verify a candidate on its proxy problem: lower its proxy kernel (a
   plan-cache hit after tier 2) and hold the plan to the oracle. *)
let verify_candidate ?seed (machine : Gpu_sim.Machine.t) (cand : candidate) =
  let arch = machine.Gpu_sim.Machine.arch in
  match
    let pk = cand.proxy () in
    ( pk
    , fst
        (Lower.Pipeline.lower_cached ?vectorize:cand.vectorize arch pk
           ~stages:cand.stages) )
  with
  | exception _ -> false
  | pk, plan -> verify_plan ?seed pk plan

(* ----- seeded budget ----- *)

let splitmix64 state =
  let open Int64 in
  let z = add state 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let priority ~seed id =
  splitmix64
    (Int64.add
       (Int64.mul (Int64.of_int (seed + 1)) 0x100000001B3L)
       (Int64.of_int id))

(* Take the [max_candidates] ids of highest seeded priority, then
   restore enumeration order. Priorities are per-id, so the sample at
   budget B is a subset of the sample at budget B+1: growing the budget
   only ever adds candidates, which is what makes the winner monotone
   in the budget. *)
let select_budget ~seed ~max_candidates cands =
  if List.length cands <= max_candidates then cands
  else
    List.map (fun (c : candidate) -> (priority ~seed c.id, c)) cands
    |> List.sort (fun (a, (ca : candidate)) (b, cb) ->
           match Int64.unsigned_compare a b with
           | 0 -> compare ca.id cb.id
           | c -> c)
    |> List.filteri (fun i _ -> i < max_candidates)
    |> List.map snd
    |> List.sort (fun (a : candidate) b -> compare a.id b.id)

(* ----- the search driver ----- *)

type outcome =
  { o_space : string
  ; o_arch : Arch.t
  ; o_problem : string
  ; o_engine : string
        (** always ["bytecode"], the historical name of [run_plan]'s
            executor, which tiers 2/3 execute with *)
  ; o_seed : int
  ; o_budget : int
  ; o_proxy_top : int
  ; o_enumerated : int  (** full frontier size before the budget *)
  ; o_in_budget : int
  ; o_scored : int  (** candidates that built, lowered and scored *)
  ; o_deduped : int  (** dropped as duplicate effective decomposition *)
  ; o_pruned : (string * int) list  (** prune-reason histogram *)
  ; o_dominated : int  (** excluded from tier 2 by the model bound *)
  ; o_vec_refusals : (string * int) list
        (** vectorize refusal slugs summed over the scored frontier *)
  ; o_swpipe_refusals : (string * int) list
        (** swpipe refusal slugs summed over the scored frontier *)
  ; o_ranking : scored list  (** tier-1 ranking, best first *)
  ; o_simulated : simulated list  (** tier-2 results, refined order *)
  ; o_baseline : simulated option
        (** the old fixed sweep's winner (best legacy candidate),
            proxy-simulated — always forced into tier 2 so the
            comparison is refined-vs-refined *)
  ; o_winner : simulated option  (** best refined candidate passing tier 3 *)
  ; o_verify_rejected : int  (** candidates the oracle rejected *)
  ; o_verified : bool
  ; o_tier1_s : float
  ; o_tier2_s : float
  ; o_tier3_s : float
  }

let winner_beats_baseline o =
  match (o.o_winner, o.o_baseline) with
  | Some w, Some b -> w.refined.PM.time_s <= b.refined.PM.time_s +. 1e-15
  | _ -> false

let merge_hist acc alist =
  List.fold_left
    (fun acc (k, v) ->
      let prev = Option.value ~default:0 (List.assoc_opt k acc) in
      (k, prev + v) :: List.remove_assoc k acc)
    acc alist
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let take n l = List.filteri (fun i _ -> i < n) l

let search ?(seed = 0) ?(max_candidates = 4096) ?(proxy_top = 8) ?domains
    (machine : Gpu_sim.Machine.t) (space : space) () =
  if not (Arch.equal machine.Gpu_sim.Machine.arch space.arch) then
    invalid_arg "Search.search: machine/space architecture mismatch";
  let proxy_top = max 1 proxy_top in
  let all = space.enumerate () in
  let cands = select_budget ~seed ~max_candidates all in
  (* tier 1: score the frontier *)
  let t0 = Unix.gettimeofday () in
  let t1 = tier1 ?domains machine cands in
  let tier1_s = Unix.gettimeofday () -. t0 in
  let pruned =
    List.fold_left
      (fun acc (_, v) ->
        match v with
        | Scored _ -> acc
        | Pruned reason -> merge_hist acc [ (reason, 1) ])
      [] t1
  in
  let scored_all =
    List.filter_map (function _, Scored s -> Some s | _ -> None) t1
  in
  (* A refused deeper request collapses to its effective depth: keep the
     first (lowest requested depth) of each effective decomposition. *)
  let seen = Hashtbl.create 64 in
  let scored =
    List.filter
      (fun s ->
        let key =
          ( List.filter (fun (k, _) -> not (String.equal k "stages")) s.cand.knobs
          , s.eff_stages )
        in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.add seen key ();
          true
        end)
      scored_all
  in
  let deduped = List.length scored_all - List.length scored in
  (* The aggregate refusal histograms describe why passes *declined*
     across the frontier. "disabled" only records that a candidate had
     the knob off, so it is dropped (it stays visible in each
     candidate's own refusal list) — and the aggregation runs over the
     pre-dedup frontier: a refused deeper request collapses onto an
     already-seen effective decomposition, so the candidates the dedup
     drops are exactly the ones carrying the refusals. *)
  let drop_disabled = List.filter (fun (k, _) -> k <> "disabled") in
  let vec_refusals =
    List.fold_left
      (fun acc s -> merge_hist acc (drop_disabled s.vec_refusals))
      [] scored_all
  in
  let swpipe_refusals =
    List.fold_left
      (fun acc s ->
        merge_hist acc
          (drop_disabled
             (List.map (fun (_, slug) -> (slug, 1)) s.swpipe_refusals)))
      [] scored_all
  in
  let ranking =
    List.sort
      (fun a b ->
        match Float.compare a.estimate.PM.time_s b.estimate.PM.time_s with
        | 0 -> compare a.cand.id b.cand.id
        | c -> c)
      scored
  in
  let base =
    { o_space = space.space_name
    ; o_arch = space.arch
    ; o_problem = space.problem
    ; o_engine = "bytecode"
    ; o_seed = seed
    ; o_budget = max_candidates
    ; o_proxy_top = proxy_top
    ; o_enumerated = List.length all
    ; o_in_budget = List.length cands
    ; o_scored = List.length scored
    ; o_deduped = deduped
    ; o_pruned = pruned
    ; o_dominated = 0
    ; o_vec_refusals = vec_refusals
    ; o_swpipe_refusals = swpipe_refusals
    ; o_ranking = ranking
    ; o_simulated = []
    ; o_baseline = None
    ; o_winner = None
    ; o_verify_rejected = 0
    ; o_verified = false
    ; o_tier1_s = tier1_s
    ; o_tier2_s = 0.0
    ; o_tier3_s = 0.0
    }
  in
  match ranking with
  | [] -> base
  | leader :: _ ->
    (* Dominated pruning: a candidate whose optimistic bound (full
       width, perfect overlap) cannot reach the tier-1 leader's
       estimate is excluded from tier 2 — no measurement could make it
       win. The fixed-sweep baseline is exempt: its refined estimate is
       the comparison point the telemetry must always carry. *)
    let incumbent = leader.estimate.PM.time_s in
    let viable =
      List.filter (fun s -> s.bound.PM.time_s <= incumbent +. 1e-18) ranking
    in
    let dominated = List.length ranking - List.length viable in
    let legacy_best =
      List.find_opt (fun s -> s.cand.legacy) ranking
    in
    let proxy_set =
      let head = take proxy_top viable in
      match legacy_best with
      | Some lb when not (List.exists (fun s -> s.cand.id = lb.cand.id) head)
        -> take (proxy_top - 1) head @ [ lb ]
      | _ -> head
    in
    (* tier 2: proxy-simulate, in parallel, ascending regroup *)
    let t0 = Unix.gettimeofday () in
    let sim_results =
      fan_out ?domains (fun s -> (s, simulate machine s)) proxy_set
    in
    let tier2_s = Unix.gettimeofday () -. t0 in
    let pruned =
      List.fold_left
        (fun acc (_, r) ->
          match r with None -> merge_hist acc [ ("sim-failed", 1) ] | _ -> acc)
        pruned sim_results
    in
    let simulated =
      List.filter_map snd sim_results
      |> List.sort (fun a b ->
             match Float.compare a.refined.PM.time_s b.refined.PM.time_s with
             | 0 -> compare a.sc.cand.id b.sc.cand.id
             | c -> c)
    in
    let baseline =
      match legacy_best with
      | None -> None
      | Some lb ->
        List.find_opt (fun s -> s.sc.cand.id = lb.cand.id) simulated
    in
    (* tier 3: walk the refined ranking until the oracle accepts *)
    let t0 = Unix.gettimeofday () in
    let rec pick rejected = function
      | [] -> (None, rejected)
      | s :: rest ->
        if verify_candidate ~seed machine s.sc.cand then (Some s, rejected)
        else pick (rejected + 1) rest
    in
    let winner, verify_rejected = pick 0 simulated in
    let tier3_s = Unix.gettimeofday () -. t0 in
    { base with
      o_pruned = pruned
    ; o_dominated = dominated
    ; o_simulated = simulated
    ; o_baseline = baseline
    ; o_winner = winner
    ; o_verify_rejected = verify_rejected
    ; o_verified = winner <> None
    ; o_tier2_s = tier2_s
    ; o_tier3_s = tier3_s
    }

(* ----- the GEMM space ----- *)

(* All tile configurations valid for the problem (divisibility,
   warp-count, cooperative-staging and shared-memory constraints) — the
   old fixed sweep's enumeration, and the [legacy] subset of
   {!gemm_space}. *)
let gemm_configs arch ~m ~n ~k =
  let base = Gemm.default_config arch in
  let tiles = [ 32; 64; 128; 256 ] in
  let bks = [ 16; 32; 64 ] in
  let warp_tiles = [ 16; 32; 64 ] in
  let smem_budget = Arch.smem_bytes_per_block arch in
  List.concat_map
    (fun bm ->
      List.concat_map
        (fun bn ->
          List.concat_map
            (fun bk ->
              List.concat_map
                (fun wm ->
                  List.filter_map
                    (fun wn ->
                      let ok =
                        m mod bm = 0 && n mod bn = 0 && k mod bk = 0
                        && bm mod wm = 0 && bn mod wn = 0
                        && Kernels.Tc_pipeline.fits arch ~wm ~wn ~kc:bk
                        &&
                        let warps = bm / wm * (bn / wn) in
                        warps >= 1 && warps <= 8
                        &&
                        let nthreads = warps * 32 in
                        Kernels.Staging.fits ~rows:bm ~cols:bk ~nthreads
                        && Kernels.Staging.fits ~rows:bk ~cols:bn ~nthreads
                        && (bm * bk) + (bk * bn) <= smem_budget / 2
                      in
                      if ok then Some { base with Gemm.bm; bn; bk; wm; wn }
                      else None)
                    warp_tiles)
                warp_tiles)
            bks)
        tiles)
    tiles

let onoff b = if b then "on" else "off"

(* The GEMM decomposition space: every valid tile configuration crossed
   with swizzle on/off, vectorize on/off and pipeline depth. The proxy
   keeps 2x2 block tiles in m/n but 4 k-tiles, so a 3-stage pipeline
   reaches its steady state and the measured occupancy means
   something. *)
let gemm_space ?(epilogue = Kernels.Epilogue.none) arch ~m ~n ~k () =
  let enumerate () =
    let configs = gemm_configs arch ~m ~n ~k in
    let next = ref (-1) in
    List.concat_map
      (fun cfg ->
        List.concat_map
          (fun swizzle ->
            (* The vectorize and stages knobs act at lowering, so the
               candidates of one (config, swizzle) share its kernels. *)
            let cfg = { cfg with Gemm.swizzle } in
            let build ~m ~n ~k =
              Gemm.tensor_core arch cfg ~epilogue ~m ~n ~k ()
            in
            let pm = cfg.Gemm.bm * min 2 (m / cfg.Gemm.bm) in
            let pn = cfg.Gemm.bn * min 2 (n / cfg.Gemm.bn) in
            let pk = cfg.Gemm.bk * min 4 (k / cfg.Gemm.bk) in
            let full = memo (fun () -> build ~m ~n ~k) in
            let totals =
              memo (fun () ->
                  Gpu_sim.Static_analysis.of_kernel arch (full ()) ())
            in
            let proxy = memo (fun () -> build ~m:pm ~n:pn ~k:pk) in
            List.concat_map
              (fun vec ->
                List.map
                  (fun stages ->
                    incr next;
                    { id = !next
                    ; knobs =
                        [ ("bm", string_of_int cfg.Gemm.bm)
                        ; ("bn", string_of_int cfg.Gemm.bn)
                        ; ("bk", string_of_int cfg.Gemm.bk)
                        ; ("wm", string_of_int cfg.Gemm.wm)
                        ; ("wn", string_of_int cfg.Gemm.wn)
                        ; ("swizzle", onoff swizzle)
                        ; ("vectorize", onoff vec)
                        ; ("stages", string_of_int stages)
                        ]
                    ; stages
                    ; vectorize = Some vec
                    ; legacy = swizzle && vec
                    ; build = full
                    ; totals
                    ; proxy
                    })
                  stages_space)
              [ true; false ])
          [ true; false ])
      configs
  in
  { space_name = "gemm"
  ; arch
  ; problem = Printf.sprintf "%dx%dx%d" m n k
  ; enumerate
  }

(* ----- the FMHA space ----- *)

(* Fused multi-head attention: KV chunk size, CTA width, shared-memory
   swizzle, vectorize and pipeline depth (the swpipe pass refuses the
   FMHA staging loop today — its K/V buffers escape into the softmax —
   so the stages axis exercises the refusal telemetry rather than the
   rewrite; the dedup then collapses the depths to one candidate). The
   proxy shrinks to one (batch, head) and two KV chunks. *)
let fmha_space ?(batch = 1) ?(heads = 1) arch ~seq ~dh () =
  let chunks = [ 16; 32; 64 ] in
  let cta_widths = [ 64; 128 ] in
  let enumerate () =
    let next = ref (-1) in
    List.concat_map
      (fun chunk ->
        List.concat_map
          (fun nthreads ->
            if not (Fmha.supports arch ~seq ~dh ~chunk ~nthreads) then []
            else
              List.concat_map
                (fun swizzle ->
                  let build ~batch ~heads ~seq =
                    Fmha.kernel ~swizzle_smem:swizzle arch ~batch ~heads ~seq
                      ~dh ~chunk ~nthreads ()
                  in
                  let pseq = min seq (2 * chunk) in
                  let full = memo (fun () -> build ~batch ~heads ~seq) in
                  let totals =
                    memo (fun () ->
                        Gpu_sim.Static_analysis.of_kernel arch (full ()) ())
                  in
                  let proxy =
                    memo (fun () -> build ~batch:1 ~heads:1 ~seq:pseq)
                  in
                  List.concat_map
                    (fun vec ->
                      List.map
                        (fun stages ->
                          incr next;
                          { id = !next
                          ; knobs =
                              [ ("chunk", string_of_int chunk)
                              ; ("nthreads", string_of_int nthreads)
                              ; ("swizzle", onoff swizzle)
                              ; ("vectorize", onoff vec)
                              ; ("stages", string_of_int stages)
                              ]
                          ; stages
                          ; vectorize = Some vec
                          ; legacy = swizzle && vec && stages = 1
                          ; build = full
                          ; totals
                          ; proxy
                          })
                        stages_space)
                    [ true; false ])
                [ true; false ])
          cta_widths)
      chunks
  in
  { space_name = "fmha"
  ; arch
  ; problem = Printf.sprintf "b%dh%ds%dd%d" batch heads seq dh
  ; enumerate
  }

(* ----- deterministic JSON + pretty-printing ----- *)

module J = Gpu_sim.Json

let hist_json alist = J.Obj (List.map (fun (k, v) -> (k, J.Int v)) alist)
let knobs_json knobs = J.Obj (List.map (fun (k, v) -> (k, J.Str v)) knobs)
let time_us_json (e : PM.estimate) = J.Float (e.PM.time_s *. 1e6)

let scored_json (s : scored) =
  J.Obj
    [ ("id", J.Int s.cand.id)
    ; ("knobs", knobs_json s.cand.knobs)
    ; ("stages", J.Int s.eff_stages)
    ; ("time_us", time_us_json s.estimate)
    ; ("vec_width", J.Float s.vec_width)
    ; ("legacy", J.Bool s.cand.legacy)
    ]

let simulated_json (s : simulated) =
  J.Obj
    [ ("id", J.Int s.sc.cand.id)
    ; ("knobs", knobs_json s.sc.cand.knobs)
    ; ("stages", J.Int s.sc.eff_stages)
    ; ("model_us", time_us_json s.sc.estimate)
    ; ("refined_us", time_us_json s.refined)
    ; ("occupancy", J.Float s.occupancy)
    ; ("measured_vec_width", J.Float s.measured_vec)
    ; ("proxy_stages", J.Int s.proxy_stages)
    ; ("legacy", J.Bool s.sc.cand.legacy)
    ]

(* The search trajectory as JSON. Everything outside the ["wall"] group
   is deterministic per (space, seed, budget, proxy_top): the smoke
   aliases diff two same-seed runs with [~wall:false]. The tier-1
   ranking head is capped so the document stays readable; the counts
   above it describe the full frontier. *)
let json ?(wall = true) (o : outcome) =
  let opt f = function Some x -> f x | None -> J.Null in
  J.Obj
    ([ ("space", J.Str o.o_space)
     ; ("arch", J.Str (Arch.name o.o_arch))
     ; ("problem", J.Str o.o_problem)
     ; ("exec_engine", J.Str o.o_engine)
     ; ("seed", J.Int o.o_seed)
     ; ("budget", J.Int o.o_budget)
     ; ("proxy_top", J.Int o.o_proxy_top)
     ; ("enumerated", J.Int o.o_enumerated)
     ; ("in_budget", J.Int o.o_in_budget)
     ; ("scored", J.Int o.o_scored)
     ; ("deduped", J.Int o.o_deduped)
     ; ("dominated", J.Int o.o_dominated)
     ; ("pruned", hist_json o.o_pruned)
     ; ( "refusals"
       , J.Obj
           [ ("vectorize", hist_json o.o_vec_refusals)
           ; ("swpipe", hist_json o.o_swpipe_refusals)
           ] )
     ; ("tier1_top", J.Arr (List.map scored_json (take 16 o.o_ranking)))
     ; ("proxy_simulated", J.Arr (List.map simulated_json o.o_simulated))
     ; ("fixed_sweep_baseline", opt simulated_json o.o_baseline)
     ; ("winner", opt simulated_json o.o_winner)
     ; ("winner_beats_fixed_sweep", J.Bool (winner_beats_baseline o))
     ; ("verify_rejected", J.Int o.o_verify_rejected)
     ; ("verified", J.Bool o.o_verified)
     ]
    @
    if not wall then []
    else
      [ ( "wall"
        , J.Obj
            [ ("tier1_s", J.Float o.o_tier1_s)
            ; ("tier2_s", J.Float o.o_tier2_s)
            ; ("tier3_s", J.Float o.o_tier3_s)
            ; ("total_s", J.Float (o.o_tier1_s +. o.o_tier2_s +. o.o_tier3_s))
            ] )
      ])

let to_json ?wall o = J.to_string (json ?wall o)

let pp_knobs fmt knobs =
  Format.pp_print_string fmt
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) knobs))

let pp_outcome fmt (o : outcome) =
  Format.fprintf fmt
    "@[<v>search %s %s on %s: %d enumerated, %d in budget, %d scored (%d \
     duplicate, %d dominated)@,"
    o.o_space o.o_problem (Arch.name o.o_arch) o.o_enumerated o.o_in_budget
    o.o_scored o.o_deduped o.o_dominated;
  if o.o_pruned <> [] then
    Format.fprintf fmt "pruned: %s@,"
      (String.concat ", "
         (List.map (fun (r, c) -> Printf.sprintf "%s x%d" r c) o.o_pruned));
  List.iteri
    (fun i (s : scored) ->
      if i < 5 then
        Format.fprintf fmt "  t1 #%d: %a -> %.1f us@," (i + 1) pp_knobs
          s.cand.knobs
          (s.estimate.PM.time_s *. 1e6))
    o.o_ranking;
  List.iter
    (fun (s : simulated) ->
      Format.fprintf fmt
        "  proxy: %a -> %.1f us refined (model %.1f, occupancy %.2f, vec \
         %.1f)%s@,"
        pp_knobs s.sc.cand.knobs
        (s.refined.PM.time_s *. 1e6)
        (s.sc.estimate.PM.time_s *. 1e6)
        s.occupancy s.measured_vec
        (if s.sc.cand.legacy then " [fixed-sweep]" else ""))
    o.o_simulated;
  (match o.o_winner with
  | Some w ->
    Format.fprintf fmt "winner: %a -> %.1f us, %s@," pp_knobs w.sc.cand.knobs
      (w.refined.PM.time_s *. 1e6)
      (if o.o_verified then "verified bit-identical to run_tree"
       else "UNVERIFIED")
  | None -> Format.fprintf fmt "winner: none@,");
  (match o.o_baseline with
  | Some bl ->
    Format.fprintf fmt "fixed-sweep baseline: %.1f us refined -> search %s@,"
      (bl.refined.PM.time_s *. 1e6)
      (if winner_beats_baseline o then "wins" else "DOES NOT WIN")
  | None -> ());
  Format.fprintf fmt
    "wall: tier1 %.2fs (%d candidates), tier2 %.2fs (%d proxies), tier3 \
     %.2fs@]"
    o.o_tier1_s o.o_in_budget o.o_tier2_s
    (List.length o.o_simulated)
    o.o_tier3_s
