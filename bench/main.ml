(* Benchmark harness: prints every table and figure of the paper's
   evaluation (with the paper's reported values alongside) and writes the
   sim, serve and search benchmarks' BENCH_*.json files to the current
   directory. `--sim-only`, `--serve-only` and `--tune-only` run one
   section. *)

module J = Gpu_sim.Json

(* Writes one BENCH_*.json into the current directory. *)
let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* ----- lower-once / execute-many simulation benchmark -----

   Times the tree-walking reference interpreter against the plan
   executor on fixed kernel shapes, verifies the two produce
   bit-identical event counters and output buffers on seeded inputs,
   and writes BENCH_sim.json. The plan executor's figures keep their
   historical "bytecode" names (bytecode_s, speedup_bytecode, ...),
   which readers of the file depend on. *)

module C = Gpu_sim.Counters

(* Wall clock, not [Sys.time]: CPU time sums over domains, so it cannot
   see the speedup of a parallel grid run. *)
let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* One simulated cell = one fused multiply-add of the workload's
   definition (m*n*k for GEMM; the paper's FMHA flop count / 2). *)
let sim_cases () =
  let gemm arch ~m ~n ~k =
    ( Printf.sprintf "gemm_tc_%dx%dx%d" m n k
    , arch
    , Kernels.Gemm.tensor_core arch
        (Kernels.Gemm.test_config arch)
        ~epilogue:Kernels.Epilogue.none ~m ~n ~k ()
    , m * n * k )
  in
  let fmha arch ~seq ~dh ~chunk ~swizzle_smem =
    let batch = 1 and heads = 1 in
    ( Printf.sprintf "fmha_b%dh%ds%dd%d" batch heads seq dh
    , arch
    , Kernels.Fmha.kernel ~swizzle_smem arch ~batch ~heads ~seq ~dh ~chunk
        ~nthreads:64 ()
    , Kernels.Fmha.flop_count ~batch ~heads ~seq ~dh / 2 )
  in
  [ (* the acceptance row: compiled plans must be >= 2x the tree path *)
    (fun () -> gemm Graphene.Arch.SM86 ~m:256 ~n:256 ~k:256)
  ; (fun () -> gemm Graphene.Arch.SM70 ~m:128 ~n:128 ~k:128)
  ; (fun () ->
      fmha Graphene.Arch.SM86 ~seq:64 ~dh:32 ~chunk:16 ~swizzle_smem:true)
  ; (fun () ->
      (* Volta: per-lane fragment staging, quad-pair mma, no swizzle. *)
      fmha Graphene.Arch.SM70 ~seq:32 ~dh:32 ~chunk:32 ~swizzle_smem:false)
  ]

(* The multi-domain sweep: the plan executor at each of these domain
   counts, against its 1-domain best-of-2. *)
let sweep_domains = [ 1; 2; 4; 8 ]

(* Everything one bench row measures. [bytecode_s] is the best of two
   1-domain plan runs on the same plan; the sweep is the plan executor
   at each of [sweep_domains]. [counter_diffs] / [output_diffs]
   name every bit-identity check that failed (empty = all held). *)
type sim_row =
  { tree_s : float
  ; tree_mw : float
  ; lower_s : float
  ; cache_hit : bool
  ; lower_cached_s : float
  ; bytecode_s : float
  ; bytecode_mw : float
  ; sweep : (int * float * bool) list  (** domains, wall s, bit-identical *)
  ; stages : int
        (** effective software-pipeline depth of a 3-stage lowering
            request (1 when the swpipe pass refused this kernel) *)
  ; async_occ : float
        (** measured async-copy queue occupancy of the pipelined run *)
  ; overlap_speedup : float
        (** perf-model serialized time / pipelined time at the measured
            occupancy — the latency-hiding term's predicted win *)
  ; counter_diffs : string list
  ; output_diffs : string list
  ; counters : C.t  (** the 1-domain plan run's *)
  }

(* Returns the row's JSON and whether every bit-identity check held
   (rows that fail to build or run count as not identical, so
   `--sim-only` exits nonzero on them too). *)
let sim_bench_row case =
  match case () with
  | exception exn ->
    ( J.Obj [ ("name", J.Str "?"); ("error", J.Str (Printexc.to_string exn)) ]
    , false )
  | name, arch, kernel, cells -> (
    (* Seeded fp16 inputs in every buffer, so a wrong product shows up
       as an output difference; every run gets a fresh copy. *)
    let inputs =
      List.mapi
        (fun i (p : Gpu_tensor.Tensor.t) ->
          ( p.Gpu_tensor.Tensor.name
          , Reference.Cpu_ref.random_fp16 ~seed:(i + 1)
              (Shape.Layout.cosize p.Gpu_tensor.Tensor.layout) ))
        kernel.Graphene.Spec.params
    in
    let args () = List.map (fun (n, a) -> (n, Array.copy a)) inputs in
    let buffers_equal a b =
      List.for_all2
        (fun (na, xa) (nb, xb) -> String.equal na nb && xa = xb)
        a b
    in
    let counter_diffs = ref [] and output_diffs = ref [] in
    (* One named bit-identity check between two runs, as (counters,
       buffers): records what differed and returns whether both held. *)
    let check what fields (ca, aa) (cb, ab) =
      let c_ok =
        match C.diff fields ca cb with
        | None -> true
        | Some d ->
          counter_diffs := (what ^ ": " ^ d) :: !counter_diffs;
          false
      in
      let o_ok = buffers_equal aa ab in
      if not o_ok then
        output_diffs := (what ^ ": outputs differ") :: !output_diffs;
      c_ok && o_ok
    in
    let run_bytecode ?(domains = 1) plan a =
      Gpu_sim.Interp.run_plan ~domains plan ~args:a ()
    in
    match
      (* Minor-heap allocation of each path, from the caller domain's
         allocation counter ([~domains:1] runs inline, so every word the
         executor allocates is counted here). *)
      let tree_args = args () in
      let mw0 = Gc.minor_words () in
      let tree_counters, tree_s =
        time (fun () ->
            Gpu_sim.Interp.run_tree ~arch ~domains:1 kernel ~args:tree_args ())
      in
      let tree_mw = Gc.minor_words () -. mw0 in
      let plan, lower_s =
        time (fun () -> Lower.Pipeline.lower arch kernel)
      in
      (* The same lowering served from the plan cache (first call warms
         it; the timed call must hit). *)
      ignore (Lower.Pipeline.lower_cached arch kernel);
      let (_, cache_hit), lower_cached_s =
        time (fun () -> Lower.Pipeline.lower_cached arch kernel)
      in
      (* The tree walk leaves a large major heap behind, and collecting
         it stalls the timings below, 2-domain runs most; compact it
         first. *)
      Gc.compact ();
      (* Execute the plan twice on one domain (the lower-once /
         execute-many shape) and report the best run. *)
      let bc_args = args () in
      let mw1 = Gc.minor_words () in
      let bc_counters, bc_s1 = time (fun () -> run_bytecode plan bc_args) in
      let bytecode_mw = Gc.minor_words () -. mw1 in
      let _, bc_s2 = time (fun () -> run_bytecode plan (args ())) in
      let bytecode_s = Float.min bc_s1 bc_s2 in
      let bc = (bc_counters, bc_args) in
      (* The oracle: the vectorized plan issues fewer, wider requests than
         the scalar tree walk by design, so only the request counters
         may differ (the equivalence matrix of test/corpus.ml pins them
         against a scalar-forced lowering instead). *)
      ignore
        (check "tree vs bytecode" C.No_requests (tree_counters, tree_args) bc);
      (* The sweep: the plan executor at each domain count, every point
         checked against the 1-domain run in every field. *)
      let sweep =
        List.map
          (fun d ->
            let a = args () in
            let c, s = time (fun () -> run_bytecode ~domains:d plan a) in
            (d, s, check (Printf.sprintf "%d domains" d) C.All bc (c, a)))
          sweep_domains
      in
      (* The swpipe measurement point: the same kernel lowered at a
         3-stage request (the pass may refuse — [stages] reports the
         effective depth), run once on the plan executor. Only the
         queue-depth counters may move. The model's overlap speedup
         compares serialized (1-stage) to pipelined time at the measured
         occupancy. *)
      let pplan, _ = Lower.Pipeline.lower_cached arch kernel ~stages:3 in
      let stages = pplan.Lower.Plan.pipelining.Lower.Plan.pl_stages in
      let p_args = args () in
      let p_counters = run_bytecode pplan p_args in
      ignore (check "pipelined" C.No_queue bc (p_counters, p_args));
      let async_occ = C.async_occupancy p_counters ~stages in
      let overlap_speedup =
        let machine = Gpu_sim.Machine.of_arch arch in
        let t pipeline =
          (Gpu_sim.Perf_model.of_kernel ~pipeline machine kernel ())
            .Gpu_sim.Perf_model.time_s
        in
        t { Gpu_sim.Perf_model.stages = 1; occupancy = 0.0 }
        /. t { Gpu_sim.Perf_model.stages; occupancy = async_occ }
      in
      { tree_s
      ; tree_mw
      ; lower_s
      ; cache_hit
      ; lower_cached_s
      ; bytecode_s
      ; bytecode_mw
      ; sweep
      ; stages
      ; async_occ
      ; overlap_speedup
      ; counter_diffs = List.rev !counter_diffs
      ; output_diffs = List.rev !output_diffs
      ; counters = bc_counters
      }
    with
    | exception exn ->
      ( J.Obj
          [ ("name", J.Str name)
          ; ("arch", J.Str (Graphene.Arch.name arch))
          ; ("error", J.Str (Printexc.to_string exn))
          ]
      , false )
    | r ->
      let cps s = if s > 0.0 then float_of_int cells /. s else Float.nan in
      let per_cell w = w /. float_of_int (max 1 cells) in
      let counters = r.counters in
      let mw_reduction =
        if r.bytecode_mw > 0.0 then r.tree_mw /. r.bytecode_mw else Float.nan
      in
      (* Fraction of the global byte traffic carried by vector-widened
         (v2/v4) requests — the vectorize pass's yield on this kernel. *)
      let global_bytes =
        counters.C.global_load_bytes + counters.C.global_store_bytes
      in
      let vector_widened_frac =
        if global_bytes = 0 then 0.0
        else
          float_of_int counters.C.global_vec_bytes /. float_of_int global_bytes
      in
      let counters_identical = r.counter_diffs = [] in
      let outputs_identical = r.output_diffs = [] in
      Format.printf
        "%-24s %-4s tree %7.3fs  lower %6.4fs (cached %6.4fs)  bytecode \
         %7.3fs  speedup %5.2fx  minor w/cell %5.1f -> %4.2f  vec %3.0f%%  \
         counters %s  outputs %s@."
        name (Graphene.Arch.name arch) r.tree_s r.lower_s r.lower_cached_s
        r.bytecode_s
        (r.tree_s /. r.bytecode_s)
        (per_cell r.tree_mw) (per_cell r.bytecode_mw)
        (100.0 *. vector_widened_frac)
        (if counters_identical then "bit-identical" else "MISMATCH")
        (if outputs_identical then "bit-identical" else "MISMATCH");
      List.iter
        (fun d -> Format.printf "%26smismatch: %s@." "" d)
        (r.counter_diffs @ r.output_diffs);
      Format.printf "%26sdomains sweep (bytecode):%s@." ""
        (String.concat ""
           (List.map
              (fun (d, s, _) ->
                Printf.sprintf "  %dd %.3fs (%.2fx)" d s (r.bytecode_s /. s))
              r.sweep));
      Format.printf
        "%26sswpipe: %d stage%s, queue occupancy %.2f, model overlap %.2fx@."
        "" r.stages
        (if r.stages = 1 then "" else "s")
        r.async_occ r.overlap_speedup;
      let sweep_json (d, s, sok) =
        J.Obj
          [ ("domains", J.Int d)
          ; ("par_s", J.Float s)
          ; ("domains_speedup", J.Float (r.bytecode_s /. s))
          ; ("bit_identical", J.Bool sok)
          ]
      in
      ( J.Obj
          [ ("name", J.Str name)
          ; ("arch", J.Str (Graphene.Arch.name arch))
          ; ("cells", J.Int cells)
          ; ("tree_s", J.Float r.tree_s)
          ; ("lower_s", J.Float r.lower_s)
          ; ("lower_cached_s", J.Float r.lower_cached_s)
          ; ("lower_cache_hit", J.Bool r.cache_hit)
          ; ("bytecode_s", J.Float r.bytecode_s)
          ; ("speedup_bytecode", J.Float (r.tree_s /. r.bytecode_s))
          ; ("exec_engine", J.Str "bytecode")
          ; ("domains_sweep", J.Arr (List.map sweep_json r.sweep))
          ; ("stages", J.Int r.stages)
          ; ("async_copy_occupancy", J.Float r.async_occ)
          ; ("overlap_speedup_model", J.Float r.overlap_speedup)
          ; ("cells_per_sec_tree", J.Float (cps r.tree_s))
          ; ("cells_per_sec_bytecode", J.Float (cps r.bytecode_s))
          ; ("minor_words_tree", J.Int (int_of_float r.tree_mw))
          ; ("minor_words_bytecode", J.Int (int_of_float r.bytecode_mw))
          ; ("minor_words_per_cell_tree", J.Float (per_cell r.tree_mw))
          ; ("minor_words_per_cell_bytecode", J.Float (per_cell r.bytecode_mw))
          ; ("minor_words_reduction", J.Float mw_reduction)
          ; ("global_transactions", J.Int counters.C.global_transactions)
          ; ("global_requests", J.Int counters.C.global_requests)
          ; ("global_vec_requests", J.Int counters.C.global_vec_requests)
          ; ("global_vec_bytes", J.Int counters.C.global_vec_bytes)
          ; ("shared_requests", J.Int counters.C.shared_requests)
          ; ("shared_vec_requests", J.Int counters.C.shared_vec_requests)
          ; ("shared_vec_bytes", J.Int counters.C.shared_vec_bytes)
          ; ("shared_bank_conflicts", J.Int counters.C.shared_bank_conflicts)
          ; ("vector_widened_frac", J.Float vector_widened_frac)
          ; ("counters_bit_identical", J.Bool counters_identical)
          ; ("outputs_bit_identical", J.Bool outputs_identical)
          ]
      , counters_identical && outputs_identical ))

(* Returns whether every row held its bit-identity checks. *)
let emit_sim_bench () =
  Format.printf
    "== Simulation: tree-walking interpreter vs bytecode plan executor ==@.";
  let results = List.map sim_bench_row (sim_cases ()) in
  let rows = List.map fst results in
  let all_ok = List.for_all snd results in
  let stats = Lower.Pipeline.cache_stats () in
  write_file "BENCH_sim.json"
    (J.to_string
       (J.Obj
          [ ("schema", J.Str "graphene.sim_bench.v8")
          ; ( "note"
            , J.Str
                "Wall-clock fields (tree_s, lower_s, lower_cached_s, \
                 bytecode_s, par_s and the speedups and cells_per_sec \
                 figures derived from them) are single samples on one \
                 host, with no noise band; perfbench measures repeated \
                 runs. Minor words and counters are deterministic." )
          ; ("default_domains", J.Int (Gpu_sim.Domain_pool.default_domains ()))
          ; ("exec_engine", J.Str "bytecode")
          ; ("rows", J.Arr rows)
          ; ( "plan_cache"
            , J.Obj
                [ ("hits", J.Int stats.Lower.Pipeline.hits)
                ; ("misses", J.Int stats.Lower.Pipeline.misses)
                ] )
          ]));
  Format.printf "wrote BENCH_sim.json (%d rows)@.@." (List.length rows);
  if not all_ok then
    Format.printf "sim bench FAILED: a row broke bit-identity (see its \
                   counter_diffs / output_diffs)@.";
  all_ok

(* ----- continuous-batching serving benchmark -----

   Seeded Poisson traffic through the Serve engine (docs/SERVING.md),
   written to BENCH_serve.json. Every simulated metric is deterministic
   per seed (test_serve pins that). *)
let emit_serve_bench () =
  Format.printf "== Serving: continuous batching on the plan cache ==@.";
  let params = Serve.Traffic.default in
  let result =
    Serve.Engine.run ~seed:params.Serve.Traffic.seed
      ~rate_rps:params.Serve.Traffic.rate_rps
      (Serve.Traffic.generate params)
  in
  let summary = result.Serve.Engine.summary in
  Format.printf "%a" Serve.Metrics.pp_summary summary;
  write_file "BENCH_serve.json" (Serve.Metrics.to_json summary);
  Format.printf "wrote BENCH_serve.json (%d requests, %d buckets)@.@."
    summary.Serve.Metrics.requests
    (List.length summary.Serve.Metrics.buckets)

(* ----- schedule-space search benchmark -----

   The three-tier superoptimizer (docs/TUNING.md) over the GEMM and FMHA
   decomposition spaces. Each search trajectory — tier-1 frontier
   statistics, proxy feedback, winner vs fixed-sweep baseline, per-tier
   wall — goes to BENCH_tune.json; the section fails if a winner goes
   unverified or loses to the fixed sweep. *)
let emit_tune_bench () =
  Format.printf "== Schedule-space search: three-tier superoptimizer ==@.";
  let machine = Gpu_sim.Machine.a6000 in
  let arch = machine.Gpu_sim.Machine.arch in
  let outcomes =
    List.map
      (fun space ->
        Tuner.Search.search ~seed:42 ~max_candidates:4096 ~proxy_top:8 machine
          space ())
      [ Tuner.Search.gemm_space arch ~m:4096 ~n:4096 ~k:1024 ()
      ; Tuner.Search.fmha_space arch ~seq:256 ~dh:64 ()
      ]
  in
  List.iter
    (fun o -> Format.printf "%a@.@." Tuner.Search.pp_outcome o)
    outcomes;
  write_file "BENCH_tune.json"
    (J.to_string
       (J.Obj
          [ ("schema", J.Str "graphene.tune_bench.v1")
          ; ("searches", J.Arr (List.map Tuner.Search.json outcomes))
          ]));
  Format.printf "wrote BENCH_tune.json (%d searches)@.@." (List.length outcomes);
  List.for_all
    (fun o ->
      let fail why =
        Format.printf "tune bench FAILED: %s winner %s@." o.Tuner.Search.o_space
          why;
        false
      in
      if not o.Tuner.Search.o_verified then fail "not verified"
      else if not (Tuner.Search.winner_beats_baseline o) then
        fail "loses to the fixed-sweep baseline"
      else true)
    outcomes

let sections =
  [ ("--sim-only", "BENCH_sim.json", emit_sim_bench)
  ; ("--serve-only", "BENCH_serve.json", fun () -> emit_serve_bench (); true)
  ; ("--tune-only", "BENCH_tune.json", emit_tune_bench)
  ]

(* No argument prints the figures and runs every section; a section flag
   runs that section alone. Each selected section runs even after
   another failed, and the run exits 1 at the end if any raised, a sim
   row broke bit-identity or a search winner failed its checks. *)
let () =
  let flags = List.map (fun (flag, _, _) -> flag) sections in
  let args = List.tl (Array.to_list Sys.argv) in
  if List.exists (fun a -> not (List.mem a flags)) args then begin
    prerr_endline ("usage: main.exe [" ^ String.concat " | " flags ^ "]");
    exit 2
  end;
  let selected = List.filter (fun (flag, _, _) -> List.mem flag args) sections in
  if selected = [] then begin
    Format.printf
      "Graphene reproduction benchmark harness — regenerating the paper's \
       evaluation@.(ASPLOS 2023: Graphene: An IR for Optimized Tensor \
       Computations on GPUs)@.@.";
    Experiments.Figures.print_all Format.std_formatter
  end;
  let failed =
    List.filter_map
      (fun (_, name, run) ->
        match run () with
        | true -> None
        | false -> Some name
        | exception exn ->
          Format.printf "%s FAILED: %s@." name (Printexc.to_string exn);
          Some name)
      (if selected = [] then sections else selected)
  in
  if failed <> [] then begin
    Format.printf "bench FAILED: %s@." (String.concat ", " failed);
    exit 1
  end
