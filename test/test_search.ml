(* Tests for the three-tier schedule-space search (docs/TUNING.md):
   the GEMM configuration enumeration, determinism across domain
   counts, budget monotonicity, the exact equivalence oracle, the FMHA
   space, and the per-candidate profile. *)

module Arch = Graphene.Arch
module Gemm = Kernels.Gemm
module PM = Gpu_sim.Perf_model
module S = Tuner.Search

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

module G = Experiments.Search_golden

let machine = G.machine
let gemm_space = G.gemm_space
let fmha_space = G.fmha_space
let run = G.run

(* The default 128^3 search, shared by the cases that only read it. *)
let default_outcome = lazy (G.gemm.G.search ())

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* A pinned trajectory must match its golden file byte for byte
   (regenerate with bin/gen_golden.exe after an intentional change). *)
let check_golden (c : G.case) o =
  check_string c.G.file
    (read_file ("golden/" ^ c.G.file))
    (S.to_json ~wall:false o)

(* ----- the GEMM configuration enumeration ----- *)

let test_candidates_valid () =
  let cands = S.gemm_configs Arch.SM86 ~m:512 ~n:512 ~k:512 in
  check_bool "several candidates" true (List.length cands > 5);
  (* Every candidate must construct a validating kernel. *)
  List.iter
    (fun cfg ->
      let kernel =
        Gemm.tensor_core Arch.SM86 cfg ~epilogue:Kernels.Epilogue.none ~m:512
          ~n:512 ~k:512 ()
      in
      Alcotest.(check (list string)) "well-formed" []
        (Graphene.Validate.check Arch.SM86 kernel))
    cands

(* Candidates that differ only in lowering knobs (vectorize, stages)
   share their kernels: each distinct kernel is built once per space. *)
let test_kernels_shared () =
  let lowering_free (c : S.candidate) =
    List.filter
      (fun (k, _) -> not (List.mem k [ "vectorize"; "stages" ]))
      c.S.knobs
  in
  List.iter
    (fun (space : S.space) ->
      let cands = space.S.enumerate () in
      let c0 = List.hd cands in
      let siblings =
        List.filter (fun c -> lowering_free c = lowering_free c0) cands
      in
      check_int (space.S.space_name ^ ": vectorize x stages siblings") 6
        (List.length siblings);
      List.iter
        (fun (c : S.candidate) ->
          check_bool "same build kernel" true (c.S.build () == c0.S.build ());
          check_bool "same proxy kernel" true (c.S.proxy () == c0.S.proxy ()))
        siblings)
    [ gemm_space (); fmha_space () ]

(* ----- tier 1 scores from the lowering's verdicts ----- *)

(* [Pipeline.analyze] runs the passes [lower] runs before compile, so its
   verdicts must be those of the plan [lower] builds — for every
   candidate of a space, on both architectures — and it must raise where
   [lower] does. *)
let test_analysis_matches_lower () =
  let outcome f = match f () with v -> Ok v | exception e -> Error e in
  List.iter
    (fun (space : S.space) ->
      List.iter
        (fun (c : S.candidate) ->
          match c.S.build () with
          | exception Invalid_argument _ -> ()
          | kernel -> (
            let label =
              Printf.sprintf "%s/%s #%d" space.S.space_name
                (Arch.name space.S.arch) c.S.id
            in
            let lowered =
              outcome (fun () ->
                  Lower.Pipeline.lower ?vectorize:c.S.vectorize
                    ~stages:c.S.stages space.S.arch kernel)
            and analyzed =
              outcome (fun () ->
                  Lower.Pipeline.analyze ?vectorize:c.S.vectorize
                    ~stages:c.S.stages space.S.arch kernel)
            in
            match (lowered, analyzed) with
            | Error _, Error _ -> ()
            | Ok plan, Ok a ->
              let body = plan.Lower.Plan.body in
              check_bool (label ^ " pipelining") true
                (plan.Lower.Plan.pipelining = a.Lower.Pipeline.pipelining);
              check_bool (label ^ " global width") true
                (Lower.Plan.global_vec_width body
                = a.Lower.Pipeline.widening.Lower.Plan.global_vec_width);
              check_bool (label ^ " refusals") true
                (Lower.Plan.refusal_histogram body
                = a.Lower.Pipeline.widening.Lower.Plan.vec_refusals)
            | Ok _, Error _ | Error _, Ok _ ->
              Alcotest.failf "%s: lower and analyze disagree on refusing"
                label))
        (space.S.enumerate ()))
    (List.concat_map
       (fun arch ->
         [ S.gemm_space arch ~m:128 ~n:128 ~k:128 ()
         ; S.fmha_space arch ~seq:64 ~dh:32 ()
         ])
       [ Arch.SM86; Arch.SM70 ])

(* Tier 1 compiles no plan, so it neither reads nor fills the plan
   cache. *)
let test_tier1_skips_cache () =
  let cands =
    S.select_budget ~seed:42 ~max_candidates:64 ((gemm_space ()).S.enumerate ())
  in
  let before = Lower.Pipeline.cache_stats () in
  let scored =
    List.filter
      (function _, S.Scored _ -> true | _, S.Pruned _ -> false)
      (S.tier1 machine cands)
  in
  check_bool "candidates scored" true (scored <> []);
  check_bool "cache statistics unchanged" true
    (Lower.Pipeline.cache_stats () = before)

(* A whole search lowers through the cache only in tiers 2 and 3: each
   tier-2 proxy misses once, and the oracle's lowering of the same proxy
   hits. *)
let test_search_cache_traffic () =
  Lower.Pipeline.cache_clear ();
  let o = run ~budget:64 (gemm_space ()) in
  let st = Lower.Pipeline.cache_stats () in
  let proxies =
    List.length o.S.o_simulated
    + Option.value ~default:0 (List.assoc_opt "sim-failed" o.S.o_pruned)
  in
  check_int "one miss per tier-2 proxy" proxies st.Lower.Pipeline.misses;
  check_bool "at most proxy_top misses" true
    (st.Lower.Pipeline.misses <= o.S.o_proxy_top);
  check_int "one hit per oracle run"
    (o.S.o_verify_rejected + if o.S.o_verified then 1 else 0)
    st.Lower.Pipeline.hits

(* ----- determinism ----- *)

(* The whole trajectory — frontier statistics, refusal histograms,
   ranking order, refined estimates, winner — must be byte-identical at
   every domain count: tier fan-out uses the pool's ascending-regroup
   discipline and every sort breaks ties on candidate id. *)
let test_deterministic_across_domains () =
  let json d = S.to_json ~wall:false (run ~domains:d (gemm_space ())) in
  let one = json 1 in
  List.iter
    (fun d -> check_string (Printf.sprintf "domains=%d" d) one (json d))
    [ 4; 7 ]

let test_deterministic_across_runs () =
  check_string "same seed, same trajectory"
    (S.to_json ~wall:false (Lazy.force default_outcome))
    (S.to_json ~wall:false (run (gemm_space ())))

let test_gemm_golden () = check_golden G.gemm (Lazy.force default_outcome)

(* The trajectory document parses, mirrors the outcome, and leaves the
   wall-clock group out of its deterministic form. *)
let test_json () =
  let open Json_parse in
  let o = Lazy.force default_outcome in
  let j = parse (S.to_json o) in
  let int_at key v = int_of_float (num_of (member key v)) in
  check_string "space" o.S.o_space (str_of (member "space" j));
  check_int "scored" o.S.o_scored (int_at "scored" j);
  check_int "ranking head capped at 16"
    (min 16 (List.length o.S.o_ranking))
    (List.length (arr_of (member "tier1_top" j)));
  check_int "every proxy run listed" (List.length o.S.o_simulated)
    (List.length (arr_of (member "proxy_simulated" j)));
  (match o.S.o_winner with
  | Some w ->
    check_int "winner id" w.S.sc.S.cand.S.id (int_at "id" (member "winner" j))
  | None -> Alcotest.fail "the default search has a winner");
  check_bool "verified" true
    (member "verified" j = Gpu_sim.Json.Bool o.S.o_verified);
  check_bool "wall group by default" true (has_member "wall" j);
  check_bool "no wall group in the deterministic form" false
    (has_member "wall" (parse (S.to_json ~wall:false o)))

(* ----- the ranking ----- *)

(* Tier 1's ranking is sorted by estimate, ties broken by id. *)
let test_ranking_sorted () =
  let rec check = function
    | (a : S.scored) :: (b :: _ as rest) ->
      let ta = a.S.estimate.PM.time_s and tb = b.S.estimate.PM.time_s in
      check_bool "sorted by estimate, then id" true
        (ta < tb || (ta = tb && a.S.cand.S.id < b.S.cand.S.id));
      check rest
    | _ -> ()
  in
  let ranking = (Lazy.force default_outcome).S.o_ranking in
  check_bool "ranking nonempty" true (ranking <> []);
  check ranking

let test_adapts_to_shape () =
  (* A skinny problem should not pick the same giant tiles as a square
     one: tier 1 over the old fixed sweep (the [legacy] candidates) must
     at least match the library-default config, scored with the
     single-buffered pipeline term tier 1 applies to an unpipelined
     candidate. *)
  let default = Gemm.default_config Arch.SM86 in
  let score cfg ~m ~n ~k =
    (PM.of_kernel machine
       ~pipeline:{ PM.stages = 1; occupancy = 0.0 }
       (Gemm.tensor_core Arch.SM86 cfg ~epilogue:Kernels.Epilogue.none ~m ~n
          ~k ())
       ())
      .PM.time_s
  in
  List.iter
    (fun (m, n, k) ->
      let legacy =
        List.filter
          (fun (c : S.candidate) -> c.S.legacy)
          ((S.gemm_space Arch.SM86 ~m ~n ~k ()).S.enumerate ())
      in
      let leader =
        List.fold_left
          (fun acc -> function
            | _, S.Scored s -> Float.min acc s.S.estimate.PM.time_s
            | _, S.Pruned _ -> acc)
          infinity (S.tier1 machine legacy)
      in
      check_bool
        (Printf.sprintf "beats default at %dx%dx%d" m n k)
        true
        (leader <= score default ~m ~n ~k +. 1e-9))
    [ (5376, 5376, 2048); (256, 4096, 512); (4096, 256, 512) ]

(* ----- the winner ----- *)

let test_winner_verified_and_beats_baseline () =
  let o = Lazy.force default_outcome in
  check_bool "verified" true o.S.o_verified;
  (match o.S.o_winner with
  | None -> Alcotest.fail "no winner"
  | Some w ->
    (* The refined ranking is sorted; the winner is its oracle-accepted
       head, so nothing the oracle accepted can beat it. *)
    List.iter
      (fun (s : S.simulated) ->
        if s.S.sc.S.cand.S.id <> w.S.sc.S.cand.S.id then
          check_bool "winner is refined head" true
            (w.S.refined.PM.time_s <= s.S.refined.PM.time_s +. 1e-15))
      o.S.o_simulated);
  check_bool "baseline simulated" true (o.S.o_baseline <> None);
  check_bool "winner beats the fixed sweep" true (S.winner_beats_baseline o)

let test_winner_computes_correctly () =
  (* The verified winner's full-size kernel, lowered as the candidate
     asks (vectorize pin, pipeline depth), must compute the GEMM. *)
  let m = 128 and n = 128 and k = 64 in
  match (run (S.gemm_space Arch.SM86 ~m ~n ~k ())).S.o_winner with
  | None -> Alcotest.fail "no winner"
  | Some w ->
    let cand = w.S.sc.S.cand in
    let plan, _ =
      Lower.Pipeline.lower_cached ?vectorize:cand.S.vectorize Arch.SM86
        (cand.S.build ()) ~stages:cand.S.stages
    in
    let a = Reference.Cpu_ref.random_fp16 ~seed:1 (m * k) in
    let b = Reference.Cpu_ref.random_fp16 ~seed:2 (k * n) in
    let c = Array.make (m * n) 0.0 in
    let _ =
      Gpu_sim.Interp.run_plan plan ~args:[ ("A", a); ("B", b); ("C", c) ] ()
    in
    let c_ref = Array.make (m * n) 0.0 in
    Reference.Cpu_ref.gemm ~m ~n ~k a b c_ref;
    check_bool "winner is correct" true (Reference.Cpu_ref.allclose c c_ref)

(* A problem with a zero size has nothing to tune: [Gemm.tensor_core]
   refuses every candidate, so the search prunes them all as
   build-refused and verifies no winner. *)
let test_empty_problem () =
  let o = run (S.gemm_space Arch.SM86 ~m:0 ~n:128 ~k:128 ()) in
  check_bool "candidates enumerated" true (o.S.o_enumerated > 0);
  check_int "nothing scored" 0 o.S.o_scored;
  check_bool "pruned as build-refused" true
    (List.mem_assoc "build-refused" o.S.o_pruned);
  check_bool "no winner" true (Option.is_none o.S.o_winner);
  check_bool "not verified" false o.S.o_verified

(* ----- budget monotonicity ----- *)

(* Priorities are per-id, so the sample at budget B is a subset of the
   sample at B + k: a larger budget only ever adds candidates, and the
   tier-1 leader can only improve. *)
let test_budget_monotone () =
  let space = gemm_space () in
  let head budget =
    match (run ~budget space).S.o_ranking with
    | s :: _ -> s.S.estimate.PM.time_s
    | [] -> infinity
  in
  let ts = List.map head [ 64; 128; 256; 512 ] in
  let rec check = function
    | a :: (b :: _ as rest) ->
      check_bool "tier-1 leader never worsens with budget" true
        (b <= a +. 1e-15);
      check rest
    | _ -> ()
  in
  check ts

let test_budget_nested () =
  (* The id sets themselves nest: every id sampled at budget B appears
     at budget 2B. *)
  let space = gemm_space () in
  let all = space.S.enumerate () in
  let ids budget =
    S.select_budget ~seed:42 ~max_candidates:budget all
    |> List.map (fun (c : S.candidate) -> c.S.id)
  in
  let small = ids 100 and large = ids 200 in
  check_int "small sample size" 100 (List.length small);
  List.iter
    (fun id -> check_bool "nested sample" true (List.mem id large))
    small

(* ----- the equivalence oracle ----- *)

let test_oracle_accepts_winner () =
  let o = Lazy.force default_outcome in
  match o.S.o_winner with
  | None -> Alcotest.fail "no winner"
  | Some w -> check_bool "accept" true (S.verify_candidate machine w.S.sc.S.cand)

let test_oracle_rejects_mismatched_plan () =
  (* Hold candidate A's kernel to candidate B's plan: a decomposition
     that computes a different problem must fail the bitwise oracle. *)
  let arch = Arch.SM86 in
  let base = Kernels.Gemm.default_config arch in
  let k64 =
    Kernels.Gemm.tensor_core arch
      { base with Kernels.Gemm.bm = 32; bn = 32; bk = 32; wm = 16; wn = 16 }
      ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:64 ()
  in
  let k128 =
    Kernels.Gemm.tensor_core arch
      { base with Kernels.Gemm.bm = 32; bn = 32; bk = 32; wm = 16; wn = 16 }
      ~epilogue:Kernels.Epilogue.none ~m:64 ~n:64 ~k:128 ()
  in
  let plan64, _ = Lower.Pipeline.lower_cached arch k64 ~stages:1 in
  let plan128, _ = Lower.Pipeline.lower_cached arch k128 ~stages:1 in
  check_bool "accepts the matching plan" true (S.verify_plan k64 plan64);
  check_bool "rejects the mismatched plan" false (S.verify_plan k128 plan64);
  check_bool "rejects the mismatched kernel" false (S.verify_plan k64 plan128)

(* ----- the FMHA space ----- *)

let test_fmha_space () =
  let o = G.fmha.G.search () in
  check_golden G.fmha o;
  check_bool "candidates scored" true (o.S.o_scored > 0);
  check_bool "verified" true o.S.o_verified;
  check_bool "beats the fixed sweep" true (S.winner_beats_baseline o);
  (* The stages axis exercises the swpipe refusal telemetry: FMHA's K/V
     buffers escape the staging loop into the softmax. *)
  check_bool "swpipe refusals recorded" true
    (List.mem_assoc "buffer-escapes:KVs" o.S.o_swpipe_refusals)

let test_fmha_deterministic () =
  let json d =
    S.to_json ~wall:false (run ~budget:4096 ~domains:d (fmha_space ()))
  in
  check_string "domains 1 vs 4" (json 1) (json 4)

(* ----- measured feedback ----- *)

let test_feedback_in_range () =
  let o = Lazy.force default_outcome in
  List.iter
    (fun (s : S.simulated) ->
      check_bool "measured width within [1, 4]" true
        (s.S.measured_vec >= 1.0 && s.S.measured_vec <= 4.0);
      check_bool "occupancy within [0, 1]" true
        (s.S.occupancy >= 0.0 && s.S.occupancy <= 1.0 +. 1e-9))
    o.S.o_simulated

(* ----- the per-candidate profile ----- *)

(* Profiling a proxy-simulated candidate replays tier 2's run under the
   profiler: the report must reproduce the measured queue occupancy to
   the last bit and attribute nearly every instruction to a spec. *)
let test_profile () =
  let o = Lazy.force default_outcome in
  check_bool "candidates simulated" true (o.S.o_simulated <> []);
  List.iter
    (fun (s : S.simulated) ->
      let rep = S.profile machine s.S.sc.S.cand in
      let occupancy =
        if s.S.proxy_stages <= 1 then 0.0
        else
          rep.Gpu_sim.Profiler.async_mean_inflight
          /. float_of_int s.S.proxy_stages
      in
      check_bool "occupancy reproduces tier 2" true
        (Float.equal occupancy s.S.occupancy);
      check_bool "instructions attributed" true
        (rep.Gpu_sim.Profiler.attributed_instructions >= 0.95))
    o.S.o_simulated

let () =
  Alcotest.run "search"
    [ ( "gemm configs"
      , [ Alcotest.test_case "candidates validate" `Slow test_candidates_valid
        ; Alcotest.test_case "kernels shared across lowering knobs" `Quick
            test_kernels_shared
        ] )
    ; ( "tier 1"
      , [ Alcotest.test_case "analysis verdicts equal lower's" `Quick
            test_analysis_matches_lower
        ; Alcotest.test_case "tier 1 skips the plan cache" `Quick
            test_tier1_skips_cache
        ; Alcotest.test_case "search misses only on proxies" `Quick
            test_search_cache_traffic
        ] )
    ; ( "determinism"
      , [ Alcotest.test_case "across domains" `Slow
            test_deterministic_across_domains
        ; Alcotest.test_case "across runs" `Quick
            test_deterministic_across_runs
        ; Alcotest.test_case "trajectory JSON" `Quick test_json
        ; Alcotest.test_case "gemm trajectory golden" `Quick test_gemm_golden
        ] )
    ; ( "ranking"
      , [ Alcotest.test_case "ranking sorted" `Quick test_ranking_sorted
        ; Alcotest.test_case "adapts to shape" `Quick test_adapts_to_shape
        ] )
    ; ( "winner"
      , [ Alcotest.test_case "verified and beats baseline" `Quick
            test_winner_verified_and_beats_baseline
        ; Alcotest.test_case "winner computes correctly" `Quick
            test_winner_computes_correctly
        ; Alcotest.test_case "none for an empty problem" `Quick
            test_empty_problem
        ] )
    ; ( "budget"
      , [ Alcotest.test_case "leader monotone" `Slow test_budget_monotone
        ; Alcotest.test_case "samples nest" `Quick test_budget_nested
        ] )
    ; ( "oracle"
      , [ Alcotest.test_case "accepts winner" `Quick test_oracle_accepts_winner
        ; Alcotest.test_case "rejects mismatch" `Quick
            test_oracle_rejects_mismatched_plan
        ] )
    ; ( "fmha"
      , [ Alcotest.test_case "space searches and verifies" `Quick
            test_fmha_space
        ; Alcotest.test_case "deterministic" `Quick test_fmha_deterministic
        ] )
    ; ( "feedback"
      , [ Alcotest.test_case "measured values in range" `Quick
            test_feedback_in_range
        ] )
    ; ("profile", [ Alcotest.test_case "profile" `Quick test_profile ])
    ]
