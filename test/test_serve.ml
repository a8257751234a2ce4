(* The continuous-batching serving engine (lib/serve, docs/SERVING.md):
   seeded-traffic determinism, admission policy (bucketing, caps, FIFO),
   plan-cache hit accounting, the scheduler against the run, the same
   results and failures at every shard count, and — the load-bearing
   property — bitwise identity of every batched request's outputs and
   counters with a direct solo [Interp.run] of the same request. *)

module Arch = Graphene.Arch
module Spec = Graphene.Spec
module Req = Serve.Request
module Traffic = Serve.Traffic
module Admission = Serve.Admission
module Engine = Serve.Engine
module Metrics = Serve.Metrics
module Interp = Gpu_sim.Interp
module C = Gpu_sim.Counters
module T = Workloads.Transformer

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let mk ?(model = "test") ?(arch = Arch.SM86) ~id ~arrival kind =
  { Req.id
  ; arrival_s = arrival
  ; spec = { Req.model; arch; kind }
  }

let attention ?(seq = 32) ?(dh = 16) () =
  Req.Attention { heads = 1; seq; dh; chunk = 16 }

let small_traffic ?(requests = 16) () =
  { Traffic.default with Traffic.requests; rate_rps = 50_000.0 }

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* ----- traffic generator ----- *)

let test_traffic_determinism () =
  let p = small_traffic ~requests:40 () in
  let a = Traffic.generate p and b = Traffic.generate p in
  check_bool "same seed, identical request stream" true (a = b);
  let c = Traffic.generate { p with Traffic.seed = p.Traffic.seed + 1 } in
  check_bool "different seed, different stream" false (a = c)

let test_traffic_stream () =
  let reqs = Traffic.generate (small_traffic ~requests:64 ()) in
  check_int "request count" 64 (List.length reqs);
  List.iteri
    (fun i (r : Req.t) -> check_int "ids are positional" i r.Req.id)
    reqs;
  let ok_sorted =
    let rec go = function
      | (a : Req.t) :: (b : Req.t) :: rest ->
        a.Req.arrival_s <= b.Req.arrival_s && go (b :: rest)
      | _ -> true
    in
    go reqs
  in
  check_bool "arrivals nondecreasing" true ok_sorted;
  List.iter
    (fun (r : Req.t) ->
      match r.Req.spec.Req.kind with
      | Req.Attention { seq; dh; chunk; _ } ->
        check_int "seq divides by chunk" 0 (seq mod chunk);
        if r.Req.spec.Req.arch = Arch.SM70 then
          check_int "Volta heads are 32-wide" 32 dh
      | Req.Ffn { m; n; k } ->
        check_bool "ffn shape positive" true (m >= 1 && n >= 1 && k >= 1))
    reqs

let test_traffic_proxies () =
  (* The shape derivation from the Figure-15 networks is pinned: seq and
     heads scale by 1/8, ffn by 1/64, hidden by 1/32. *)
  check_bool "bert-base attention" true
    (Traffic.attention_proxy T.bert_base ~arch:Arch.SM86 ~short:false
    = Req.Attention { heads = 1; seq = 48; dh = 16; chunk = 16 });
  check_bool "gpt2 long context" true
    (Traffic.attention_proxy T.gpt2 ~arch:Arch.SM86 ~short:false
    = Req.Attention { heads = 1; seq = 64; dh = 16; chunk = 16 });
  check_bool "bert-large keeps two proxy heads" true
    (Traffic.attention_proxy T.bert_large ~arch:Arch.SM86 ~short:false
    = Req.Attention { heads = 2; seq = 48; dh = 16; chunk = 16 });
  check_bool "volta proxy rounds to quad-pair shapes" true
    (Traffic.attention_proxy T.bert_base ~arch:Arch.SM70 ~short:false
    = Req.Attention { heads = 1; seq = 32; dh = 32; chunk = 32 });
  check_bool "bert-base ffn" true
    (Traffic.ffn_proxy T.bert_base ~m:7 = Req.Ffn { m = 7; n = 48; k = 24 })

(* ----- bucketing ----- *)

let test_bucketing () =
  let a0 = mk ~id:0 ~arrival:0.0 (attention ()) in
  let a1 = mk ~id:1 ~arrival:0.0 (attention ()) in
  let b = mk ~id:2 ~arrival:0.0 (attention ~seq:48 ()) in
  check_string "same shape, same bucket" (Req.bucket a0) (Req.bucket a1);
  check_bool "different seq, different bucket" false
    (Req.bucket a0 = Req.bucket b);
  check_bool "arch is part of the bucket" false
    (Req.bucket a0 = Req.bucket (mk ~id:3 ~arrival:0.0 ~arch:Arch.SM70
                                   (Req.Attention { heads = 1; seq = 32; dh = 32; chunk = 32 })));
  (* Ragged FFN shapes bucket to one covering launch grid; only the
     scalar parameters differ. *)
  let f0 = mk ~id:4 ~arrival:0.0 (Req.Ffn { m = 17; n = 48; k = 10 }) in
  let f1 = mk ~id:5 ~arrival:0.0 (Req.Ffn { m = 30; n = 33; k = 24 }) in
  check_string "ragged ffn shapes share a bucket" (Req.bucket f0)
    (Req.bucket f1);
  check_bool "ffn beyond the grid opens a new bucket" false
    (Req.bucket f0
    = Req.bucket (mk ~id:6 ~arrival:0.0 (Req.Ffn { m = 33; n = 48; k = 10 })));
  (* The bucketing contract: equal buckets mean structurally identical
     kernels (hence one plan-cache entry). *)
  check_string "same bucket, same kernel structure"
    (Spec.kernel_to_string (Req.kernel f0))
    (Spec.kernel_to_string (Req.kernel f1));
  check_string "same bucket, same kernel structure (attention)"
    (Spec.kernel_to_string (Req.kernel a0))
    (Spec.kernel_to_string (Req.kernel a1))

(* ----- admission policy ----- *)

let test_admission_grouping () =
  let att seq id = mk ~id ~arrival:0.0 (attention ~seq ()) in
  let queue = [ att 32 0; att 48 1; att 32 2; att 48 3 ] in
  let batches, leftover =
    Admission.admit ~max_tick_cells:max_int ~max_batch_requests:16 queue
  in
  check_int "nothing left queued" 0 (List.length leftover);
  check_int "two buckets, two batches" 2 (List.length batches);
  let ids b = List.map (fun (r : Req.t) -> r.Req.id) b.Admission.requests in
  (match batches with
  | [ b1; b2 ] ->
    check_bool "bucket order follows first arrival" true
      (ids b1 = [ 0; 2 ] && ids b2 = [ 1; 3 ])
  | _ -> Alcotest.fail "expected two batches");
  (* Request cap splits a bucket's run into FIFO chunks. *)
  let batches, _ =
    Admission.admit ~max_tick_cells:max_int ~max_batch_requests:1 queue
  in
  check_int "batch cap of one" 4 (List.length batches);
  check_bool "FIFO within bucket preserved under splitting" true
    (List.map ids batches = [ [ 0 ]; [ 2 ]; [ 1 ]; [ 3 ] ])

let test_admission_cell_cap () =
  let att id = mk ~id ~arrival:0.0 (attention ()) in
  let queue = [ att 0; att 1; att 2 ] in
  let one = Req.cells (att 0) in
  (* Budget for exactly two requests: the third blocks (head-of-line). *)
  let batches, leftover =
    Admission.admit ~max_tick_cells:(2 * one) ~max_batch_requests:16 queue
  in
  check_int "two admitted" 2
    (List.fold_left
       (fun s b -> s + List.length b.Admission.requests)
       0 batches);
  check_bool "third stays queued" true
    (List.map (fun (r : Req.t) -> r.Req.id) leftover = [ 2 ]);
  (* Head-of-line blocking is strict FIFO: a small request behind the
     blocked one must not jump the line, even into an open bucket. *)
  let big = mk ~id:10 ~arrival:0.0 (attention ~seq:64 ~dh:32 ()) in
  let batches, leftover =
    Admission.admit ~max_tick_cells:(one + 1) ~max_batch_requests:16
      [ att 0; big; att 1 ]
  in
  check_bool "only the head admitted" true
    (List.map
       (fun b -> List.map (fun (r : Req.t) -> r.Req.id) b.Admission.requests)
       batches
    = [ [ 0 ] ]);
  check_bool "blocked request keeps its successors queued" true
    (List.map (fun (r : Req.t) -> r.Req.id) leftover = [ 10; 1 ]);
  (* An oversized request at the head is still admitted (no starvation). *)
  let batches, leftover =
    Admission.admit ~max_tick_cells:1 ~max_batch_requests:16 [ big; att 0 ]
  in
  check_bool "oversized head admitted alone" true
    (List.map
       (fun b -> List.map (fun (r : Req.t) -> r.Req.id) b.Admission.requests)
       batches
    = [ [ 10 ] ]);
  check_int "rest queued" 1 (List.length leftover)

(* ----- the engine: batched execution is bit-identical to solo runs ----- *)

let engine_config ?(keep_buffers = true) () =
  { (Engine.default_config ()) with
    Engine.shards = 2
  ; keep_buffers
  }

let test_engine_bit_identity () =
  let reqs = Traffic.generate (small_traffic ~requests:16 ()) in
  let result = Engine.run ~config:(engine_config ()) reqs in
  check_int "every request completes" (List.length reqs)
    (List.length result.Engine.completed);
  List.iter
    (fun (c : Engine.completed) ->
      let r = c.Engine.request in
      let args = Req.args r in
      let counters =
        Interp.run ~arch:r.Req.spec.Req.arch ~domains:1 (Req.kernel r) ~args
          ~scalars:(Req.scalars r) ()
      in
      let label = Format.asprintf "%a" Req.pp r in
      (* Engine and solo run execute the same vectorized plan, so every
         field must agree, request counters included. *)
      Alcotest.(check (option string))
        (Printf.sprintf "counters bit-identical: %s" label)
        None
        (C.diff C.All counters c.Engine.counters);
      check_bool
        (Printf.sprintf "buffers bit-identical: %s" label)
        true
        (List.for_all2
           (fun (na, xa) (nb, xb) -> String.equal na nb && xa = xb)
           args c.Engine.buffers))
    result.Engine.completed

let test_engine_fifo_within_bucket () =
  let reqs = Traffic.generate (small_traffic ~requests:32 ()) in
  let result =
    Engine.run ~config:(engine_config ~keep_buffers:false ()) reqs
  in
  (* Within a bucket, completion order is arrival order (admission is
     FIFO and batches preserve it). *)
  let by_bucket = Hashtbl.create 8 in
  List.iter
    (fun (c : Engine.completed) ->
      let key = c.Engine.batch_bucket in
      let prev =
        Option.value (Hashtbl.find_opt by_bucket key) ~default:(-1)
      in
      check_bool
        (Printf.sprintf "FIFO in %s" key)
        true
        (c.Engine.request.Req.id > prev);
      Hashtbl.replace by_bucket key c.Engine.request.Req.id)
    result.Engine.completed

(* The scheduler's entries are the run's completions minus execution:
   same requests, order, batches and simulated times. *)
let test_schedule_matches_run () =
  let reqs = Traffic.generate (small_traffic ~requests:24 ()) in
  let config = engine_config ~keep_buffers:false () in
  let sched = Engine.schedule ~config reqs in
  let result = Engine.run ~config reqs in
  check_int "one entry per completion"
    (List.length result.Engine.completed)
    (List.length sched.Engine.scheduled);
  List.iter2
    (fun (s : Engine.scheduled) (c : Engine.completed) ->
      let id = c.Engine.request.Req.id in
      check_int "same request, same order" id s.Engine.request.Req.id;
      check_bool
        (Printf.sprintf "#%d: admit, start, finish and service times" id)
        true
        (s.Engine.admit_s = c.Engine.admit_s
        && s.Engine.start_s = c.Engine.start_s
        && s.Engine.finish_s = c.Engine.finish_s
        && s.Engine.service_s = c.Engine.service_s);
      check_bool
        (Printf.sprintf "#%d: batch and plan accounting" id)
        true
        (s.Engine.batch_id = c.Engine.batch_id
        && s.Engine.batch_requests = c.Engine.batch_requests
        && s.Engine.plan_hit = c.Engine.plan_hit))
    sched.Engine.scheduled result.Engine.completed;
  let summary = result.Engine.summary in
  check_int "ticks" summary.Metrics.ticks sched.Engine.ticks;
  check_int "batches" summary.Metrics.batches sched.Engine.batches

(* Execution ignores batches, but the fold runs in schedule order: the
   deterministic document and the output digest cannot depend on how
   many requests run at once. [config.shards] echoes the setting, so it
   is pinned before rendering. *)
let test_shard_invariance () =
  let p = small_traffic ~requests:24 () in
  let reqs = Traffic.generate p in
  let serve shards =
    let s =
      (Engine.run
         ~config:{ (engine_config ~keep_buffers:false ()) with Engine.shards }
         ~seed:p.Traffic.seed ~rate_rps:p.Traffic.rate_rps reqs)
        .Engine.summary
    in
    ( Metrics.to_json ~wall:false { s with Metrics.shards = 1 }
    , s.Metrics.output_digest )
  in
  let json1, digest1 = serve 1 in
  List.iter
    (fun shards ->
      let json, digest = serve shards in
      check_string
        (Printf.sprintf "deterministic JSON at %d shards" shards)
        json1 json;
      check_string
        (Printf.sprintf "output digest at %d shards" shards)
        digest1 digest)
    [ 2; 3; 7 ]

(* Two FFN requests that schedule and lower fine but fail to execute:
   a negative K asks [Request.args] for a negative-length array
   (Invalid_argument "Array.init"), a K of 2^58 for one longer than any
   array (Invalid_argument "Array.make"). Whichever is scheduled first
   is the one raised, at every shard count. *)
let test_earliest_failure () =
  let ffn id k = mk ~id ~arrival:0.0 (Req.Ffn { m = 1; n = 1; k }) in
  let att id = mk ~id ~arrival:0.0 (attention ()) in
  let huge = 1 lsl 58 in
  let raised shards reqs =
    match
      Engine.run
        ~config:{ (engine_config ~keep_buffers:false ()) with Engine.shards }
        reqs
    with
    | _ -> "no exception"
    | exception Invalid_argument m -> m
    | exception e -> Printexc.to_string e
  in
  List.iter
    (fun (first, trace) ->
      let order =
        List.map
          (fun (s : Engine.scheduled) -> s.Engine.request.Req.id)
          (Engine.schedule trace).Engine.scheduled
      in
      List.iter
        (fun shards ->
          check_string
            (Printf.sprintf "schedule %s, %d shards"
               (String.concat " " (List.map string_of_int order))
               shards)
            first (raised shards trace))
        [ 1; 2; 7 ])
    [ (* The oversized request waits for the head of the line, so the
         negative one is scheduled first: 0 2 1 3 4. *)
      ( "Array.init"
      , [ att 0; ffn 1 (-1); att 2; ffn 3 huge; att 4 ] )
    ; (* It blocks the line instead: 0 1 2 4 3. *)
      ("Array.make", [ att 0; ffn 1 huge; att 2; ffn 3 (-1); att 4 ])
    ]

(* ----- plan-cache accounting ----- *)

let test_plan_cache_accounting () =
  (* Six same-shape requests in one tick, batches capped at two: three
     batches, one lowering — the first batch misses, the rest hit. *)
  let reqs = List.init 6 (fun id -> mk ~id ~arrival:0.0 (attention ())) in
  Lower.Pipeline.cache_clear ();
  let before = Lower.Pipeline.cache_stats () in
  let config =
    { (engine_config ~keep_buffers:false ()) with
      Engine.max_batch_requests = 2
    }
  in
  let result = Engine.run ~config reqs in
  let s = result.Engine.summary in
  check_int "three batches" 3 s.Metrics.batches;
  check_int "one lowering for the whole bucket" 1 s.Metrics.plan_lowers;
  check_int "every later batch hits" 2 s.Metrics.plan_hits;
  let after = Lower.Pipeline.cache_stats () in
  check_int "process-wide cache lowered once" 1
    (after.Lower.Pipeline.misses - before.Lower.Pipeline.misses);
  (* Ragged FFN shapes: one bucket, one plan — the scalar-modulo cache
     key means even *different* (M, N, K) share the single lowering. *)
  let reqs =
    List.mapi
      (fun i (m, n, k) -> mk ~id:i ~arrival:0.0 (Req.Ffn { m; n; k }))
      [ (17, 48, 10); (30, 33, 24); (32, 64, 32); (1, 48, 3) ]
  in
  Lower.Pipeline.cache_clear ();
  let before = Lower.Pipeline.cache_stats () in
  let result = Engine.run ~config reqs in
  let s = result.Engine.summary in
  check_int "ragged gemms: one bucket" 1 (List.length s.Metrics.buckets);
  check_int "ragged gemms: one lowering" 1 s.Metrics.plan_lowers;
  let after = Lower.Pipeline.cache_stats () in
  check_int "scalar-modulo key: one miss for four shapes" 1
    (after.Lower.Pipeline.misses - before.Lower.Pipeline.misses)

(* ----- metrics & benchmark determinism ----- *)

let test_percentiles () =
  let d = Metrics.dist_of (List.init 100 (fun i -> float_of_int (i + 1))) in
  check_bool "p50" true (d.Metrics.p50 = 50.0);
  check_bool "p95" true (d.Metrics.p95 = 95.0);
  check_bool "p99" true (d.Metrics.p99 = 99.0);
  check_bool "max" true (d.Metrics.max = 100.0);
  let z = Metrics.dist_of [] in
  check_bool "empty sample is all zeros" true
    (z.Metrics.p50 = 0.0 && z.Metrics.max = 0.0)

let test_bench_determinism () =
  (* The acceptance property of BENCH_serve.json: same seed, fresh
     engine, identical document modulo the wall-clock field group. *)
  let p = small_traffic ~requests:24 () in
  let run () =
    Engine.run ~config:(engine_config ~keep_buffers:false ())
      ~seed:p.Traffic.seed ~rate_rps:p.Traffic.rate_rps
      (Traffic.generate p)
  in
  let a = run () and b = run () in
  check_string "deterministic JSON identical across runs"
    (Metrics.to_json ~wall:false a.Engine.summary)
    (Metrics.to_json ~wall:false b.Engine.summary);
  check_string "output digest identical"
    a.Engine.summary.Metrics.output_digest
    b.Engine.summary.Metrics.output_digest;
  (* The full document carries the wall group; the deterministic form
     must not. *)
  let open Json_parse in
  let full = parse (Metrics.to_json a.Engine.summary) in
  check_bool "wall fields present by default" true (has_member "wall" full);
  check_bool "wall fields omitted in deterministic form" false
    (has_member "wall" (parse (Metrics.to_json ~wall:false a.Engine.summary)));
  check_string "schema tag" "graphene.serve_bench.v2"
    (str_of (member "schema" full));
  check_int "one bucket entry per bucket"
    (List.length a.Engine.summary.Metrics.buckets)
    (List.length (arr_of (member "buckets" full)))

(* An empty trace has no makespan: zero throughput, and a document that
   still parses (NaN is not JSON). *)
let test_empty_trace () =
  let s =
    (Engine.run ~config:(engine_config ~keep_buffers:false ()) [])
      .Engine.summary
  in
  check_bool "zero req/s" true (s.Metrics.sim_requests_per_sec = 0.0);
  check_bool "zero cells/s" true (s.Metrics.sim_cells_per_sec = 0.0);
  let sim = Json_parse.(member "sim" (parse (Metrics.to_json s))) in
  check_bool "requests_per_sec reads 0" true
    (Json_parse.(num_of (member "requests_per_sec" sim)) = 0.0)

(* Out-of-range settings are rejected up front, naming the field — a
   zero tick or batch cap would otherwise never drain the queue. *)
let test_rejects_bad_config () =
  let rejects field f =
    match f () with
    | () -> Alcotest.failf "%s: out-of-range value accepted" field
    | exception Invalid_argument msg ->
      check_bool (Printf.sprintf "%S names %s" msg field) true
        (contains msg field)
  in
  let p = small_traffic ~requests:4 () in
  let traffic p () = ignore (Traffic.generate p) in
  rejects "requests" (traffic { p with Traffic.requests = -1 });
  List.iter
    (fun r -> rejects "rate_rps" (traffic { p with Traffic.rate_rps = r }))
    [ 0.0; -5.0; nan; infinity ];
  let cfg = engine_config ~keep_buffers:false () in
  let serve c () = ignore (Engine.run ~config:c (Traffic.generate p)) in
  List.iter
    (fun t -> rejects "tick_s" (serve { cfg with Engine.tick_s = t }))
    [ 0.0; -0.001; nan; infinity ];
  rejects "max_tick_cells" (serve { cfg with Engine.max_tick_cells = 0 });
  List.iter
    (fun b ->
      rejects "max_batch_requests"
        (serve { cfg with Engine.max_batch_requests = b }))
    [ 0; -1 ];
  rejects "shards" (serve { cfg with Engine.shards = 0 })

let () =
  Alcotest.run "serve"
    [ ( "traffic"
      , [ Alcotest.test_case "fixed-seed determinism" `Quick
            test_traffic_determinism
        ; Alcotest.test_case "stream well-formed" `Quick test_traffic_stream
        ; Alcotest.test_case "network shape proxies" `Quick
            test_traffic_proxies
        ] )
    ; ( "admission"
      , [ Alcotest.test_case "bucketing" `Quick test_bucketing
        ; Alcotest.test_case "grouping and FIFO" `Quick
            test_admission_grouping
        ; Alcotest.test_case "cell cap and head-of-line" `Quick
            test_admission_cell_cap
        ] )
    ; ( "engine"
      , [ Alcotest.test_case "batched runs bit-identical to solo runs"
            `Quick test_engine_bit_identity
        ; Alcotest.test_case "FIFO within bucket" `Quick
            test_engine_fifo_within_bucket
        ; Alcotest.test_case "plan-cache hit accounting" `Quick
            test_plan_cache_accounting
        ; Alcotest.test_case "rejects out-of-range settings" `Quick
            test_rejects_bad_config
        ; Alcotest.test_case "schedule times equal run times" `Quick
            test_schedule_matches_run
        ; Alcotest.test_case "same document and digest at 1, 2, 3, 7 shards"
            `Quick test_shard_invariance
        ; Alcotest.test_case "earliest-scheduled failure raised" `Quick
            test_earliest_failure
        ] )
    ; ( "metrics"
      , [ Alcotest.test_case "percentiles" `Quick test_percentiles
        ; Alcotest.test_case "benchmark determinism" `Quick
            test_bench_determinism
        ; Alcotest.test_case "empty trace" `Quick test_empty_trace
        ] )
    ]
