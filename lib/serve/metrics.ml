type dist =
  { p50 : float
  ; p95 : float
  ; p99 : float
  ; mean : float
  ; max : float
  }

(* Nearest-rank percentile on the sorted sample: p(q) is element
   ceil(q/100 * n) (1-based). Deterministic for a given sample. *)
let dist_of xs =
  match xs with
  | [] -> { p50 = 0.0; p95 = 0.0; p99 = 0.0; mean = 0.0; max = 0.0 }
  | _ ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let pct q =
      let rank = int_of_float (ceil (q /. 100.0 *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))
    in
    { p50 = pct 50.0
    ; p95 = pct 95.0
    ; p99 = pct 99.0
    ; mean = Array.fold_left ( +. ) 0.0 a /. float_of_int n
    ; max = a.(n - 1)
    }

type bucket_stats =
  { key : string
  ; requests : int
  ; cells : int
  ; batches : int
  ; mean_batch_requests : float
  ; occupancy : float
  ; lowers : int
  ; hits : int
  }

type summary =
  { seed : int option
  ; rate_rps : float option
  ; requests : int
  ; tick_s : float
  ; max_tick_cells : int
  ; max_batch_requests : int
  ; shards : int
  ; exec_engine : string
  ; ticks : int
  ; batches : int
  ; cells : int
  ; makespan_s : float
  ; busy_s : float
  ; sim_requests_per_sec : float
  ; sim_cells_per_sec : float
  ; latency : dist
  ; queue : dist
  ; service : dist
  ; plan_lowers : int
  ; plan_hits : int
  ; buckets : bucket_stats list
  ; output_digest : string
  ; wall_s : float
  ; wall_requests_per_sec : float
  ; wall_lower_s : float
  ; wall_exec_s : float
  ; wall_exec_latency : dist
  }

let hit_rate s =
  let total = s.plan_hits + s.plan_lowers in
  if total = 0 then 0.0 else float_of_int s.plan_hits /. float_of_int total

module J = Gpu_sim.Json

let dist_json d =
  J.Obj
    [ ("p50", J.Float d.p50)
    ; ("p95", J.Float d.p95)
    ; ("p99", J.Float d.p99)
    ; ("mean", J.Float d.mean)
    ; ("max", J.Float d.max)
    ]

let bucket_json b =
  J.Obj
    [ ("key", J.Str b.key)
    ; ("requests", J.Int b.requests)
    ; ("cells", J.Int b.cells)
    ; ("batches", J.Int b.batches)
    ; ("mean_batch_requests", J.Float b.mean_batch_requests)
    ; ("occupancy", J.Float b.occupancy)
    ; ("plan_lowers", J.Int b.lowers)
    ; ("plan_hits", J.Int b.hits)
    ]

let to_json ?(wall = true) s =
  let opt key f = function Some x -> [ (key, f x) ] | None -> [] in
  J.to_string
    (J.Obj
       ([ ("schema", J.Str "graphene.serve_bench.v2") ]
       @ opt "seed" (fun n -> J.Int n) s.seed
       @ [ ( "config"
           , J.Obj
               ([ ("requests", J.Int s.requests) ]
               @ opt "rate_rps" (fun r -> J.Float r) s.rate_rps
               @ [ ("tick_s", J.Float s.tick_s)
                 ; ("max_tick_cells", J.Int s.max_tick_cells)
                 ; ("max_batch_requests", J.Int s.max_batch_requests)
                 ; ("shards", J.Int s.shards)
                 ; ("exec_engine", J.Str s.exec_engine)
                 ]) )
         ; ( "sim"
           , J.Obj
               [ ("ticks", J.Int s.ticks)
               ; ("batches", J.Int s.batches)
               ; ("cells", J.Int s.cells)
               ; ("makespan_s", J.Float s.makespan_s)
               ; ("busy_s", J.Float s.busy_s)
               ; ("requests_per_sec", J.Float s.sim_requests_per_sec)
               ; ("cells_per_sec", J.Float s.sim_cells_per_sec)
               ; ("latency_s", dist_json s.latency)
               ; ("queue_s", dist_json s.queue)
               ; ("service_s", dist_json s.service)
               ] )
         ; ( "plan_cache"
           , J.Obj
               [ ("lowers", J.Int s.plan_lowers)
               ; ("hits", J.Int s.plan_hits)
               ; ("hit_rate", J.Float (hit_rate s))
               ] )
         ; ("buckets", J.Arr (List.map bucket_json s.buckets))
         ; ("output_digest", J.Str s.output_digest)
         ]
       @
       if not wall then []
       else
         [ ( "wall"
           , J.Obj
               [ ("wall_s", J.Float s.wall_s)
               ; ("requests_per_sec", J.Float s.wall_requests_per_sec)
               ; ("lower_s", J.Float s.wall_lower_s)
               ; ("exec_s", J.Float s.wall_exec_s)
               ; ("exec_latency_s", dist_json s.wall_exec_latency)
               ] )
         ]))

let pp_dist fmt d =
  Format.fprintf fmt "p50 %.1fus  p95 %.1fus  p99 %.1fus  max %.1fus"
    (d.p50 *. 1e6) (d.p95 *. 1e6) (d.p99 *. 1e6) (d.max *. 1e6)

let pp_summary fmt s =
  Format.fprintf fmt
    "served %d requests (%d cells) in %d ticks / %d batches across %d \
     buckets [%s engine]@."
    s.requests s.cells s.ticks s.batches (List.length s.buckets)
    s.exec_engine;
  Format.fprintf fmt
    "  simulated: makespan %.1fus  busy %.1fus  %.3g req/s  %.3g cells/s@."
    (s.makespan_s *. 1e6) (s.busy_s *. 1e6) s.sim_requests_per_sec
    s.sim_cells_per_sec;
  Format.fprintf fmt "  latency:   %a@." pp_dist s.latency;
  Format.fprintf fmt "  queueing:  %a@." pp_dist s.queue;
  Format.fprintf fmt
    "  plan cache: %d lowers, %d hits (%.0f%% hit rate)@."
    s.plan_lowers s.plan_hits (100.0 *. hit_rate s);
  List.iter
    (fun b ->
      Format.fprintf fmt
        "  %-24s %4d req  %3d batch(es)  mean %.1f req/batch  occupancy \
         %3.0f%%@."
        b.key b.requests b.batches b.mean_batch_requests
        (100.0 *. b.occupancy))
    s.buckets;
  Format.fprintf fmt
    "  wall: %.2fs (%.0f req/s), lowering %.3fs, execution %.2fs \
     [host-dependent]@."
    s.wall_s s.wall_requests_per_sec s.wall_lower_s s.wall_exec_s
