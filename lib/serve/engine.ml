module C = Gpu_sim.Counters
module Pool = Gpu_sim.Domain_pool

type config =
  { tick_s : float
  ; max_tick_cells : int
  ; max_batch_requests : int
  ; shards : int
  ; keep_buffers : bool
  }

let default_config () =
  { tick_s = 1e-4
  ; max_tick_cells = 600_000
  ; max_batch_requests = 16
  ; shards = Pool.default_domains ()
  ; keep_buffers = false
  }

type scheduled =
  { request : Request.t
  ; plan : Lower.Plan.t
  ; admit_s : float
  ; start_s : float
  ; finish_s : float
  ; service_s : float
  ; plan_hit : bool
  ; batch_id : int
  ; batch_bucket : string
  ; batch_requests : int
  }

type schedule =
  { scheduled : scheduled list
  ; ticks : int
  ; batches : int
  ; buckets : Metrics.bucket_stats list
  ; wall_lower_s : float
  }

type completed =
  { request : Request.t
  ; admit_s : float
  ; start_s : float
  ; finish_s : float
  ; service_s : float
  ; plan_hit : bool
  ; batch_id : int
  ; batch_bucket : string
  ; batch_requests : int
  ; counters : Gpu_sim.Counters.t
  ; buffers : (string * float array) list
  ; exec_wall_s : float
  }

type result =
  { completed : completed list
  ; summary : Metrics.summary
  }

(* ----- deterministic output digest -----

   A 64-bit fingerprint over every request's counters and buffers, so
   determinism checks can compare one string instead of megabytes of
   arrays. splitmix64-style mixing; fold order is the (deterministic)
   schedule order. *)

let mix h v =
  let z = Int64.add (Int64.mul h 0x100000001B3L) v in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  Int64.logxor z (Int64.shift_right_logical z 27)

let mix_int h i = mix h (Int64.of_int i)

let mix_string h s =
  String.fold_left (fun h c -> mix_int h (Char.code c)) (mix_int h 17) s

let mix_floats h a =
  Array.fold_left (fun h x -> mix h (Int64.bits_of_float x)) h a

let mix_counters h (c : C.t) =
  let h = mix_int h c.C.global_load_bytes in
  let h = mix_int h c.C.global_store_bytes in
  let h = mix_int h c.C.global_transactions in
  let h = mix_int h c.C.shared_load_bytes in
  let h = mix_int h c.C.shared_store_bytes in
  let h = mix_int h c.C.shared_bank_conflicts in
  let h = mix_int h c.C.flops in
  let h = mix_int h c.C.tensor_core_flops in
  let h = mix_int h c.C.instructions in
  let h = mix_int h c.C.global_requests in
  let h = mix_int h c.C.global_vec_requests in
  let h = mix_int h c.C.global_vec_bytes in
  let h = mix_int h c.C.shared_requests in
  let h = mix_int h c.C.shared_vec_requests in
  let h = mix_int h c.C.shared_vec_bytes in
  List.fold_left
    (fun h (name, n) -> mix_int (mix_string h name) n)
    h (C.instr_mix_alist c)

(* ----- the scheduler: simulated time, no execution ----- *)

type bucket_acc =
  { mutable b_requests : int
  ; mutable b_cells : int
  ; mutable b_batches : int
  ; mutable b_lowers : int
  ; mutable b_hits : int
  }

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* Out-of-range settings would stall the tick loop (a zero tick or
   batch cap never drains the queue) or poison the metrics. *)
let check_config c =
  let bad field want got =
    invalid_arg
      (Printf.sprintf "Serve.Engine: %s must be %s (got %s)" field want got)
  in
  if not (Float.is_finite c.tick_s && c.tick_s > 0.0) then
    bad "tick_s" "finite and positive" (Printf.sprintf "%g" c.tick_s);
  let at_least_1 field v = if v < 1 then bad field ">= 1" (string_of_int v) in
  at_least_1 "max_tick_cells" c.max_tick_cells;
  at_least_1 "max_batch_requests" c.max_batch_requests;
  at_least_1 "shards" c.shards

let schedule ?config requests =
  let cfg = match config with Some c -> c | None -> default_config () in
  check_config cfg;
  let pending =
    ref
      (List.stable_sort
         (fun (a : Request.t) (b : Request.t) ->
           compare (a.Request.arrival_s, a.Request.id)
             (b.Request.arrival_s, b.Request.id))
         requests)
  in
  let queue = ref [] in
  let device_free = ref 0.0 in
  let ticks = ref 0 in
  let batch_id = ref 0 in
  let scheduled_rev = ref [] in
  let lowered : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let bucket_order = ref [] in
  let buckets : (string, bucket_acc) Hashtbl.t = Hashtbl.create 16 in
  let bucket_acc key =
    match Hashtbl.find_opt buckets key with
    | Some acc -> acc
    | None ->
      let acc =
        { b_requests = 0; b_cells = 0; b_batches = 0; b_lowers = 0
        ; b_hits = 0 }
      in
      Hashtbl.add buckets key acc;
      bucket_order := key :: !bucket_order;
      acc
  in
  (* The batched perf-model estimate is a pure function of
     (bucket, scalars); memoize it so N same-shape requests cost one
     static analysis, like they cost one lowering. *)
  let est_cache = Hashtbl.create 16 in
  let estimate r =
    let key = (Request.bucket r, Request.scalars r) in
    match Hashtbl.find_opt est_cache key with
    | Some e -> e
    | None ->
      let e = Request.service_estimate r in
      Hashtbl.add est_cache key e;
      e
  in
  let wall_lower = ref 0.0 in
  let schedule_batch ~admit_s (batch : Admission.batch) =
    let id = !batch_id in
    incr batch_id;
    let r0 = List.hd batch.Admission.requests in
    let arch = r0.Request.spec.Request.arch in
    let plan_hit = Hashtbl.mem lowered batch.Admission.bucket in
    Hashtbl.replace lowered batch.Admission.bucket ();
    let (plan, _cache_hit), lower_s =
      time (fun () -> Lower.Pipeline.lower_cached arch (Request.kernel r0))
    in
    wall_lower := !wall_lower +. lower_s;
    (* Simulated service: one launch overhead for the whole batch, plus
       every member's execution time — the batching win the metrics
       measure. *)
    let ests = List.map estimate batch.Admission.requests in
    let launch_s =
      List.fold_left
        (fun m (e : Gpu_sim.Perf_model.estimate) ->
          Float.max m e.Gpu_sim.Perf_model.launch_s)
        0.0 ests
    in
    let exec_sum =
      List.fold_left
        (fun s (e : Gpu_sim.Perf_model.estimate) ->
          s +. e.Gpu_sim.Perf_model.exec_s)
        0.0 ests
    in
    let start_s = Float.max admit_s !device_free in
    let finish_s = start_s +. launch_s +. exec_sum in
    device_free := finish_s;
    let nreq = List.length batch.Admission.requests in
    let acc = bucket_acc batch.Admission.bucket in
    acc.b_requests <- acc.b_requests + nreq;
    acc.b_cells <- acc.b_cells + batch.Admission.cells;
    acc.b_batches <- acc.b_batches + 1;
    if plan_hit then acc.b_hits <- acc.b_hits + 1
    else acc.b_lowers <- acc.b_lowers + 1;
    List.iter2
      (fun request (e : Gpu_sim.Perf_model.estimate) ->
        scheduled_rev :=
          { request
          ; plan
          ; admit_s
          ; start_s
          ; finish_s
          ; service_s = e.Gpu_sim.Perf_model.exec_s
          ; plan_hit
          ; batch_id = id
          ; batch_bucket = batch.Admission.bucket
          ; batch_requests = nreq
          }
          :: !scheduled_rev)
      batch.Admission.requests ests
  in
  let rec tick k =
    let t = float_of_int k *. cfg.tick_s in
    let arrived, later =
      List.partition (fun (r : Request.t) -> r.Request.arrival_s <= t) !pending
    in
    pending := later;
    queue := !queue @ arrived;
    match (!queue, !pending) with
    | [], [] -> ()
    | [], next :: _ ->
      (* Idle: skip ahead to the tick that sees the next arrival. *)
      let k' =
        int_of_float (ceil (next.Request.arrival_s /. cfg.tick_s))
      in
      tick (max (k + 1) k')
    | _ :: _, _ ->
      let batches, rest =
        Admission.admit ~max_tick_cells:cfg.max_tick_cells
          ~max_batch_requests:cfg.max_batch_requests !queue
      in
      queue := rest;
      incr ticks;
      List.iter (schedule_batch ~admit_s:t) batches;
      tick (k + 1)
  in
  tick 0;
  let buckets =
    List.rev_map
      (fun key ->
        let a = Hashtbl.find buckets key in
        { Metrics.key
        ; requests = a.b_requests
        ; cells = a.b_cells
        ; batches = a.b_batches
        ; mean_batch_requests =
            float_of_int a.b_requests /. float_of_int (max 1 a.b_batches)
        ; occupancy =
            float_of_int a.b_cells
            /. float_of_int (max 1 a.b_batches)
            /. float_of_int cfg.max_tick_cells
        ; lowers = a.b_lowers
        ; hits = a.b_hits
        })
      !bucket_order
  in
  { scheduled = List.rev !scheduled_rev
  ; ticks = !ticks
  ; batches = !batch_id
  ; buckets
  ; wall_lower_s = !wall_lower
  }

(* ----- the executor: the whole schedule, across the pool ----- *)

let run ?config ?seed ?rate_rps requests =
  let cfg = match config with Some c -> c | None -> default_config () in
  let wall0 = Unix.gettimeofday () in
  let sched = schedule ~config:cfg requests in
  let entries = Array.of_list sched.scheduled in
  let digest = ref 0x9E3779B97F4A7C15L in
  let completed_rev = ref [] in
  (* Requests claim domains one at a time regardless of batch; the fold
     sees them in schedule order, so the digest and the completion list
     match a sequential run at every shard count. Each request's grid
     runs inline on its domain (bit-identical to a solo
     [Interp.run ~domains:1]). *)
  Pool.run_ordered (Pool.global ()) ~width:cfg.shards
    ~n:(Array.length entries)
    (fun i ->
      let s = entries.(i) in
      let args = Request.args s.request in
      let counters, exec_wall_s =
        time (fun () ->
            Gpu_sim.Interp.run_plan ~domains:1 s.plan ~args
              ~scalars:(Request.scalars s.request) ())
      in
      (args, counters, exec_wall_s))
    ~fold:(fun i (args, counters, exec_wall_s) ->
      let s = entries.(i) in
      digest := mix_int !digest s.request.Request.id;
      List.iter
        (fun (name, a) -> digest := mix_floats (mix_string !digest name) a)
        args;
      digest := mix_counters !digest counters;
      completed_rev :=
        { request = s.request
        ; admit_s = s.admit_s
        ; start_s = s.start_s
        ; finish_s = s.finish_s
        ; service_s = s.service_s
        ; plan_hit = s.plan_hit
        ; batch_id = s.batch_id
        ; batch_bucket = s.batch_bucket
        ; batch_requests = s.batch_requests
        ; counters
        ; buffers = (if cfg.keep_buffers then args else [])
        ; exec_wall_s
        }
        :: !completed_rev);
  let completed = List.rev !completed_rev in
  let wall_s = Unix.gettimeofday () -. wall0 in
  (* ----- summary ----- *)
  let n = List.length completed in
  let first_arrival =
    List.fold_left
      (fun m c -> Float.min m c.request.Request.arrival_s)
      infinity completed
  in
  let last_finish =
    List.fold_left (fun m c -> Float.max m c.finish_s) 0.0 completed
  in
  let makespan =
    if n = 0 then 0.0 else Float.max (last_finish -. first_arrival) 1e-12
  in
  let cells =
    List.fold_left (fun s c -> s + Request.cells c.request) 0 completed
  in
  let busy_s =
    (* Batch service intervals never overlap (single simulated device),
       so summing each batch's span once gives the busy time. *)
    let seen = Hashtbl.create 16 in
    List.fold_left
      (fun s c ->
        if Hashtbl.mem seen c.batch_id then s
        else begin
          Hashtbl.add seen c.batch_id ();
          s +. (c.finish_s -. c.start_s)
        end)
      0.0 completed
  in
  let per f = List.map f completed in
  let plan_lowers =
    List.fold_left (fun s (b : Metrics.bucket_stats) -> s + b.Metrics.lowers)
      0 sched.buckets
  in
  let plan_hits =
    List.fold_left (fun s (b : Metrics.bucket_stats) -> s + b.Metrics.hits)
      0 sched.buckets
  in
  let wall_exec_s =
    List.fold_left (fun s c -> s +. c.exec_wall_s) 0.0 completed
  in
  let summary =
    { Metrics.seed
    ; rate_rps
    ; requests = n
    ; tick_s = cfg.tick_s
    ; max_tick_cells = cfg.max_tick_cells
    ; max_batch_requests = cfg.max_batch_requests
    ; shards = cfg.shards
    ; exec_engine = "bytecode"
    ; ticks = sched.ticks
    ; batches = sched.batches
    ; cells
    ; makespan_s = makespan
    ; busy_s
    (* The clamp makes an empty trace (zero makespan) read 0, not NaN. *)
    ; sim_requests_per_sec = float_of_int n /. Float.max makespan 1e-12
    ; sim_cells_per_sec = float_of_int cells /. Float.max makespan 1e-12
    ; latency =
        Metrics.dist_of (per (fun c -> c.finish_s -. c.request.Request.arrival_s))
    ; queue =
        Metrics.dist_of (per (fun c -> c.start_s -. c.request.Request.arrival_s))
    ; service = Metrics.dist_of (per (fun c -> c.service_s))
    ; plan_lowers
    ; plan_hits
    ; buckets = sched.buckets
    ; output_digest = Printf.sprintf "0x%016Lx" !digest
    ; wall_s
    ; wall_requests_per_sec = float_of_int n /. Float.max wall_s 1e-12
    ; wall_lower_s = sched.wall_lower_s
    ; wall_exec_s
    ; wall_exec_latency = Metrics.dist_of (per (fun c -> c.exec_wall_s))
    }
  in
  { completed; summary }
