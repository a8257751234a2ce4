(** Serving metrics: latency distributions, throughput, plan-cache and
    per-bucket accounting, exported as `BENCH_serve.json`
    (schema [graphene.serve_bench.v2] — field-by-field table in
    docs/SERVING.md).

    Every field except the [wall_*] group is a deterministic function of
    the traffic and the engine configuration: {!to_json} with
    [~wall:false] renders only those, and the serve smoke test requires
    two same-seed runs to produce identical strings. The [wall_*] fields
    are measured wall-clock times of this particular run (host-dependent
    by nature) and are reported for honesty, never compared. *)

(** Latency distribution (nearest-rank percentiles; zeros when empty). *)
type dist =
  { p50 : float
  ; p95 : float
  ; p99 : float
  ; mean : float
  ; max : float
  }

val dist_of : float list -> dist

type bucket_stats =
  { key : string
  ; requests : int
  ; cells : int
  ; batches : int
  ; mean_batch_requests : float
  ; occupancy : float
        (** mean batch cells / the tick cell budget: how full this
            bucket's average batch runs *)
  ; lowers : int  (** batches that lowered a fresh plan (engine-local) *)
  ; hits : int  (** batches served from an already-lowered plan *)
  }

type summary =
  { seed : int option  (** traffic seed, when generated *)
  ; rate_rps : float option
  ; requests : int
  ; tick_s : float
  ; max_tick_cells : int
  ; max_batch_requests : int
  ; shards : int
  ; exec_engine : string
        (** always ["bytecode"], the historical name of
            {!Gpu_sim.Interp.run_plan}'s executor, which shards execute
            plans with *)
  ; ticks : int
  ; batches : int
  ; cells : int
  ; makespan_s : float  (** simulated: last completion − first arrival *)
  ; busy_s : float  (** simulated device-busy time *)
  ; sim_requests_per_sec : float
  ; sim_cells_per_sec : float
  ; latency : dist  (** simulated arrival → completion *)
  ; queue : dist  (** simulated arrival → service start *)
  ; service : dist  (** simulated service time *)
  ; plan_lowers : int
  ; plan_hits : int
  ; buckets : bucket_stats list
  ; output_digest : string
        (** 64-bit digest over every request's output buffers and
            counters — the determinism/bit-identity fingerprint *)
  ; wall_s : float  (** wall-clock duration of the whole engine run *)
  ; wall_requests_per_sec : float
  ; wall_lower_s : float  (** wall-clock spent lowering plans *)
  ; wall_exec_s : float  (** summed wall-clock of plan executions *)
  ; wall_exec_latency : dist
  }

(** Plan-cache hit rate: [hits / (hits + lowers)] over batches (0 when
    no batch ran). *)
val hit_rate : summary -> float

(** [to_json ?wall summary] — the `graphene.serve_bench.v2` document,
    written by {!Gpu_sim.Json.to_string}. [wall] (default [true])
    controls whether the wall-clock field group is included;
    [~wall:false] output is deterministic per seed. *)
val to_json : ?wall:bool -> summary -> string

val pp_summary : Format.formatter -> summary -> unit
