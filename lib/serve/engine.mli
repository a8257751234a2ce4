(** The continuous-batching serving engine (docs/SERVING.md).

    {!run} is {!schedule} followed by execution. The scheduler advances
    a virtual clock in fixed scheduling ticks. Each tick it admits
    queued requests ({!Admission}: FIFO, shape-bucketed, cell-capped),
    lowers each bucket's kernel at most once per process
    ({!Lower.Pipeline.lower_cached} — the compile cache), and completes
    each batch at a simulated time driven by the analytic
    {!Gpu_sim.Perf_model} (one launch overhead per batch — the batching
    win — plus each request's execution time). It executes nothing, so
    the whole schedule is known before the first request runs. The
    executor then runs every scheduled request's plan across the
    {!Gpu_sim.Domain_pool} ({!Gpu_sim.Domain_pool.run_ordered}: each
    domain claims the next request, whatever its batch) and folds the
    results in schedule order.

    Two clocks coexist, deliberately:
    - the {e simulated} clock (arrivals, queueing, service, completion)
      is deterministic: same requests, same config ⇒ identical latency
      distributions, throughput, cache accounting, and output digest;
    - {e wall-clock} measurements (lowering and plan-execution times of
      this particular host run) are reported in the [wall_*] metric
      fields only and never affect scheduling.

    Execution is bit-identical to running each request alone through
    [Interp.run ~domains:1]: batching changes {e when} and {e with whom}
    a request runs, never {e what} it computes —
    [test/test_serve.ml] pins buffers and counters request by request,
    and the output digest at several shard counts. *)

type config =
  { tick_s : float  (** scheduling-tick length, simulated seconds *)
  ; max_tick_cells : int  (** admission cell budget per tick *)
  ; max_batch_requests : int  (** requests per batch *)
  ; shards : int
        (** at most this many requests execute at once, each on its own
            domain of the pool *)
  ; keep_buffers : bool
        (** retain every request's argument buffers on its
            {!completed} record (tests; costs memory) *)
  }

(** [tick_s = 1e-4], [max_tick_cells = 600_000],
    [max_batch_requests = 16], [shards = Domain_pool.default_domains ()],
    [keep_buffers = false]. *)
val default_config : unit -> config

(** One request as the scheduler placed it. *)
type scheduled =
  { request : Request.t
  ; plan : Lower.Plan.t  (** its bucket's plan, shared by the batch *)
  ; admit_s : float  (** simulated tick time the request was admitted *)
  ; start_s : float  (** simulated service start of its batch *)
  ; finish_s : float  (** simulated completion (whole batch) *)
  ; service_s : float  (** this request's own simulated execution time *)
  ; plan_hit : bool
        (** batch served from an already-lowered plan (false only for a
            bucket's first batch of the engine run) *)
  ; batch_id : int
  ; batch_bucket : string
  ; batch_requests : int  (** size of the batch it rides in *)
  }

type schedule =
  { scheduled : scheduled list  (** admission order *)
  ; ticks : int  (** scheduling ticks that admitted work *)
  ; batches : int
  ; buckets : Metrics.bucket_stats list  (** first-seen bucket order *)
  ; wall_lower_s : float  (** wall-clock spent in [lower_cached] *)
  }

(** What execution adds to a {!scheduled} request: its counters, its
    buffers and its wall-clock. *)
type completed =
  { request : Request.t
  ; admit_s : float  (** simulated tick time the request was admitted *)
  ; start_s : float  (** simulated service start of its batch *)
  ; finish_s : float  (** simulated completion (whole batch) *)
  ; service_s : float  (** this request's own simulated execution time *)
  ; plan_hit : bool
        (** batch served from an already-lowered plan (false only for a
            bucket's first batch of the engine run) *)
  ; batch_id : int
  ; batch_bucket : string
  ; batch_requests : int  (** size of the batch it rode in *)
  ; counters : Gpu_sim.Counters.t
  ; buffers : (string * float array) list  (** [] unless [keep_buffers] *)
  ; exec_wall_s : float  (** wall-clock of this request's plan execution *)
  }

type result =
  { completed : completed list  (** completion order (= admission order) *)
  ; summary : Metrics.summary
  }

(** [schedule ?config requests] — admission, lowering and the simulated
    clock of {!run}, without executing anything. Its entries carry the
    same times, batches and plan accounting as {!run}'s {!completed}
    records, in the same order. Raises as {!run} does on an out-of-range
    [config] or when a request's kernel cannot be built or lowered.
    [config.shards] and [config.keep_buffers] do not affect it. *)
val schedule : ?config:config -> Request.t list -> schedule

(** [run ?config ?seed ?rate_rps requests] — {!schedule} the request
    list, then execute the whole schedule on at most [config.shards]
    domains, folding every request's counters and buffers into the
    output digest in schedule order. [seed]/[rate_rps] are echoed into the summary (pass the
    {!Traffic.params} values when the list came from {!Traffic.generate}).

    Raises [Invalid_argument] naming the field when [config] is out of
    range: [tick_s] not finite and positive, or [max_tick_cells],
    [max_batch_requests] or [shards] below 1. Otherwise raises whatever
    the underlying lowering/execution raises on a malformed request
    (nothing in {!Traffic}'s distributions does): a scheduling failure
    before anything executes, and of the requests that fail to execute,
    the earliest-scheduled one's exception, with its backtrace, at every
    shard count. An empty request list reports zero throughput. *)
val run :
  ?config:config ->
  ?seed:int ->
  ?rate_rps:float ->
  Request.t list ->
  result
