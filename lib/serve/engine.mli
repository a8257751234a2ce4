(** The continuous-batching serving engine (docs/SERVING.md).

    The engine advances a virtual clock in fixed scheduling ticks. Each
    tick it admits queued requests ({!Admission}: FIFO, shape-bucketed,
    cell-capped), lowers each bucket's kernel at most once per process
    ({!Lower.Pipeline.lower_cached} — the compile cache), executes every
    admitted request's grid across the {!Gpu_sim.Domain_pool}, and
    completes the batch at a simulated time driven by the analytic
    {!Gpu_sim.Perf_model} (one launch overhead per batch — the batching
    win — plus each request's execution time).

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
    [test/test_serve.ml] pins buffers and counters request by request. *)

type config =
  { tick_s : float  (** scheduling-tick length, simulated seconds *)
  ; max_tick_cells : int  (** admission cell budget per tick *)
  ; max_batch_requests : int  (** requests per batch *)
  ; shards : int
        (** parallel width when fanning a tick's requests over the
            domain pool *)
  ; keep_buffers : bool
        (** retain every request's argument buffers on its
            {!completed} record (tests; costs memory) *)
  }

(** [tick_s = 1e-4], [max_tick_cells = 600_000],
    [max_batch_requests = 16], [shards = Domain_pool.default_domains ()],
    [keep_buffers = false]. *)
val default_config : unit -> config

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

(** [run ?config ?seed ?rate_rps requests] — serve the request list to
    completion. [seed]/[rate_rps] are echoed into the summary (pass the
    {!Traffic.params} values when the list came from {!Traffic.generate}).

    Raises [Invalid_argument] naming the field when [config] is out of
    range: [tick_s] not finite and positive, or [max_tick_cells],
    [max_batch_requests] or [shards] below 1. Otherwise raises whatever
    the underlying lowering/execution raises on a malformed request
    (nothing in {!Traffic}'s distributions does). An empty request list
    reports zero throughput. *)
val run :
  ?config:config ->
  ?seed:int ->
  ?rate_rps:float ->
  Request.t list ->
  result
