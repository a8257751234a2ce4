(** Execution-trace event sink for the simulated GPU.

    The simulator has no wall clock, so the trace runs on a {e virtual}
    clock: every completed event advances time by its duration (a cycle
    estimate from the atomic-spec cost model). Events carry a process id
    (the thread block) and a thread id (the warp), so the exported trace
    renders as one lane per warp under one group per block.

    The export format is the Chrome/Perfetto [trace_events] JSON
    (load via [chrome://tracing] or https://ui.perfetto.dev). *)

type t

val create : unit -> t

(** Current virtual time, in simulated cycles. *)
val now : t -> int

val num_events : t -> int

(** [complete t ~name ~cat ~pid ~tid ~dur ()] — a duration event
    ([ph:"X"]) starting at the current virtual time; advances the clock by
    [dur]. [pid] is the issuing thread block — always explicit, so events
    recorded by per-domain sinks can never be misattributed by ambient
    state. *)
val complete :
  t ->
  name:string ->
  cat:string ->
  pid:int ->
  tid:int ->
  dur:int ->
  ?args:(string * Json.t) list ->
  unit ->
  unit

(** [instant t ~name ~cat ~pid ~tid ()] — a zero-duration event
    ([ph:"i"]); does not advance the clock. *)
val instant :
  t ->
  name:string ->
  cat:string ->
  pid:int ->
  tid:int ->
  ?args:(string * Json.t) list ->
  unit ->
  unit

(** [merge_into dst src] appends [src]'s events to [dst], shifting their
    virtual timestamps by [dst]'s current clock, and advances [dst]'s
    clock past them. When [src] recorded the block range that sequentially
    follows [dst]'s, the result is byte-for-byte the single-domain trace
    (see docs/PARALLELISM.md). [src] is not modified. *)
val merge_into : t -> t -> unit

(** The full trace as Chrome [trace_events] JSON:
    [{"displayTimeUnit":"ns","traceEvents":[...]}], including process/thread
    name metadata records, written by {!Json.to_string}. Deterministic:
    events in emission order. *)
val to_chrome_string : t -> string
