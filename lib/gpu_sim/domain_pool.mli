(** A small self-contained pool of OCaml 5 domains (no domainslib) used to
    execute independent thread blocks, autotuning candidates and serving
    shards in parallel. See docs/PARALLELISM.md.

    Every caller splits its work the same way: {!block_ranges} cuts it
    into one contiguous ascending range per domain, {!run_list} runs one
    task per range, and the caller merges the results in range order.
    Workers share one task queue; the domain submitting a batch always
    participates in executing it, so nested or concurrent batches make
    progress without deadlock. *)

type t

(** The parallelism the simulator uses when the caller does not pass
    [?domains]: [Domain.recommended_domain_count ()]. The pool reads no
    environment variables. *)
val default_domains : unit -> int

(** The process-wide pool (created lazily with no workers). All
    simulator entry points share it. {!run_list} spawns workers on
    demand, never more than [default_domains () - 1] (the submitting
    domain is the +1), so a batch wider than the host runs its excess
    tasks from the queue rather than on idle extra domains. *)
val global : unit -> t

(** [run_list pool thunks] executes every thunk (on the pool's workers
    and the calling domain), waits for all of them, and returns their
    results in submission order. If any thunk raised, re-raises the
    lowest-indexed failure — the task's own exception, with its
    backtrace, as a one-thunk batch does — after every task has
    finished, so no task is abandoned mid-flight. *)
val run_list : t -> (unit -> 'a) list -> 'a list

(** [block_ranges ~total ~chunks] — contiguous ascending [(lo, hi))
    ranges covering [0, total), balanced to within one block. A pure
    function of its arguments: the same chunk count always yields the
    same split (the deterministic-merge contract relies on this). At most
    [total] (and at least one) ranges are returned. *)
val block_ranges : total:int -> chunks:int -> (int * int) list
