(** A small self-contained pool of OCaml 5 domains (no domainslib) used to
    execute independent thread blocks, autotuning candidates and served
    requests in parallel. See docs/PARALLELISM.md.

    Work is split one of two ways. Where the pieces cost about the same
    — the blocks of one grid, the candidates of one search tier —
    {!block_ranges} cuts it into one contiguous ascending range per
    domain, {!run_list} runs one task per range, and the caller merges
    the results in range order. Where they do not — a serving schedule,
    whose requests cost from 3 ms to 61 ms each — {!run_ordered} lets
    each domain claim the next index instead, so no domain idles behind
    a range of expensive ones, and folds the results in index order as
    they become ready. Workers share one task queue; the domain
    submitting a batch always participates in executing it, so nested or
    concurrent batches make progress without deadlock. *)

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

(** [run_ordered pool ~width ~n work ~fold] runs [work i] for every [i]
    in [\[0, n)] on at most [width] domains (the caller's included): each
    claims the next unexecuted index from one shared counter. [fold i r]
    then sees every result exactly once, in ascending [i], never two at
    once, as soon as every earlier index is folded: a finished result
    waits in its slot only for the indices before it, and [fold] runs on
    whichever domain finished the result it was waiting for. There is no
    barrier between indices and no window.

    If [work i] or [fold i] raises, no further index is claimed, the
    fold stops before the lowest failing index, and after every claimed
    index has finished, that index's exception is re-raised with its
    backtrace — the same exception at every [width]. At [width = 1] this
    is the plain loop [work 0; fold 0; work 1; ...] on the caller. *)
val run_ordered :
  t -> width:int -> n:int -> (int -> 'a) -> fold:(int -> 'a -> unit) -> unit

(** [block_ranges ~total ~chunks] — contiguous ascending [(lo, hi))
    ranges covering [0, total), balanced to within one block. A pure
    function of its arguments: the same chunk count always yields the
    same split (the deterministic-merge contract relies on this). At most
    [total] (and at least one) ranges are returned. *)
val block_ranges : total:int -> chunks:int -> (int * int) list
