(* A small self-contained pool of OCaml 5 domains (no domainslib).

   Workers block on a condition variable over one shared task queue; a
   batch submitter enqueues all but its first task, executes tasks itself
   (its own first task, then anything still queued), and finally waits for
   the stragglers running on workers. Because the submitting domain always
   participates, nested or concurrent [run_list] calls cannot deadlock:
   a caller only blocks when every one of its tasks has been claimed, and
   claimed tasks always run to completion. *)

type t =
  { mutex : Mutex.t
  ; work : (unit -> unit) Queue.t
  ; has_work : Condition.t
  ; mutable workers : unit Domain.t list
  ; mutable nworkers : int
  }

let default_domains () = Domain.recommended_domain_count ()

let create () =
  { mutex = Mutex.create ()
  ; work = Queue.create ()
  ; has_work = Condition.create ()
  ; workers = []
  ; nworkers = 0
  }

let worker_loop t =
  let rec loop () =
    Mutex.lock t.mutex;
    while Queue.is_empty t.work do
      Condition.wait t.has_work t.mutex
    done;
    let task = Queue.pop t.work in
    Mutex.unlock t.mutex;
    (* Tasks are wrappers that store their own outcome; they never raise. *)
    task ();
    loop ()
  in
  loop ()

(* Grow the worker set so a batch of [n] tasks can run [n]-wide (the
   caller is the +1), but never past one domain per core: tasks beyond
   that wait in the queue, and an idle worker would still join every
   stop-the-world minor collection for the rest of the process. Must be
   called with [t.mutex] held. *)
let ensure_workers_locked t n =
  let want = min (n - 1) (default_domains () - 1) in
  while t.nworkers < want do
    t.workers <- Domain.spawn (fun () -> worker_loop t) :: t.workers;
    t.nworkers <- t.nworkers + 1
  done

let the_pool = ref None
let pool_mutex = Mutex.create ()

let global () =
  Mutex.lock pool_mutex;
  let p =
    match !the_pool with
    | Some p -> p
    | None ->
      let p = create () in
      the_pool := Some p;
      p
  in
  Mutex.unlock pool_mutex;
  p

let run_list t thunks =
  match thunks with
  | [] -> []
  | [ f ] -> [ f () ]
  | _ ->
    let tasks = Array.of_list thunks in
    let n = Array.length tasks in
    let results = Array.make n None in
    let remaining = Atomic.make n in
    let batch_done = Condition.create () in
    let run i =
      let r =
        try Ok (tasks.(i) ())
        with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      results.(i) <- Some r;
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        (* Last task: wake the submitter (which waits on [t.mutex]). *)
        Mutex.lock t.mutex;
        Condition.broadcast batch_done;
        Mutex.unlock t.mutex
      end
    in
    Mutex.lock t.mutex;
    ensure_workers_locked t n;
    for i = 1 to n - 1 do
      Queue.push (fun () -> run i) t.work
    done;
    Condition.broadcast t.has_work;
    Mutex.unlock t.mutex;
    run 0;
    (* Help drain the queue (our tasks, or another batch's — either way
       progress is made and we cannot deadlock). *)
    let rec help () =
      Mutex.lock t.mutex;
      let task = if Queue.is_empty t.work then None else Some (Queue.pop t.work) in
      Mutex.unlock t.mutex;
      match task with
      | Some task ->
        task ();
        help ()
      | None -> ()
    in
    help ();
    Mutex.lock t.mutex;
    while Atomic.get remaining > 0 do
      Condition.wait batch_done t.mutex
    done;
    Mutex.unlock t.mutex;
    (* [Array.map] visits in index order, so the lowest-index failure is
       the one re-raised — as itself, exactly as a 1-task batch raises. *)
    Array.to_list
      (Array.map
         (function
           | Some (Ok v) -> v
           | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
           | None -> assert false)
         results)

(* [width] claim loops share one index counter. A finished result is
   stored in its slot under [frontier], and whichever domain stores the
   result the fold is waiting for folds it and every later one already
   stored, so [fold] runs in index order under the lock and a result
   waits only for the indices before it. An error (from [work] or
   [fold]) stays in its slot and no new index is claimed; every index
   already claimed runs to completion, and those are all the indices
   below the failing one, so the fold stops at the lowest failing
   index and after the join that slot holds its error. *)
let run_ordered t ~width ~n work ~fold =
  let slots = Array.make n None in
  let next = Atomic.make 0 in
  let frontier = Mutex.create () in
  let folded = ref 0 in
  let rec drain () =
    if !folded < n then
      match slots.(!folded) with
      | Some (Ok v) -> (
        match fold !folded v with
        | () ->
          slots.(!folded) <- None;
          incr folded;
          drain ()
        | exception e ->
          slots.(!folded) <- Some (Error (e, Printexc.get_raw_backtrace ()));
          Atomic.set next n)
      | Some (Error _) | None -> ()
  in
  let rec claim () =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let r =
        try Ok (work i) with e -> Error (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock frontier;
      slots.(i) <- Some r;
      if Result.is_error r then Atomic.set next n;
      drain ();
      Mutex.unlock frontier;
      claim ()
    end
  in
  ignore (run_list t (List.init (max 1 (min width n)) (fun _ -> claim)));
  if !folded < n then
    match slots.(!folded) with
    | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
    | Some (Ok _) | None -> assert false

(* Contiguous, ascending, balanced block ranges: chunk i of c covers
   [i*total/c, (i+1)*total/c). Pure function of (total, chunks), so any
   run at the same chunk count splits identically — the foundation of the
   deterministic parallel merge (docs/PARALLELISM.md). *)
let block_ranges ~total ~chunks =
  let chunks = max 1 (min chunks total) in
  List.init chunks (fun i -> (i * total / chunks, (i + 1) * total / chunks))
