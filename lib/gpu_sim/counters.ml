module Arch = Graphene.Arch
module Atomic = Graphene.Atomic

type t =
  { mutable global_load_bytes : int
  ; mutable global_store_bytes : int
  ; mutable global_transactions : int
  ; mutable shared_load_bytes : int
  ; mutable shared_store_bytes : int
  ; mutable shared_bank_conflicts : int
  ; mutable flops : int
  ; mutable tensor_core_flops : int
  ; mutable instructions : int
  ; mutable global_requests : int
  ; mutable global_vec_requests : int
  ; mutable global_vec_bytes : int
  ; mutable global_vec_elems : int
  ; mutable shared_requests : int
  ; mutable shared_vec_requests : int
  ; mutable shared_vec_bytes : int
  ; mutable shared_vec_elems : int
  ; mutable async_copies : int
  ; mutable async_commits : int
  ; mutable async_waits : int
  ; mutable async_inflight_sum : int
  ; mutable async_max_inflight : int
  ; instr_mix : (string, int) Hashtbl.t
  }

let create () =
  { global_load_bytes = 0
  ; global_store_bytes = 0
  ; global_transactions = 0
  ; shared_load_bytes = 0
  ; shared_store_bytes = 0
  ; shared_bank_conflicts = 0
  ; flops = 0
  ; tensor_core_flops = 0
  ; instructions = 0
  ; global_requests = 0
  ; global_vec_requests = 0
  ; global_vec_bytes = 0
  ; global_vec_elems = 0
  ; shared_requests = 0
  ; shared_vec_requests = 0
  ; shared_vec_bytes = 0
  ; shared_vec_elems = 0
  ; async_copies = 0
  ; async_commits = 0
  ; async_waits = 0
  ; async_inflight_sum = 0
  ; async_max_inflight = 0
  ; instr_mix = Hashtbl.create 64
  }

let reset t =
  t.global_load_bytes <- 0;
  t.global_store_bytes <- 0;
  t.global_transactions <- 0;
  t.shared_load_bytes <- 0;
  t.shared_store_bytes <- 0;
  t.shared_bank_conflicts <- 0;
  t.flops <- 0;
  t.tensor_core_flops <- 0;
  t.instructions <- 0;
  t.global_requests <- 0;
  t.global_vec_requests <- 0;
  t.global_vec_bytes <- 0;
  t.global_vec_elems <- 0;
  t.shared_requests <- 0;
  t.shared_vec_requests <- 0;
  t.shared_vec_bytes <- 0;
  t.shared_vec_elems <- 0;
  t.async_copies <- 0;
  t.async_commits <- 0;
  t.async_waits <- 0;
  t.async_inflight_sum <- 0;
  t.async_max_inflight <- 0;
  Hashtbl.reset t.instr_mix

let add_instr t name =
  t.instructions <- t.instructions + 1;
  Hashtbl.replace t.instr_mix name
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.instr_mix name))

let add_instr_n t name n =
  if n > 0 then begin
    t.instructions <- t.instructions + n;
    Hashtbl.replace t.instr_mix name
      (n + Option.value ~default:0 (Hashtbl.find_opt t.instr_mix name))
  end

(* Issue of [instances] instances of one atomic instruction of cost [c]:
   the instruction class decides which flop counter and whether the
   issues are cp.async copies. *)
let book_issue t (instr : Atomic.instr) (c : Atomic.cost) ~instances =
  let flops = c.Atomic.flops * instances in
  (match instr.Atomic.klass with
  | Atomic.Mma _ -> t.tensor_core_flops <- t.tensor_core_flops + flops
  | Atomic.Cp_async ->
    t.async_copies <- t.async_copies + instances;
    t.flops <- t.flops + flops
  | _ -> t.flops <- t.flops + flops);
  t.instructions <-
    t.instructions + (c.Atomic.instructions * instances) - instances;
  add_instr_n t instr.Atomic.name instances

(* Warp batches arrive as the first [len] entries of an address buffer —
   the plan executor reuses one scratch buffer for every batch. *)
let record_global_batch t ~store ~bytes addresses ~len =
  let total = bytes * len in
  if store then t.global_store_bytes <- t.global_store_bytes + total
  else t.global_load_bytes <- t.global_load_bytes + total;
  t.global_transactions <-
    t.global_transactions + Arch.global_sectors ~bytes addresses ~len

let record_shared_batch t ~store ~bytes addresses ~len =
  let total = bytes * len in
  if store then t.shared_store_bytes <- t.shared_store_bytes + total
  else t.shared_load_bytes <- t.shared_load_bytes + total;
  t.shared_bank_conflicts <-
    t.shared_bank_conflicts + Arch.shared_conflicts ~bytes addresses ~len

(* Memory-pipe requests issued for one warp-per-view access: [elems]
   per-thread scalar elements move as ceil(elems/width) instructions of
   [width] elements each. Width 1 is the scalar baseline; widened
   accesses additionally book the vectorized request count and the bytes
   they carried, so reports can state which fraction of the traffic rode
   wide transactions. Purely additive next to the byte/sector/conflict
   accounting above — widening never changes those. *)
let record_requests t ~global ~elems ~width ~bytes =
  if elems > 0 then begin
    let reqs = (elems + width - 1) / width in
    if global then begin
      t.global_requests <- t.global_requests + reqs;
      if width > 1 then begin
        t.global_vec_requests <- t.global_vec_requests + reqs;
        t.global_vec_bytes <- t.global_vec_bytes + bytes;
        t.global_vec_elems <- t.global_vec_elems + elems
      end
    end
    else begin
      t.shared_requests <- t.shared_requests + reqs;
      if width > 1 then begin
        t.shared_vec_requests <- t.shared_vec_requests + reqs;
        t.shared_vec_bytes <- t.shared_vec_bytes + bytes;
        t.shared_vec_elems <- t.shared_vec_elems + elems
      end
    end
  end

let merge dst src =
  dst.global_load_bytes <- dst.global_load_bytes + src.global_load_bytes;
  dst.global_store_bytes <- dst.global_store_bytes + src.global_store_bytes;
  dst.global_transactions <- dst.global_transactions + src.global_transactions;
  dst.shared_load_bytes <- dst.shared_load_bytes + src.shared_load_bytes;
  dst.shared_store_bytes <- dst.shared_store_bytes + src.shared_store_bytes;
  dst.shared_bank_conflicts <-
    dst.shared_bank_conflicts + src.shared_bank_conflicts;
  dst.flops <- dst.flops + src.flops;
  dst.tensor_core_flops <- dst.tensor_core_flops + src.tensor_core_flops;
  dst.instructions <- dst.instructions + src.instructions;
  dst.global_requests <- dst.global_requests + src.global_requests;
  dst.global_vec_requests <- dst.global_vec_requests + src.global_vec_requests;
  dst.global_vec_bytes <- dst.global_vec_bytes + src.global_vec_bytes;
  dst.global_vec_elems <- dst.global_vec_elems + src.global_vec_elems;
  dst.shared_requests <- dst.shared_requests + src.shared_requests;
  dst.shared_vec_requests <- dst.shared_vec_requests + src.shared_vec_requests;
  dst.shared_vec_bytes <- dst.shared_vec_bytes + src.shared_vec_bytes;
  dst.shared_vec_elems <- dst.shared_vec_elems + src.shared_vec_elems;
  dst.async_copies <- dst.async_copies + src.async_copies;
  dst.async_commits <- dst.async_commits + src.async_commits;
  dst.async_waits <- dst.async_waits + src.async_waits;
  dst.async_inflight_sum <- dst.async_inflight_sum + src.async_inflight_sum;
  dst.async_max_inflight <- max dst.async_max_inflight src.async_max_inflight;
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace dst.instr_mix k
        (v + Option.value ~default:0 (Hashtbl.find_opt dst.instr_mix k)))
    src.instr_mix

(* Mean committed groups in flight at the wait points. Each wait samples
   the queue depth before draining; in a steady N-stage pipeline every
   sample is N, so [async_mean_inflight / stages] = 1.0. *)
let async_mean_inflight t =
  if t.async_waits = 0 then 0.0
  else float_of_int t.async_inflight_sum /. float_of_int t.async_waits

let async_occupancy t ~stages =
  if stages <= 0 then 0.0 else async_mean_inflight t /. float_of_int stages

(* Measured mean global access width, in per-thread elements per request
   (1.0 = all scalar, 4.0 = all v4). Every scalar request carries one
   element; the vectorized requests carry [global_vec_elems] between
   them, booked at request time — byte counters won't do here, they sum
   over every thread of the warp, not per request. This is the executed
   counterpart of the plan's structural {!Lower.Plan.global_vec_width}:
   schedule search feeds it back into the perf model's DRAM-efficiency
   term after proxy simulation, replacing the static estimate with what
   the decomposition actually issued. *)
let global_mean_vec_width t =
  if t.global_requests = 0 then 1.0
  else begin
    let scalar = t.global_requests - t.global_vec_requests in
    float_of_int (scalar + t.global_vec_elems)
    /. float_of_int t.global_requests
  end

let instr_mix_alist t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.instr_mix []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Every scalar field by name, in declaration order, tagged with the
   class [diff] may exclude: [`Request] fields follow the plan-level
   vector width (the tree path never widens), [`Queue] fields follow
   the pipeline depth (a swpipe rewrite moves when copies land, never
   how many are issued, so [async_copies] is [`Core]). *)
let scalar_fields =
  [ ("global_load_bytes", `Core, fun t -> t.global_load_bytes)
  ; ("global_store_bytes", `Core, fun t -> t.global_store_bytes)
  ; ("global_transactions", `Core, fun t -> t.global_transactions)
  ; ("shared_load_bytes", `Core, fun t -> t.shared_load_bytes)
  ; ("shared_store_bytes", `Core, fun t -> t.shared_store_bytes)
  ; ("shared_bank_conflicts", `Core, fun t -> t.shared_bank_conflicts)
  ; ("flops", `Core, fun t -> t.flops)
  ; ("tensor_core_flops", `Core, fun t -> t.tensor_core_flops)
  ; ("instructions", `Core, fun t -> t.instructions)
  ; ("global_requests", `Request, fun t -> t.global_requests)
  ; ("global_vec_requests", `Request, fun t -> t.global_vec_requests)
  ; ("global_vec_bytes", `Request, fun t -> t.global_vec_bytes)
  ; ("global_vec_elems", `Request, fun t -> t.global_vec_elems)
  ; ("shared_requests", `Request, fun t -> t.shared_requests)
  ; ("shared_vec_requests", `Request, fun t -> t.shared_vec_requests)
  ; ("shared_vec_bytes", `Request, fun t -> t.shared_vec_bytes)
  ; ("shared_vec_elems", `Request, fun t -> t.shared_vec_elems)
  ; ("async_copies", `Core, fun t -> t.async_copies)
  ; ("async_commits", `Queue, fun t -> t.async_commits)
  ; ("async_waits", `Queue, fun t -> t.async_waits)
  ; ("async_inflight_sum", `Queue, fun t -> t.async_inflight_sum)
  ; ("async_max_inflight", `Queue, fun t -> t.async_max_inflight)
  ]

let to_alist t = List.map (fun (name, _, get) -> (name, get t)) scalar_fields

type fields =
  | All
  | No_requests
  | No_queue
  | No_requests_or_queue

let compared fields = function
  | `Core -> true
  | `Request -> (
    match fields with
    | All | No_queue -> true
    | No_requests | No_requests_or_queue -> false)
  | `Queue -> (
    match fields with
    | All | No_requests -> true
    | No_queue | No_requests_or_queue -> false)

(* The mix alists are sorted by name; the first entry where they part
   (a different count, or a name only one side has) is the difference. *)
let rec mix_diff a b =
  let entry name x y =
    Some (Printf.sprintf "instr_mix[%s]: %s vs %s" name x y)
  in
  match (a, b) with
  | [], [] -> None
  | (n, x) :: ta, (m, y) :: tb when String.equal n m ->
    if x = y then mix_diff ta tb else entry n (string_of_int x) (string_of_int y)
  | (n, x) :: _, (m, _) :: _ when String.compare n m < 0 ->
    entry n (string_of_int x) "absent"
  | (n, x) :: _, [] -> entry n (string_of_int x) "absent"
  | _, (m, y) :: _ -> entry m "absent" (string_of_int y)

let diff fields a b =
  let rec go = function
    | [] -> mix_diff (instr_mix_alist a) (instr_mix_alist b)
    | (name, cls, get) :: tl ->
      if compared fields cls && get a <> get b then
        Some (Printf.sprintf "%s: %d vs %d" name (get a) (get b))
      else go tl
  in
  go scalar_fields

let pp fmt t =
  Format.fprintf fmt
    "@[<v>global: %d B loaded, %d B stored, %d sectors@,\
     shared: %d B loaded, %d B stored, %d conflict cycles@,\
     flops: %d (%d tensor-core), %d instructions@,\
     requests: %d global (%d vectorized, %d B wide), %d shared (%d \
     vectorized, %d B wide)"
    t.global_load_bytes t.global_store_bytes t.global_transactions
    t.shared_load_bytes t.shared_store_bytes t.shared_bank_conflicts t.flops
    t.tensor_core_flops t.instructions t.global_requests
    t.global_vec_requests t.global_vec_bytes t.shared_requests
    t.shared_vec_requests t.shared_vec_bytes;
  if t.async_copies > 0 then
    Format.fprintf fmt
      "@,async copies: %d issued, %d commits, %d waits, mean in-flight \
       %.2f (max %d)"
      t.async_copies t.async_commits t.async_waits (async_mean_inflight t)
      t.async_max_inflight;
  Format.fprintf fmt "@]"
