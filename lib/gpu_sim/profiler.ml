module Spec = Graphene.Spec
module Arch = Graphene.Arch

(* ----- accumulation ----- *)

type acc_row =
  { key : string
  ; a_path : string
  ; a_kind : string
  ; a_instr : string
  ; mutable a_instances : int
  ; c : Counters.t
  }

type t =
  { rows : (string, acc_row) Hashtbl.t
  ; mutable order : acc_row list  (* newest first *)
  ; mutable stack : string list  (* innermost frame first *)
  ; mutable current : acc_row option
  ; mutable barriers : int
  ; trace_sink : Trace.t option
  ; detail : bool
  }

let create ?trace ?(detail = false) () =
  { rows = Hashtbl.create 64
  ; order = []
  ; stack = []
  ; current = None
  ; barriers = 0
  ; trace_sink = trace
  ; detail
  }

let trace p = p.trace_sink
let detail_trace p = if p.detail then p.trace_sink else None

(* New thread block: the scope stack and current-row cursor restart.
   Events themselves carry their block id explicitly (the [~block]
   arguments below), never ambient profiler state. *)
let begin_block p =
  p.stack <- [];
  p.current <- None

(* An empty profiler a domain can record its own block range into: fresh
   trace sink iff [p] has one, same detail flag. Merge back with
   {!merge_into} in ascending block order. *)
let fork p =
  create
    ?trace:(Option.map (fun _ -> Trace.create ()) p.trace_sink)
    ~detail:p.detail ()

(* Deterministic merge of a per-domain profiler recorded for the block
   range that sequentially follows everything already in [dst]: rows are
   folded in [src]'s first-issue order (so a row first issued in a later
   block lands exactly where the sequential run would have created it),
   and the trace sinks merge with the virtual-clock shift. *)
let merge_into dst src =
  List.iter
    (fun (src_row : acc_row) ->
      let row =
        match Hashtbl.find_opt dst.rows src_row.key with
        | Some r -> r
        | None ->
          let r =
            { key = src_row.key
            ; a_path = src_row.a_path
            ; a_kind = src_row.a_kind
            ; a_instr = src_row.a_instr
            ; a_instances = 0
            ; c = Counters.create ()
            }
          in
          Hashtbl.add dst.rows src_row.key r;
          dst.order <- r :: dst.order;
          r
      in
      row.a_instances <- row.a_instances + src_row.a_instances;
      Counters.merge row.c src_row.c)
    (List.rev src.order);
  dst.barriers <- dst.barriers + src.barriers;
  (match (dst.trace_sink, src.trace_sink) with
  | Some d, Some s -> Trace.merge_into d s
  | _ -> ())

let enter_frame p name = p.stack <- name :: p.stack

let exit_frame p =
  match p.stack with [] -> () | _ :: tl -> p.stack <- tl

let begin_atomic p ~label ~kind ~instr =
  let leaf = if String.length label > 0 then label else kind in
  let path = String.concat "/" (List.rev (leaf :: p.stack)) in
  let key = path ^ "#" ^ instr in
  let row =
    match Hashtbl.find_opt p.rows key with
    | Some r -> r
    | None ->
      let r =
        { key
        ; a_path = path
        ; a_kind = kind
        ; a_instr = instr
        ; a_instances = 0
        ; c = Counters.create ()
        }
      in
      Hashtbl.add p.rows key r;
      p.order <- r :: p.order;
      r
  in
  p.current <- Some row

let on_cost p instr cost ~instances =
  match p.current with
  | None -> ()
  | Some r ->
    r.a_instances <- r.a_instances + instances;
    Counters.book_issue r.c instr cost ~instances

(* The batch hooks take the first [len] entries of a (reusable) address
   buffer, as the counters do. *)
let on_global_batch p ~block ~store ~bytes ~warp addresses ~len =
  (match p.current with
  | None -> ()
  | Some r -> Counters.record_global_batch r.c ~store ~bytes addresses ~len);
  Option.iter
    (fun tr ->
      let name =
        match p.current with Some r -> r.a_path | None -> "global access"
      in
      Trace.instant tr ~name ~cat:(if store then "global.store" else "global.load")
        ~pid:block ~tid:warp
        ~args:
          [ ("bytes", Json.Int (bytes * len))
          ; ("sectors", Json.Int (Arch.global_sectors ~bytes addresses ~len))
          ]
        ())
    p.trace_sink

let on_shared_batch p ~block ~store ~bytes ~warp addresses ~len =
  (match p.current with
  | None -> ()
  | Some r -> Counters.record_shared_batch r.c ~store ~bytes addresses ~len);
  Option.iter
    (fun tr ->
      let name =
        match p.current with Some r -> r.a_path | None -> "shared access"
      in
      Trace.instant tr ~name ~cat:(if store then "shared.store" else "shared.load")
        ~pid:block ~tid:warp
        ~args:
          [ ("bytes", Json.Int (bytes * len))
          ; ( "bank_conflicts"
            , Json.Int (Arch.shared_conflicts ~bytes addresses ~len) )
          ]
        ())
    p.trace_sink

let exec_event p ~block ~warp ~lanes ~dur =
  Option.iter
    (fun tr ->
      let name, instr =
        match p.current with
        | Some r -> (r.a_path, r.a_instr)
        | None -> ("exec", "?")
      in
      Trace.complete tr ~name ~cat:"exec" ~pid:block ~tid:warp ~dur
        ~args:[ ("instr", Json.Str instr); ("lanes", Json.Int lanes) ]
        ())
    p.trace_sink

let on_barrier p ~block =
  p.barriers <- p.barriers + 1;
  Option.iter
    (fun tr ->
      Trace.instant tr ~name:"__syncthreads" ~cat:"barrier" ~pid:block ~tid:0 ())
    p.trace_sink

(* ----- reports ----- *)

type row =
  { path : string
  ; kind : string
  ; instr : string
  ; instances : int
  ; instructions : int
  ; flops : int
  ; tc_flops : int
  ; global_load_bytes : int
  ; global_store_bytes : int
  ; global_sectors : int
  ; coalescing : float
  ; shared_load_bytes : int
  ; shared_store_bytes : int
  ; shared_bank_conflicts : int
  }

type report =
  { kernel : string
  ; arch : string
  ; grid_blocks : int
  ; cta_threads : int
  ; rows : row list
  ; totals : row
  ; barriers : int
  ; instr_mix : (string * int) list
  ; attributed_instructions : float
  ; attributed_bytes : float
  ; async_copies : int
  ; async_commits : int
  ; async_waits : int
  ; async_mean_inflight : float
  ; async_max_inflight : int
  ; estimate : Perf_model.estimate option
  ; bound : string
  ; arith_intensity : float
  }

let coalescing_of ~useful ~sectors =
  if sectors = 0 then 1.0
  else float_of_int useful /. (32.0 *. float_of_int sectors)

let row_of_counters ~path ~kind ~instr ~instances (c : Counters.t) =
  { path
  ; kind
  ; instr
  ; instances
  ; instructions = c.Counters.instructions
  ; flops = c.Counters.flops
  ; tc_flops = c.Counters.tensor_core_flops
  ; global_load_bytes = c.Counters.global_load_bytes
  ; global_store_bytes = c.Counters.global_store_bytes
  ; global_sectors = c.Counters.global_transactions
  ; coalescing =
      coalescing_of
        ~useful:(c.Counters.global_load_bytes + c.Counters.global_store_bytes)
        ~sectors:c.Counters.global_transactions
  ; shared_load_bytes = c.Counters.shared_load_bytes
  ; shared_store_bytes = c.Counters.shared_store_bytes
  ; shared_bank_conflicts = c.Counters.shared_bank_conflicts
  }

let row_bytes r =
  r.global_load_bytes + r.global_store_bytes + r.shared_load_bytes
  + r.shared_store_bytes

let fraction num den = if den = 0 then 1.0 else float_of_int num /. float_of_int den

let report p ~kernel ~arch ~counters ?machine ?(scalars = []) () =
  let rows =
    List.rev_map
      (fun (r : acc_row) ->
        row_of_counters ~path:r.a_path ~kind:r.a_kind ~instr:r.a_instr
          ~instances:r.a_instances r.c)
      p.order
  in
  let totals =
    row_of_counters ~path:"total" ~kind:"" ~instr:"" ~instances:0 counters
  in
  let attributed_instructions =
    fraction
      (List.fold_left (fun a r -> a + r.instructions) 0 rows)
      totals.instructions
  in
  let attributed_bytes =
    fraction (List.fold_left (fun a r -> a + row_bytes r) 0 rows)
      (row_bytes totals)
  in
  let estimate =
    Option.map
      (fun m ->
        (* Occupancy inputs (smem, registers, parameter footprint) come
           from static analysis; the dynamic totals are the measured ones. *)
        let static =
          try Static_analysis.of_kernel arch kernel ~scalars ()
          with Failure _ ->
            { Static_analysis.zero with
              Static_analysis.blocks =
                Gpu_tensor.Thread_tensor.size kernel.Spec.grid
            ; threads_per_block = Gpu_tensor.Thread_tensor.size kernel.Spec.cta
            }
        in
        Perf_model.of_totals m
          { static with
            Static_analysis.tc_flops = float_of_int totals.tc_flops
          ; fma_flops = float_of_int totals.flops
          ; global_bytes =
              float_of_int (totals.global_load_bytes + totals.global_store_bytes)
          ; shared_bytes =
              float_of_int (totals.shared_load_bytes + totals.shared_store_bytes)
          ; instructions = float_of_int totals.instructions
          })
      machine
  in
  let bound =
    match estimate with
    | None -> "n/a"
    | Some e ->
      if e.Perf_model.launch_s > e.Perf_model.exec_s then "launch"
      else if
        e.Perf_model.compute_s >= e.Perf_model.dram_s
        && e.Perf_model.compute_s >= e.Perf_model.smem_s
      then "compute"
      else if e.Perf_model.dram_s >= e.Perf_model.smem_s then "dram"
      else "smem"
  in
  let global = totals.global_load_bytes + totals.global_store_bytes in
  let arith_intensity =
    if global = 0 then 0.0
    else float_of_int (totals.flops + totals.tc_flops) /. float_of_int global
  in
  { kernel = kernel.Spec.name
  ; arch = Arch.name arch
  ; grid_blocks = Gpu_tensor.Thread_tensor.size kernel.Spec.grid
  ; cta_threads = Gpu_tensor.Thread_tensor.size kernel.Spec.cta
  ; rows
  ; totals
  ; barriers = p.barriers
  ; instr_mix = Counters.instr_mix_alist counters
  ; attributed_instructions
  ; attributed_bytes
  ; async_copies = counters.Counters.async_copies
  ; async_commits = counters.Counters.async_commits
  ; async_waits = counters.Counters.async_waits
  ; async_mean_inflight = Counters.async_mean_inflight counters
  ; async_max_inflight = counters.Counters.async_max_inflight
  ; estimate
  ; bound
  ; arith_intensity
  }

(* ----- JSON ----- *)

let row_json r =
  Json.(
    Obj
      [ ("path", Str r.path)
      ; ("kind", Str r.kind)
      ; ("instr", Str r.instr)
      ; ("instances", Int r.instances)
      ; ("instructions", Int r.instructions)
      ; ("flops", Int r.flops)
      ; ("tc_flops", Int r.tc_flops)
      ; ("global_load_bytes", Int r.global_load_bytes)
      ; ("global_store_bytes", Int r.global_store_bytes)
      ; ("global_sectors", Int r.global_sectors)
      ; ("coalescing_efficiency", Float r.coalescing)
      ; ("shared_load_bytes", Int r.shared_load_bytes)
      ; ("shared_store_bytes", Int r.shared_store_bytes)
      ; ("shared_bank_conflicts", Int r.shared_bank_conflicts)
      ])

let report_json rep =
  let us s = Json.Float (s *. 1e6) in
  Json.(
    Obj
      ([ ("schema", Str "graphene.profile.v1")
       ; ("kernel", Str rep.kernel)
       ; ("arch", Str rep.arch)
       ; ("grid_blocks", Int rep.grid_blocks)
       ; ("cta_threads", Int rep.cta_threads)
       ; ("specs", Arr (List.map row_json rep.rows))
       ; ("totals", row_json rep.totals)
       ; ("barriers", Int rep.barriers)
       ; ( "attribution"
         , Obj
             [ ("instructions", Float rep.attributed_instructions)
             ; ("bytes", Float rep.attributed_bytes)
             ] )
       ; ("instr_mix", Obj (List.map (fun (k, v) -> (k, Int v)) rep.instr_mix))
       ; ( "copy_queue"
         , Obj
             [ ("async_copies", Int rep.async_copies)
             ; ("async_commits", Int rep.async_commits)
             ; ("async_waits", Int rep.async_waits)
             ; ("mean_inflight_groups", Float rep.async_mean_inflight)
             ; ("max_inflight_groups", Int rep.async_max_inflight)
             ] )
       ]
      @
      match rep.estimate with
      | None -> []
      | Some e ->
        [ ( "roofline"
          , Obj
              [ ("bound", Str rep.bound)
              ; ("arith_intensity_flops_per_byte", Float rep.arith_intensity)
              ; ("time_us", us e.Perf_model.time_s)
              ; ("exec_us", us e.Perf_model.exec_s)
              ; ("launch_us", us e.Perf_model.launch_s)
              ; ("compute_us", us e.Perf_model.compute_s)
              ; ("dram_us", us e.Perf_model.dram_s)
              ; ("smem_us", us e.Perf_model.smem_s)
              ; ("tc_utilization", Float e.Perf_model.tc_util)
              ; ("dram_utilization", Float e.Perf_model.dram_util)
              ] )
        ]))

let report_to_json rep = Json.to_string (report_json rep)

(* ----- pretty-printing ----- *)

let pp_report fmt rep =
  let path_w =
    List.fold_left (fun w r -> max w (String.length r.path)) 24 rep.rows
  in
  Format.fprintf fmt "@[<v>kernel %s on %s: %d block%s x %d threads@,@,"
    rep.kernel rep.arch rep.grid_blocks
    (if rep.grid_blocks = 1 then "" else "s")
    rep.cta_threads;
  Format.fprintf fmt "%-*s  %-16s %6s %8s %9s %9s %6s %5s %9s %5s@," path_w
    "spec (scope path)" "instr" "inst" "instrs" "flops" "gl.bytes" "sect"
    "coal" "sh.bytes" "cnfl";
  let line r =
    Format.fprintf fmt "%-*s  %-16s %6d %8d %9d %9d %6d %4.0f%% %9d %5d@,"
      path_w r.path r.instr r.instances r.instructions
      (r.flops + r.tc_flops)
      (r.global_load_bytes + r.global_store_bytes)
      r.global_sectors
      (100.0 *. r.coalescing)
      (r.shared_load_bytes + r.shared_store_bytes)
      r.shared_bank_conflicts
  in
  List.iter line rep.rows;
  line { rep.totals with path = "TOTAL" };
  Format.fprintf fmt "@,barriers: %d | attribution: %.1f%% of instructions, %.1f%% of bytes@,"
    rep.barriers
    (100.0 *. rep.attributed_instructions)
    (100.0 *. rep.attributed_bytes);
  Format.fprintf fmt "instr mix: %s@,"
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf "%s x%d" k v) rep.instr_mix));
  if rep.async_copies > 0 then
    Format.fprintf fmt
      "copy queue: %d cp.async, %d commits, %d waits | in-flight groups: \
       %.2f mean, %d max@,"
      rep.async_copies rep.async_commits rep.async_waits
      rep.async_mean_inflight rep.async_max_inflight;
  (match rep.estimate with
  | None -> ()
  | Some e ->
    Format.fprintf fmt
      "roofline: %s-bound | AI %.2f flop/B | est %.1f us (compute %.1f, dram \
       %.1f, smem %.1f, launch %.1f) | TC %.0f%%, DRAM %.0f%%@,"
      rep.bound rep.arith_intensity
      (e.Perf_model.time_s *. 1e6)
      (e.Perf_model.compute_s *. 1e6)
      (e.Perf_model.dram_s *. 1e6)
      (e.Perf_model.smem_s *. 1e6)
      (e.Perf_model.launch_s *. 1e6)
      (100.0 *. e.Perf_model.tc_util)
      (100.0 *. e.Perf_model.dram_util));
  Format.fprintf fmt "@]"
