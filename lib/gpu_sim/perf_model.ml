type estimate =
  { time_s : float
  ; exec_s : float
  ; launch_s : float
  ; compute_s : float
  ; dram_s : float
  ; smem_s : float
  ; tc_util : float
  ; dram_util : float
  }

type pipeline =
  { stages : int
  ; occupancy : float
  }

let of_totals ?(smem_penalty = 1.0) ?(vec_width = 4.0) ?pipeline
    (m : Machine.t) (t : Static_analysis.totals) =
  let blocks = max 1 t.Static_analysis.blocks in
  let tpb = max 1 t.Static_analysis.threads_per_block in
  (* Occupancy: concurrent blocks per SM limited by threads and shared
     memory; then grid underfill / wave quantization. *)
  let by_threads = max 1 (m.Machine.max_threads_per_sm / tpb) in
  let by_smem =
    if t.Static_analysis.smem_bytes_per_block = 0 then by_threads
    else
      max 1
        (Graphene.Arch.smem_bytes_per_block m.Machine.arch
        / t.Static_analysis.smem_bytes_per_block)
  in
  let by_regs =
    if t.Static_analysis.regs_per_thread = 0 then by_threads
    else
      max 1
        (m.Machine.registers_per_sm
        / max 1 (t.Static_analysis.regs_per_thread * tpb))
  in
  let concurrent = min by_threads (min by_smem by_regs) in
  let slots = m.Machine.sm_count * concurrent in
  let waves = (blocks + slots - 1) / slots in
  let sm_eff =
    if blocks >= slots then
      float_of_int blocks /. float_of_int (waves * slots)
    else Float.min 1.0 (float_of_int blocks /. float_of_int m.Machine.sm_count)
  in
  let sm_eff = Float.max sm_eff 1e-3 in
  (* Latency hiding needs enough resident warps per SM; below ~8 warps the
     issue rate (tensor cores, shared memory) degrades roughly linearly. *)
  let warps_per_sm = float_of_int (concurrent * tpb) /. 32.0 in
  let issue_eff = Float.min 1.0 (warps_per_sm /. 8.0) in
  let sm_eff = sm_eff *. issue_eff in
  let compute_s =
    ((t.Static_analysis.tc_flops
     /. (Machine.tc_peak_flops m *. m.Machine.tc_efficiency))
    +. (t.Static_analysis.fma_flops /. (Machine.fma_peak_flops m *. 0.85)))
    /. sm_eff
  in
  let smem_s =
    t.Static_analysis.shared_bytes /. Machine.smem_peak_bytes m /. sm_eff
    *. smem_penalty
  in
  (* DRAM needs enough threads in flight to cover latency. *)
  let dram_fill =
    Float.min 1.0
      (float_of_int (blocks * tpb) /. (float_of_int m.Machine.sm_count *. 256.0))
  in
  (* L2 filtering: tiled kernels re-reference panels that concurrent
     blocks already brought in; DRAM sees at least the unique data but at
     most 1/l2_amplification of the issued traffic. *)
  let dram_bytes =
    Float.max t.Static_analysis.param_bytes
      (t.Static_analysis.global_bytes /. m.Machine.l2_amplification)
  in
  let dram_bytes = Float.min dram_bytes t.Static_analysis.global_bytes in
  (* Narrow global accesses issue more memory-pipe requests per byte and
     leave achievable DRAM efficiency on the table: full 128-bit vectors
     reach the calibrated [mem_efficiency] (the default — the calibrated
     kernels all stage through v4-contiguous views), scalar traffic about
     three quarters of it. [vec_width] is the lowered plan's
     bytes-weighted mean global width ({!Lower.Plan.global_vec_width}). *)
  let vec_eff = 0.7 +. (0.075 *. vec_width) in
  let dram_s =
    dram_bytes
    /. (m.Machine.dram_bytes_per_sec *. m.Machine.mem_efficiency *. vec_eff)
    /. Float.max dram_fill 1e-3
  in
  (* The latency-hiding term. Without a pipeline judgment the legacy
     roofline assumes perfect overlap (exec = max of the three streams).
     With one, copy (the slower of DRAM and shared traffic) and compute
     overlap only as well as the software pipeline actually kept the
     async-copy queue full: a single-buffered staging loop serializes
     them (copy + compute — each iteration's copies block its compute
     behind the fence), while an N >= 2 stage pipeline pays
     max(copy, compute) plus the un-overlapped remainder
     (1 - occupancy) * min(copy, compute), where occupancy is the
     measured (or assumed) mean queue fill relative to the stage
     count — Counters.async_occupancy. *)
  let copy_s = Float.max dram_s smem_s in
  let exec_s =
    match pipeline with
    | None -> Float.max compute_s copy_s
    | Some { stages; _ } when stages <= 1 -> compute_s +. copy_s
    | Some { occupancy; _ } ->
      let occ = Float.max 0.0 (Float.min 1.0 occupancy) in
      Float.max compute_s copy_s
      +. ((1.0 -. occ) *. Float.min compute_s copy_s)
  in
  let launch_s = m.Machine.kernel_launch_overhead_s in
  let time_s = exec_s +. launch_s in
  let tc_util =
    if exec_s <= 0.0 then 0.0
    else t.Static_analysis.tc_flops /. Machine.tc_peak_flops m /. exec_s
  in
  let dram_util =
    if exec_s <= 0.0 then 0.0
    else
      Float.max t.Static_analysis.param_bytes
        (t.Static_analysis.global_bytes /. m.Machine.l2_amplification)
      /. m.Machine.dram_bytes_per_sec /. exec_s
  in
  { time_s; exec_s; launch_s; compute_s; dram_s; smem_s; tc_util; dram_util }

let of_kernel ?smem_penalty ?vec_width ?pipeline m kernel ?scalars () =
  of_totals ?smem_penalty ?vec_width ?pipeline m
    (Static_analysis.of_kernel m.Machine.arch kernel ?scalars ())

let sequence ests =
  List.fold_left
    (fun acc e ->
      { time_s = acc.time_s +. e.time_s
      ; exec_s = acc.exec_s +. e.exec_s
      ; launch_s = acc.launch_s +. e.launch_s
      ; compute_s = acc.compute_s +. e.compute_s
      ; dram_s = acc.dram_s +. e.dram_s
      ; smem_s = acc.smem_s +. e.smem_s
      ; tc_util = 0.0
      ; dram_util = 0.0
      })
    { time_s = 0.0
    ; exec_s = 0.0
    ; launch_s = 0.0
    ; compute_s = 0.0
    ; dram_s = 0.0
    ; smem_s = 0.0
    ; tc_util = 0.0
    ; dram_util = 0.0
    }
    ests

let tflops e ~flops = flops /. e.time_s /. 1e12

let pp fmt e =
  Format.fprintf fmt
    "%.1f us (exec %.1f us: compute %.1f, dram %.1f, smem %.1f; launch %.1f) \
     | TC %.0f%%, DRAM %.0f%%"
    (e.time_s *. 1e6) (e.exec_s *. 1e6) (e.compute_s *. 1e6)
    (e.dram_s *. 1e6) (e.smem_s *. 1e6) (e.launch_s *. 1e6)
    (100. *. e.tc_util) (100. *. e.dram_util)
