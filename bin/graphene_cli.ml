(* Command-line interface to the Graphene reproduction:

     graphene ir <kernel>         print the Graphene IR listing
     graphene codegen <kernel>    print the generated CUDA C++
     graphene lower <kernel>      run the lowering pipeline and print the IR
                                  after every pass plus the execution plan
     graphene simulate <kernel>   execute on the simulated GPU and verify
     graphene profile <kernel>    simulate with per-spec profiling: prints the
                                  report, writes JSON + Chrome-trace files
     graphene tune <gemm|fmha> [SIZES]
                                  search a kernel's decomposition space
     graphene tables              regenerate the paper's tables and figures
     graphene table2              print the atomic-spec registry (Table 2) *)

open Cmdliner

module Arch = Graphene.Arch

let arch_conv =
  Arg.conv
    ( (fun s ->
        match String.lowercase_ascii s with
        | "sm70" | "volta" | "v100" -> Ok Arch.SM70
        | "sm86" | "ampere" | "a6000" -> Ok Arch.SM86
        | _ -> Error (`Msg "expected sm70|sm86")),
      fun fmt a -> Format.pp_print_string fmt (Arch.name a) )

let arch_arg =
  Arg.(value & opt arch_conv Arch.SM86 & info [ "a"; "arch" ] ~doc:"Target architecture (sm70 or sm86).")

let kernel_names = Experiments.Presets.names

let kernel_arg =
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun n -> (n, n)) kernel_names))) None
    & info [] ~docv:"KERNEL"
        ~doc:
          (Printf.sprintf "Kernel to build: %s."
             (String.concat ", " kernel_names)))

let build = Experiments.Presets.build

(* A preset the architecture cannot run is refused before it is emitted
   or lowered: the validation problems go to stderr and the command exits
   2 (exit 1 means a result mismatch). *)
let build_valid arch name =
  let ((kernel, _, _) as built) = build arch name in
  (match Graphene.Validate.check arch kernel with
  | [] -> ()
  | problems ->
    prerr_endline (String.concat "\n" problems);
    exit 2);
  built

let refusal_doc =
  " A kernel that does not validate on the architecture is refused with \
   its problems on stderr and exit 2."

let ir_cmd =
  let run arch name =
    let kernel, _, _ = build arch name in
    print_endline (Graphene.Spec.kernel_to_string kernel)
  in
  Cmd.v (Cmd.info "ir" ~doc:"Print the Graphene IR listing of a kernel.")
    Term.(const run $ arch_arg $ kernel_arg)

let codegen_cmd =
  let run arch name =
    let kernel, _, _ = build_valid arch name in
    print_string (Codegen.Emit.cuda arch kernel)
  in
  Cmd.v
    (Cmd.info "codegen"
       ~doc:("Print the generated CUDA C++ of a kernel." ^ refusal_doc))
    Term.(const run $ arch_arg $ kernel_arg)

let stages_arg =
  Arg.(
    value & opt int 1
    & info [ "stages" ] ~docv:"N"
        ~doc:
          "Software-pipelining depth for the swpipe pass: at $(docv) >= 2, \
           eligible async staging loops are rewritten to $(docv)-stage \
           rotating-buffer pipelines. Default 1 (off).")

let lower_cmd =
  let plan_only =
    Arg.(
      value & flag
      & info [ "plan-only" ]
          ~doc:"Print only the final execution plan, not the per-pass IR.")
  in
  let no_vectorize =
    Arg.(
      value & flag
      & info [ "no-vectorize" ]
          ~doc:
            "Disable the vectorize pass's widening (every atomic stays \
             scalar); the legality verdicts and bank-conflict lint are \
             still computed and printed.")
  in
  let run arch name plan_only no_vectorize stages =
    let kernel, _, _ = build arch name in
    let log ~pass ~doc rendered =
      if not plan_only then begin
        Format.printf "==== %s: %s ====@.%s@.@." pass doc rendered
      end
    in
    let plan =
      Lower.Pipeline.lower ~log ~vectorize:(not no_vectorize) ~stages arch
        kernel
    in
    if plan_only then print_endline (Lower.Plan.to_string plan);
    Format.printf
      "lowered %s for %s: %d op(s), %d atomic(s), %d env slot(s), %d \
       alloc(s)@."
      kernel.Graphene.Spec.name (Arch.name arch)
      (Lower.Plan.count_ops plan.Lower.Plan.body)
      (Lower.Plan.count_atomics plan.Lower.Plan.body)
      plan.Lower.Plan.nslots
      (List.length plan.Lower.Plan.allocs);
    let widened, moves = Lower.Plan.vec_counts plan.Lower.Plan.body in
    Format.printf "vectorize%s: %d of %d per-thread move(s) widened"
      (if plan.Lower.Plan.vec_enabled then "" else " (disabled)")
      widened moves;
    (match Lower.Plan.global_vec_width plan.Lower.Plan.body with
    | Some w -> Format.printf ", mean global width %.2f@." w
    | None -> Format.printf "@.");
    let flagged, cycles =
      Lower.Plan.bank_warning_counts plan.Lower.Plan.body
    in
    if flagged > 0 then
      Format.printf
        "bank-conflict lint: %d atomic(s) flagged, +%d conflict \
         cycle(s)/batch@."
        flagged cycles;
    (let pl = plan.Lower.Plan.pipelining in
     if pl.Lower.Plan.pl_stages > 1 then
       Format.printf
         "pipelining: %d stage(s), %d B staged/iter, queue depth bound %d \
          [%s]@."
         pl.Lower.Plan.pl_stages pl.Lower.Plan.pl_stage_bytes
         pl.Lower.Plan.pl_queue_bound
         (String.concat ", "
            (List.map
               (fun (b, s) -> Printf.sprintf "%s(+%d)" b s)
               pl.Lower.Plan.pl_buffers))
     else Format.printf "pipelining: %s@." pl.Lower.Plan.pl_note)
  in
  Cmd.v
    (Cmd.info "lower"
       ~doc:
         "Run the lowering pipeline (validate, swpipe, flatten, resolve, \
          vectorize, compile) on a kernel, printing the IR after every \
          pass, the compiled execution plan — with each view's per-lane \
          mark, vector width and bank-conflict lint — its op \
          and atomic counts, and the software-pipelining verdict (stages \
          chosen, shared bytes per stage, queue-depth bound, or the \
          per-loop refusal reasons). See docs/LOWERING.md.")
    Term.(
      const run $ arch_arg $ kernel_arg $ plan_only $ no_vectorize $ stages_arg)

let domains_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Execute the simulated grid on $(docv) OCaml domains in parallel \
           (default: the machine's recommended domain count). Results are \
           bit-identical at every domain count; see docs/PARALLELISM.md.")

(* The correctness signal of [simulate] and [profile]: the outputs
   against the CPU reference, exit 1 on a mismatch. *)
let check_reference verify =
  if verify () then Format.printf "result: matches CPU reference@."
  else begin
    Format.printf "result: MISMATCH against CPU reference@.";
    exit 1
  end

let simulate_cmd =
  let run arch name domains stages =
    let kernel, args, verify = build_valid arch name in
    let plan, _ = Lower.Pipeline.lower_cached ~stages arch kernel in
    let counters = Gpu_sim.Interp.run_plan ?domains plan ~args () in
    Format.printf "%a@." Gpu_sim.Counters.pp counters;
    check_reference verify
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:
         ("Execute a kernel on the simulated GPU and verify the result (exit \
           1 on a mismatch against the CPU reference)." ^ refusal_doc))
    Term.(const run $ arch_arg $ kernel_arg $ domains_arg $ stages_arg)

let write_file path contents =
  try
    let oc = open_out path in
    output_string oc contents;
    close_out oc
  with Sys_error msg ->
    Format.eprintf "error: cannot write output file: %s@." msg;
    exit 1

let profile_cmd =
  let out_dir =
    Arg.(
      value & opt string "."
      & info [ "o"; "output-dir" ] ~docv:"DIR"
          ~doc:"Directory for the JSON report and Chrome-trace files.")
  in
  let detail =
    Arg.(
      value & flag
      & info [ "detail" ]
          ~doc:
            "Also record one trace event per executed instruction instance \
             (larger trace files).")
  in
  let run arch name out_dir detail domains stages =
    let kernel, args, verify = build_valid arch name in
    let plan, _ = Lower.Pipeline.lower_cached ~stages arch kernel in
    let trace = Gpu_sim.Trace.create () in
    let profiler = Gpu_sim.Profiler.create ~trace ~detail () in
    let counters =
      Gpu_sim.Interp.run_plan ~profiler ?domains plan ~args ()
    in
    let machine = Gpu_sim.Machine.of_arch arch in
    let report =
      Gpu_sim.Profiler.report profiler ~kernel ~arch ~counters ~machine ()
    in
    Format.printf "%a@." Gpu_sim.Profiler.pp_report report;
    let slug = String.map (fun c -> if c = '-' then '_' else c) name in
    let base =
      Printf.sprintf "%s/profile_%s_%s" out_dir slug (Arch.name arch)
    in
    let json_path = base ^ ".json" in
    let trace_path = base ^ ".trace.json" in
    write_file json_path (Gpu_sim.Profiler.report_to_json report);
    write_file trace_path (Gpu_sim.Trace.to_chrome_string trace);
    Format.printf "report: %s@.trace:  %s (%d events; load in \
                   chrome://tracing or ui.perfetto.dev)@."
      json_path trace_path
      (Gpu_sim.Trace.num_events trace);
    check_reference verify
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         ("Execute a kernel on the simulated GPU with per-spec profiling:   \
           print the attribution report (instruction mix, bytes, \
           coalescing, bank conflicts, roofline placement) and write a JSON \
           report plus a Chrome-trace timeline (exit 1 on a mismatch against \
           the CPU reference). See docs/PROFILING.md." ^ refusal_doc))
    Term.(
      const run $ arch_arg $ kernel_arg $ out_dir $ detail $ domains_arg
      $ stages_arg)

let tune_cmd =
  let mnk =
    Arg.(
      value
      & pos_right 0 int []
      & info [] ~docv:"SIZES"
          ~doc:
            "Problem sizes: M N K for gemm (defaults 4096 4096 1024), \
             SEQ DH for fmha (defaults 256 64). A wrong count or a size \
             below 1 exits 2.")
  in
  let kernel_pos =
    Arg.(value & pos 0 string "gemm" & info [] ~docv:"KERNEL")
  in
  let profile_top =
    Arg.(
      value & opt int 0
      & info [ "profile" ] ~docv:"N"
          ~doc:
            "Profile the top $(docv) proxy-simulated candidates (refined \
             order) and print a measured per-spec summary (bound, \
             coalescing, bank conflicts) for each.")
  in
  let budget =
    Arg.(
      value & opt int 4096
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Maximum candidates the search scores; larger spaces are \
             subsampled by a seeded priority (nested: a bigger budget only \
             ever adds candidates). A budget below 1 exits 2.")
  in
  let proxy_top =
    Arg.(
      value & opt int 8
      & info [ "proxy-top" ] ~docv:"N"
          ~doc:"Front-runners to proxy-simulate in the search's tier 2.")
  in
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Seed for the budget subsample and the verification inputs. The \
             same seed reproduces the identical search (only wall-clock \
             fields vary).")
  in
  let out =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Also write the search trajectory as JSON to $(docv).")
  in
  let run arch kernel sizes profile_top budget proxy_top seed out domains =
    let machine = Gpu_sim.Machine.of_arch arch in
    (* Malformed input exits 2; exit 1 is kept for "nothing verified". *)
    let refuse fmt =
      Format.kasprintf (fun msg -> Format.eprintf "error: %s@." msg; exit 2) fmt
    in
    let usage form =
      refuse "expected tune %s %s (or no sizes for the defaults)" kernel form
    in
    if List.exists (fun s -> s <= 0) sizes then
      refuse "tune %s sizes must be positive (got %s)" kernel
        (String.concat " " (List.map string_of_int sizes));
    if budget < 1 then refuse "tune --budget must be positive (got %d)" budget;
    let space =
      match (kernel, sizes) with
      | "gemm", [] -> Tuner.Search.gemm_space arch ~m:4096 ~n:4096 ~k:1024 ()
      | "gemm", [ m; n; k ] -> Tuner.Search.gemm_space arch ~m ~n ~k ()
      | "gemm", _ -> usage "M N K"
      | "fmha", [] -> Tuner.Search.fmha_space arch ~seq:256 ~dh:64 ()
      | "fmha", [ seq; dh ] -> Tuner.Search.fmha_space arch ~seq ~dh ()
      | "fmha", _ -> usage "SEQ DH"
      | other, _ ->
        refuse "no search space for kernel %s (try gemm or fmha)" other
    in
    let o =
      Tuner.Search.search ~seed ~max_candidates:budget ~proxy_top ?domains
        machine space ()
    in
    Format.printf "%a@." Tuner.Search.pp_outcome o;
    List.iteri
      (fun i (s : Tuner.Search.simulated) ->
        if i < profile_top then begin
          let cand = s.Tuner.Search.sc.Tuner.Search.cand in
          let rep = Tuner.Search.profile machine cand in
          let t = rep.Gpu_sim.Profiler.totals in
          Format.printf
            "  profiled #%d: %a -> %s-bound, %.0f%% coalesced, %d \
             bank-conflict cycles/block, %.0f%% instructions attributed@."
            (i + 1) Tuner.Search.pp_knobs cand.Tuner.Search.knobs
            rep.Gpu_sim.Profiler.bound
            (100.0 *. t.Gpu_sim.Profiler.coalescing)
            (t.Gpu_sim.Profiler.shared_bank_conflicts
            / max 1 rep.Gpu_sim.Profiler.grid_blocks)
            (100.0 *. rep.Gpu_sim.Profiler.attributed_instructions)
        end)
      o.Tuner.Search.o_simulated;
    Option.iter
      (fun f ->
        write_file f (Tuner.Search.to_json o);
        Format.printf "wrote %s@." f)
      out;
    if not o.Tuner.Search.o_verified then begin
      Format.printf "no candidate passed verification@.";
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Search the decomposition space of a gemm or fmha problem: \
          model-score every candidate (tile shapes x swizzle x vectorize x \
          pipeline depth), proxy-simulate the front-runners with measured \
          occupancy/width feedback, and verify the winner bit-identical \
          against the reference interpreter (exit 1 when none passes). See \
          docs/TUNING.md.")
    Term.(
      const run $ arch_arg $ kernel_pos $ mnk $ profile_top $ budget
      $ proxy_top $ seed $ out $ domains_arg)

let serve_cmd =
  let seed =
    Arg.(
      value & opt int Serve.Traffic.default.Serve.Traffic.seed
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Traffic seed. The same seed reproduces the identical request \
             stream and identical simulated metrics (only wall-clock fields \
             vary between runs).")
  in
  let requests =
    Arg.(
      value & opt int Serve.Traffic.default.Serve.Traffic.requests
      & info [ "n"; "requests" ] ~docv:"N" ~doc:"Number of requests to serve.")
  in
  let rate =
    Arg.(
      value & opt float Serve.Traffic.default.Serve.Traffic.rate_rps
      & info [ "rate" ] ~docv:"RPS"
          ~doc:"Poisson arrival rate in requests per simulated second.")
  in
  let tick =
    Arg.(
      value & opt (some float) None
      & info [ "tick" ] ~docv:"S"
          ~doc:"Scheduling-tick length in simulated seconds.")
  in
  let cell_cap =
    Arg.(
      value & opt (some int) None
      & info [ "cell-cap" ] ~docv:"N"
          ~doc:"Admission budget per tick, in simulated cells.")
  in
  let batch_cap =
    Arg.(
      value & opt (some int) None
      & info [ "batch-cap" ] ~docv:"N" ~doc:"Maximum requests per batch.")
  in
  let out =
    Arg.(
      value & opt string "BENCH_serve.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the graphene.serve_bench.v2 JSON report.")
  in
  let run seed requests rate tick cell_cap batch_cap out domains =
    let params =
      { Serve.Traffic.default with
        Serve.Traffic.seed
      ; requests
      ; rate_rps = rate
      }
    in
    let dflt = Serve.Engine.default_config () in
    let config =
      { dflt with
        Serve.Engine.tick_s = Option.value tick ~default:dflt.Serve.Engine.tick_s
      ; max_tick_cells =
          Option.value cell_cap ~default:dflt.Serve.Engine.max_tick_cells
      ; max_batch_requests =
          Option.value batch_cap
            ~default:dflt.Serve.Engine.max_batch_requests
      ; shards = Option.value domains ~default:dflt.Serve.Engine.shards
      }
    in
    let result =
      try
        Serve.Engine.run ~config ~seed ~rate_rps:rate
          (Serve.Traffic.generate params)
      with Invalid_argument msg ->
        Format.eprintf "error: %s@." msg;
        exit 2
    in
    Format.printf "%a" Serve.Metrics.pp_summary result.Serve.Engine.summary;
    write_file out (Serve.Metrics.to_json result.Serve.Engine.summary);
    Format.printf "wrote %s (schema graphene.serve_bench.v2)@." out
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the continuous-batching inference engine on seeded synthetic \
          traffic (Poisson arrivals, BERT/GPT-2 proxy shapes): admission \
          batches shape-compatible requests each scheduling tick, one \
          cached lowering serves every batch of a bucket, and the admitted \
          grids fan out across the domain pool. Prints the latency/\
          throughput/occupancy summary and writes BENCH_serve.json; an \
          out-of-range setting exits 2. See docs/SERVING.md.")
    Term.(
      const run $ seed $ requests $ rate $ tick $ cell_cap $ batch_cap $ out
      $ domains_arg)

let layout_cmd =
  (* A self-checking walkthrough of the CuTe layout algebra
     (docs/LAYOUT.md): each line prints an operation and its canonical
     (shape):(stride) result, and the run exits nonzero if any result
     drifts from the conformance corpus value. *)
  let run () =
    let module L = Shape.Layout in
    let module T = Shape.Int_tuple in
    let module Sw = Shape.Swizzle in
    let failures = ref 0 in
    let row name exp got =
      let ok = String.equal exp got in
      if not ok then incr failures;
      Printf.printf "%-44s %-28s %s\n" name got
        (if ok then "ok" else "MISMATCH (want " ^ exp ^ ")")
    in
    let a = L.of_pairs [ (4, 2); (2, 1); (3, 8) ] in
    row "A = ((4,2,3):(2,1,8))" "((4,2,3):(2,1,8))" (L.to_string a);
    row "coalesce ((2,4):(1,2))" "(8:1)"
      (L.to_string (L.coalesce (L.of_pairs [ (2, 1); (4, 2) ])));
    row "composition (20:2) ((5,4):(4,1))" "((5,4):(8,2))"
      (L.to_string
         (L.composition (L.vector 20 ~stride:2) (L.of_pairs [ (5, 4); (4, 1) ])));
    row "complement (4:2) 24" "((2,3):(1,8))"
      (L.to_string (L.complement (L.vector 4 ~stride:2) 24));
    row "logical_divide A (4:2)" "(((2,2),(2,3)):((4,1),(2,8)))"
      (L.to_string (L.logical_divide a (L.vector 4 ~stride:2)));
    let mk =
      L.make
        (T.node [ T.of_int 9; T.node [ T.of_int 4; T.of_int 8 ] ])
        (T.node [ T.of_int 59; T.node [ T.of_int 13; T.of_int 1 ] ])
    in
    let tiler =
      [ Some (L.vector 3 ~stride:3); Some (L.of_pairs [ (2, 1); (4, 8) ]) ]
    in
    row "zipped_divide (9,(4,8)) by-mode"
      "(((3,(2,4)),(3,(2,2))):((177,(13,2)),(59,(26,1))))"
      (L.to_string (L.zipped_divide mk tiler));
    row "tiled_divide (9,(4,8)) by-mode"
      "(((3,(2,4)),3,(2,2)):((177,(13,2)),59,(26,1)))"
      (L.to_string (L.tiled_divide mk tiler));
    row "logical_product ((2,2):(4,1)) (6:1)"
      "(((2,2),(2,3)):((4,1),(2,8)))"
      (L.to_string
         (L.logical_product (L.of_pairs [ (2, 4); (2, 1) ]) (L.vector 6 ~stride:1)));
    row "right_inverse ((2,2):(2,1))" "((2,2):(2,1))"
      (L.to_string (L.right_inverse (L.of_pairs [ (2, 2); (2, 1) ])));
    row "left_inverse (4:2)" "((2,4):(4,1))"
      (L.to_string (L.left_inverse (L.vector 4 ~stride:2)));
    let c =
      L.compose_swizzle (Sw.make ~bits:1 ~base:0 ~shift:2)
        (L.of_pairs [ (6, 8); (2, 2) ])
    in
    row "swizzle o ((6,2):(8,2))" "Swizzle<1,0,2> o ((6,2):(8,2))"
      (L.composed_to_string c);
    row "  image" "0 8 16 24 32 40"
      (String.concat " "
         (List.map string_of_int
            (Array.to_list (L.composed_indices c) |> List.filteri (fun i _ -> i < 6))));
    row "  low window" "1" (string_of_int (L.composed_low_window c));
    if !failures > 0 then (
      Printf.eprintf "%d layout algebra mismatches\n" !failures;
      exit 1)
  in
  Cmd.v
    (Cmd.info "layout"
       ~doc:
         "Walk through the CuTe layout algebra (coalesce, composition, \
          complement, divisions, products, inverses, swizzle composition) \
          and self-check each result against the conformance corpus.")
    Term.(const run $ const ())

let tables_cmd =
  let run () = Experiments.Figures.print_all Format.std_formatter in
  Cmd.v
    (Cmd.info "tables"
       ~doc:"Regenerate every table and figure of the paper's evaluation.")
    Term.(const run $ const ())

let table2_cmd =
  let run () = Experiments.Figures.print_table2 Format.std_formatter in
  Cmd.v (Cmd.info "table2" ~doc:"Print the atomic-spec registry (Table 2).")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "graphene" ~version:"1.0.0"
      ~doc:
        "Graphene: an IR for optimized tensor computations on GPUs (OCaml \
         reproduction of the ASPLOS 2023 paper)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
       [ ir_cmd; codegen_cmd; lower_cmd; simulate_cmd; profile_cmd
       ; serve_cmd; layout_cmd; tables_cmd; table2_cmd; tune_cmd
       ]))
