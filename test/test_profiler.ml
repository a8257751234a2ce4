(* Tests for the kernel profiler: golden JSON report (deterministic field
   ordering), Chrome-trace schema validity, attribution coverage,
   run-to-run determinism, and the JSON writer every report goes
   through. *)

module Arch = Graphene.Arch
module Profiler = Gpu_sim.Profiler
module Trace = Gpu_sim.Trace

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

open Json_parse

(* ----- the profiled kernel under test (must match bin/gen_golden.ml) ----- *)

(* Zero-filled inputs keep the golden byte-stable: the traffic — addresses,
   sectors, bank conflicts, instruction mix — depends only on the
   decomposition, and zeros dodge float-formatting noise in the data. *)
let profile_gemm () =
  let arch = Arch.SM86 in
  let cfg = Kernels.Gemm.test_config arch in
  let kernel =
    Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.none ~m:64
      ~n:64 ~k:32 ()
  in
  let args =
    List.map
      (fun (p : Gpu_tensor.Tensor.t) ->
        ( p.Gpu_tensor.Tensor.name
        , Array.make (Shape.Layout.cosize p.Gpu_tensor.Tensor.layout) 0.0 ))
      kernel.Graphene.Spec.params
  in
  let trace = Trace.create () in
  let profiler = Profiler.create ~trace () in
  let counters = Gpu_sim.Interp.run ~arch ~profiler kernel ~args () in
  let report =
    Profiler.report profiler ~kernel ~arch ~counters
      ~machine:(Gpu_sim.Machine.of_arch arch) ()
  in
  (report, trace)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ----- tests ----- *)

let test_golden_report () =
  let report, _ = profile_gemm () in
  check_str "profile report golden (regenerate with bin/gen_golden.exe)"
    (read_file "golden/profile_gemm_tc_sm86.json")
    (Profiler.report_to_json report)

let test_report_schema () =
  let report, _ = profile_gemm () in
  let j = parse (Profiler.report_to_json report) in
  check_str "schema" "graphene.profile.v1" (str_of (member "schema" j));
  check_str "arch" "sm86" (str_of (member "arch" j));
  let specs = arr_of (member "specs" j) in
  check_bool "has spec rows" true (List.length specs > 0);
  List.iter
    (fun row ->
      check_bool "path non-empty" true (String.length (str_of (member "path" row)) > 0);
      check_bool "instances positive" true (num_of (member "instances" row) > 0.0);
      let coal = num_of (member "coalescing_efficiency" row) in
      check_bool "coalescing in [0,1]" true (coal >= 0.0 && coal <= 1.0))
    specs;
  (* per-row sums must reproduce the whole-kernel totals *)
  let sum field =
    List.fold_left (fun acc row -> acc + int_of_float (num_of (member field row))) 0 specs
  in
  let totals = member "totals" j in
  check_int "rows sum to total instructions"
    (int_of_float (num_of (member "instructions" totals)))
    (sum "instructions");
  check_int "rows sum to total sectors"
    (int_of_float (num_of (member "global_sectors" totals)))
    (sum "global_sectors");
  let roofline = member "roofline" j in
  check_bool "bound is a known class" true
    (List.mem (str_of (member "bound" roofline))
       [ "compute"; "dram"; "smem"; "launch"; "n/a" ])

let test_attribution_coverage () =
  (* Acceptance bar: >= 95% of instructions and bytes attributed to named
     specs. *)
  let report, _ = profile_gemm () in
  check_bool "instruction coverage >= 0.95" true
    (report.Profiler.attributed_instructions >= 0.95);
  check_bool "byte coverage >= 0.95" true
    (report.Profiler.attributed_bytes >= 0.95)

let test_chrome_trace_schema () =
  let _, trace = profile_gemm () in
  check_bool "trace non-empty" true (Trace.num_events trace > 0);
  let j = parse (Trace.to_chrome_string trace) in
  let events = arr_of (member "traceEvents" j) in
  check_bool "events serialized" true
    (List.length events >= Trace.num_events trace);
  List.iter
    (fun e ->
      check_bool "name non-empty" true (String.length (str_of (member "name" e)) > 0);
      let ph = str_of (member "ph" e) in
      check_bool "ph is X, i or M" true (List.mem ph [ "X"; "i"; "M" ]);
      check_bool "ts >= 0" true (num_of (member "ts" e) >= 0.0);
      ignore (num_of (member "pid" e));
      ignore (num_of (member "tid" e));
      if ph = "X" then check_bool "dur >= 1" true (num_of (member "dur" e) >= 1.0))
    events

let test_deterministic () =
  let r1, t1 = profile_gemm () in
  let r2, t2 = profile_gemm () in
  check_str "same report JSON" (Profiler.report_to_json r1)
    (Profiler.report_to_json r2);
  check_str "same trace JSON" (Trace.to_chrome_string t1)
    (Trace.to_chrome_string t2)

(* The one JSON writer: escaping, non-finite floats and the layout rule
   (top-level members and elements of arrays of objects start a line). *)
let test_json_writer () =
  let raw = "q\" b\\ n\n t\t r\r u\001" in
  check_str "escaping" "\"q\\\" b\\\\ n\\n t\\t r\\r u\\u0001\"\n"
    (J.to_string (J.Str raw));
  check_bool "escaped string reads back" true
    (parse (J.to_string (J.Str raw)) = J.Str raw);
  check_str "non-finite floats print as null" "[null,null,null,0.1,1e+06]\n"
    (J.to_string
       (J.Arr
          [ J.Float nan; J.Float infinity; J.Float neg_infinity; J.Float 0.1
          ; J.Float 1e6 ]));
  check_str "layout"
    "{\"a\":1,\n\"b\":[\n{\"c\":[1,2],\"d\":{\"e\":null,\"f\":true}},\n{}],\n\
     \"g\":[1,{}],\n\"h\":[]}\n"
    (J.to_string
       (J.Obj
          [ ("a", J.Int 1)
          ; ( "b"
            , J.Arr
                [ J.Obj
                    [ ("c", J.Arr [ J.Int 1; J.Int 2 ])
                    ; ("d", J.Obj [ ("e", J.Null); ("f", J.Bool true) ])
                    ]
                ; J.Obj []
                ] )
          ; ("g", J.Arr [ J.Int 1; J.Obj [] ])
          ; ("h", J.Arr [])
          ]))

let () =
  Alcotest.run "profiler"
    [ ( "report"
      , [ Alcotest.test_case "golden JSON" `Quick test_golden_report
        ; Alcotest.test_case "schema" `Quick test_report_schema
        ; Alcotest.test_case "attribution >= 95%" `Quick
            test_attribution_coverage
        ; Alcotest.test_case "deterministic" `Quick test_deterministic
        ] )
    ; ( "chrome trace"
      , [ Alcotest.test_case "trace_events schema" `Quick
            test_chrome_trace_schema
        ] )
    ; ("json", [ Alcotest.test_case "writer" `Quick test_json_writer ])
    ]
