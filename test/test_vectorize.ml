(* Tests for the vectorize pass and the wide-transaction memory engine:

   - view_cap legality corpus: contiguous, strided, misaligned, swizzled,
     symbolic and too-small views widen (or refuse) for the stated reason;
   - pass-level verdicts on lowered kernels: per-thread moves widen,
     collectives/non-moves/divergent leaves refuse, [?vectorize:false]
     forces every atomic scalar;
   - the widened global traffic of GEMM and FMHA, and a verdict digest
     per corpus family (corpus.ml; the widened plan's bit-identity with
     the scalar-forced plan and the tree walk is its matrix, run by
     test_equivalence);
   - hand-computed request/sector accounting for 2-wide and 4-wide
     accesses (full warp, broadcast, partial mask);
   - the static bank-conflict lint on hand-computed views. *)

module E = Shape.Int_expr
module L = Shape.Layout
module Sw = Shape.Swizzle
module Ts = Gpu_tensor.Tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module Arch = Graphene.Arch
module Spec = Graphene.Spec
module C = Gpu_sim.Counters
module Interp = Gpu_sim.Interp
module Pipeline = Lower.Pipeline
module Plan = Lower.Plan
module V = Lower.Vectorize

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ----- view_cap legality corpus ----- *)

let view ?(mem = Ms.Global) ?(dt = Dt.FP16) ?swizzle ?offset name pairs =
  let layout = L.of_pairs pairs in
  let t = Ts.create ?swizzle name layout dt mem in
  match offset with
  | None -> t
  | Some o -> Ts.reinterpret t ~layout ~elem:(Ts.Scalar dt) ~offset:o

let check_cap name v expected =
  let got =
    match V.view_cap v with
    | Ok c ->
      Printf.sprintf "v%d%s" c.V.c_width
        (if c.V.c_full_span then " full-span" else "")
    | Error r -> "refused:" ^ V.reason_name r
  in
  check_str name expected got

let test_view_cap () =
  check_cap "contiguous 8xfp16" (view "a" [ (8, 1) ]) "v4 full-span";
  check_cap "contiguous 2xfp16" (view "a" [ (2, 1) ]) "v2 full-span";
  check_cap "contiguous 4xfp32" (view ~dt:Dt.FP32 "a" [ (4, 1) ])
    "v4 full-span";
  (* 4xfp64 = 32B exceeds the 16B transaction cap at w4; w2 fits. *)
  check_cap "fp64 width cap" (view ~dt:Dt.FP64 "a" [ (4, 1) ]) "v2 full-span";
  check_cap "strided" (view "a" [ (8, 2) ]) "refused:strided";
  (* Unit-stride run of 2 repeating at stride 4: v2 groups, not one span. *)
  check_cap "grouped runs" (view "a" [ (2, 1); (4, 4) ]) "v2";
  (* Size-1 dims are degenerate and must not break the prefix scan. *)
  check_cap "unit dims" (view "a" [ (1, 7); (8, 1); (1, 3) ]) "v4 full-span";
  check_cap "misaligned" (view ~offset:(E.const 1) "a" [ (8, 1) ])
    "refused:misaligned";
  (* A 4 B offset still spans the whole view contiguously, only the
     vector width drops. *)
  check_cap "half-aligned" (view ~offset:(E.const 2) "a" [ (8, 1) ])
    "v2 full-span";
  check_cap "symbolic offset" (view ~offset:(E.var "x") "a" [ (8, 1) ])
    "refused:misaligned";
  check_cap "provably aligned product"
    (view ~offset:(E.mul (E.var "x") (E.const 4)) "a" [ (8, 1) ])
    "v4 full-span";
  (* Register destinations have no byte-address alignment requirement. *)
  check_cap "register ignores alignment"
    (view ~mem:Ms.Register ~offset:(E.const 1) "a" [ (8, 1) ])
    "v4 full-span";
  check_cap "symbolic extent"
    (Ts.create "a" (L.row_major_e [ E.var "n" ]) Dt.FP16 Ms.Global)
    "refused:symbolic";
  check_cap "too small" (view "a" [ (1, 1) ]) "refused:too-small";
  (* A swizzle whose untouched low window covers the vector still widens
     (but is never one contiguous span); a window of one element refuses. *)
  check_cap "swizzled wide window"
    (view ~swizzle:(Sw.make ~bits:3 ~base:3 ~shift:3) "a" [ (8, 1) ])
    "v4";
  check_cap "swizzled narrow window"
    (view ~swizzle:(Sw.make ~bits:1 ~base:0 ~shift:3) "a" [ (8, 1) ])
    "refused:swizzled"

(* ----- verdicts on lowered kernels ----- *)

let gemm_tc () = (Corpus.find "gemm-tc sm86").Corpus.build ()

let verdict_counts plan =
  let widened = ref 0 and refusals = Hashtbl.create 8 in
  Plan.iter_atomics
    (fun a ->
      match a.Plan.a_vec with
      | V.Widened _ -> incr widened
      | V.Refused r ->
        let k = V.reason_name r in
        Hashtbl.replace refusals k
          (1 + Option.value ~default:0 (Hashtbl.find_opt refusals k)))
    plan.Plan.body;
  (!widened, fun r -> Option.value ~default:0 (Hashtbl.find_opt refusals r))

let test_gemm_verdicts () =
  let plan = Pipeline.lower ~vectorize:true Arch.SM86 (gemm_tc ()) in
  check_bool "vec enabled" true plan.Plan.vec_enabled;
  let widened, moves = Plan.vec_counts plan.Plan.body in
  check_int "all per-thread moves widened" moves widened;
  check_bool "kernel has per-thread moves" true (moves > 0);
  let nwidened, refused = verdict_counts plan in
  check_int "widened atomics" widened nwidened;
  check_bool "collectives refused as collective" true
    (refused "collective" > 0);
  check_bool "per-thread init refused as not-a-move" true
    (refused "not-a-move" > 0);
  (* The staging moves ride the global->shared path at width 4, so the
     bytes-weighted mean global width must be well above scalar. *)
  match Plan.global_vec_width plan.Plan.body with
  | None -> Alcotest.fail "expected global move traffic"
  | Some w -> check_bool "mean global width > 2" true (w > 2.0)

(* The corpus's divergent copy: an unpredicated pair of per-thread moves
   must widen, the same pair under a tid-dependent branch must refuse
   with the mask hazard. *)
let test_divergent_refusal () =
  let plan =
    Pipeline.lower ~vectorize:true Arch.SM86 (Corpus.divergent_copy ())
  in
  let widened, refused = verdict_counts plan in
  check_int "unpredicated moves widen" 2 widened;
  check_int "predicated moves refuse as divergent-mask" 2
    (refused "divergent-mask")

let test_disabled_lowering () =
  let plan = Pipeline.lower ~vectorize:false Arch.SM86 (gemm_tc ()) in
  check_bool "vec disabled" false plan.Plan.vec_enabled;
  let widened, moves = Plan.vec_counts plan.Plan.body in
  check_int "nothing widened" 0 widened;
  check_bool "moves still counted" true (moves > 0);
  let _, refused = verdict_counts plan in
  check_bool "refusals say disabled" true (refused "disabled" >= moves);
  Plan.iter_atomics
    (fun a ->
      check_int ("scalar width: " ^ a.Plan.a_label) 1 a.Plan.a_vec_width;
      check_bool ("no fastcopy: " ^ a.Plan.a_label) false a.Plan.a_fastcopy)
    plan.Plan.body

let test_widened_fraction_nonzero () =
  (* The acceptance rows: GEMM and FMHA must widen a nonzero fraction of
     their global ld/st traffic. *)
  List.iter
    (fun name ->
      let f = Corpus.find name in
      let kernel = f.Corpus.build () in
      let plan = Pipeline.lower ~vectorize:true f.Corpus.arch kernel in
      let args =
        List.map
          (fun (p : Ts.t) ->
            (p.Ts.name, Array.make (L.cosize p.Ts.layout) 0.0))
          kernel.Spec.params
      in
      let c = Interp.run_plan plan ~args () in
      check_bool (name ^ ": widened global requests") true
        (c.C.global_vec_requests > 0);
      check_bool (name ^ ": widened global bytes") true
        (c.C.global_vec_bytes > 0))
    [ "gemm-tc sm86"; "fmha sm86" ]

(* ----- verdict pinning -----

   The layout-algebra refactor must not move a single verdict: this bakes
   an MD5 over every atomic's label, verdict, width, fastcopy flag,
   per-view verdicts and bank lint, for every kernel family. Any change to
   a vectorize verdict or refusal reason — even one that keeps the counts
   above intact — changes a digest here. *)

let verdict_fingerprint plan =
  let b = Buffer.create 4096 in
  Plan.iter_atomics
    (fun a ->
      Buffer.add_string b
        (Printf.sprintf "%s|%s|w%d|fc%b" a.Plan.a_label
           (V.verdict_to_string a.Plan.a_vec)
           a.Plan.a_vec_width a.Plan.a_fastcopy);
      List.iter
        (fun v -> Buffer.add_string b ("|i:" ^ V.verdict_to_string v.Plan.v_vec))
        a.Plan.a_ins;
      List.iter
        (fun v -> Buffer.add_string b ("|o:" ^ V.verdict_to_string v.Plan.v_vec))
        a.Plan.a_outs;
      List.iter
        (fun (n, c) -> Buffer.add_string b (Printf.sprintf "|bank:%s=%d" n c))
        a.Plan.a_banks;
      Buffer.add_char b '\n')
    plan.Plan.body;
  Buffer.contents b

(* One pin per corpus family, in corpus order. *)
let pinned_verdicts =
  [ ("gemm-tc sm86", "11cee5f5804cb97d2823e40b3ada7f0f", 8)
  ; ("gemm-tc sm70", "4a1ca6ca39d1a23a15db41a651ed466d", 10)
  ; ("gemm-tc k=96 sm86", "11cee5f5804cb97d2823e40b3ada7f0f", 8)
  ; ("gemm-layouts sm86", "46d9aea5c4b28c7c663f08744e969c16", 8)
  ; ("split-k partial sm86", "541b87cd88f2f3ea7c12da7a58b9c992", 7)
  ; ("gemm-naive", "30fb9b8e7f79f51502ee141f4c2f82c9", 1)
  ; ("gemm-parametric", "30fb9b8e7f79f51502ee141f4c2f82c9", 1)
  ; ("fmha sm86", "d55702d194f25e05a871e8806e0b5da6", 35)
  ; ("fmha sm70", "3d33313e2ece4165fff0a8ae6b71eca3", 41)
  ; ("lstm", "cc74c065246fa4a8cb9bed64e0b4aff2", 16)
  ; ("mlp", "d7e322ff1a746a1181665502c2af1ef7", 21)
  ; ("layernorm", "bb289be36af0d16a3acb0c63fbe62738", 48)
  ; ("softmax", "14a3421dd02ea66a6aaeeab6a1e3a5d2", 37)
  ; ("gemm+layernorm", "81ac08d6ead477574f7f4c5f99e0512c", 34)
  ; ("divergent-copy", "e82c1ce22e64f87ef2ccb88ee234bbe5", 4)
  ; ("rotating-shfl", "3e2f33f4c5c23a744b76f1ee82130c59", 3)
  ]

let test_verdict_pin () =
  List.iter2
    (fun (f : Corpus.family) (pname, digest, atomics) ->
      check_str "pin rows match families" f.Corpus.name pname;
      let plan =
        Pipeline.lower ~vectorize:true f.Corpus.arch (f.Corpus.build ())
      in
      let fp = verdict_fingerprint plan in
      check_int (pname ^ ": atomic count") atomics
        (List.length (String.split_on_char '\n' fp) - 1);
      check_str (pname ^ ": verdict digest") digest
        (Digest.to_hex (Digest.string fp)))
    Corpus.families pinned_verdicts

(* ----- hand-computed request and sector accounting ----- *)

let test_record_requests () =
  let c = C.create () in
  (* 8 fp16 elements per thread at width 4 across a full 32-lane warp:
     two v4 requests carrying 32 lanes x 16 B = 512 B. *)
  C.record_requests c ~global:true ~elems:8 ~width:4 ~bytes:512;
  check_int "v4: global_requests" 2 c.C.global_requests;
  check_int "v4: global_vec_requests" 2 c.C.global_vec_requests;
  check_int "v4: global_vec_bytes" 512 c.C.global_vec_bytes;
  check_int "v4: shared untouched" 0 c.C.shared_requests;
  (* The same access scalar: eight width-1 requests, nothing vectorized. *)
  C.record_requests c ~global:true ~elems:8 ~width:1 ~bytes:0;
  check_int "scalar: global_requests" 10 c.C.global_requests;
  check_int "scalar: vec unchanged" 2 c.C.global_vec_requests;
  (* Odd element count at width 2 rounds up: ceil(7/2) = 4 requests. *)
  C.record_requests c ~global:false ~elems:7 ~width:2 ~bytes:224;
  check_int "v2: shared_requests" 4 c.C.shared_requests;
  check_int "v2: shared_vec_requests" 4 c.C.shared_vec_requests;
  check_int "v2: shared_vec_bytes" 224 c.C.shared_vec_bytes;
  (* Empty batches record nothing. *)
  C.record_requests c ~global:false ~elems:0 ~width:4 ~bytes:99;
  check_int "empty: no-op" 4 c.C.shared_requests;
  (* merge and reset carry the new fields. *)
  let d = C.create () in
  C.merge d c;
  check_int "merge: global_requests" 10 d.C.global_requests;
  check_int "merge: shared_vec_bytes" 224 d.C.shared_vec_bytes;
  C.reset d;
  check_int "reset: global_requests" 0 d.C.global_requests;
  check_int "reset: shared_vec_requests" 0 d.C.shared_vec_requests

let test_widened_sectors () =
  let sectors ~bytes a = Arch.global_sectors ~bytes a ~len:(Array.length a) in
  (* 2-wide fp16 (4 B/thread), full warp, unit stride: 32 x 4 B = one
     128 B stretch = 4 sectors. *)
  check_int "v2 full warp" 4
    (sectors ~bytes:4 (Array.init 32 (fun l -> l * 4)));
  (* 4-wide fp16 (8 B/thread), full warp: 256 B = 8 sectors. *)
  check_int "v4 full warp" 8
    (sectors ~bytes:8 (Array.init 32 (fun l -> l * 8)));
  (* Broadcast: every lane reads the same 8 B vector inside one sector. *)
  check_int "v4 broadcast" 1
    (sectors ~bytes:8 (Array.init 32 (fun _ -> 64)));
  (* Partial mask: 7 live lanes cover [0, 56) = 2 sectors. *)
  check_int "v4 partial mask" 2
    (sectors ~bytes:8 (Array.init 7 (fun l -> l * 8)));
  (* The recording entry point books bytes * lanes and those sectors. *)
  let c = C.create () in
  C.record_global_batch c ~store:false ~bytes:8
    (Array.init 7 (fun l -> l * 8))
    ~len:7;
  check_int "partial mask: load bytes" 56 c.C.global_load_bytes;
  check_int "partial mask: transactions" 2 c.C.global_transactions

(* ----- bank-conflict lint ----- *)

let test_static_shared_conflicts () =
  (* One fp32 scalar per lane at element stride 32: every lane's word
     lands in bank 0, a 32-way conflict = 31 extra cycles per warp. *)
  let tidx = E.var "threadIdx.x" in
  let conflicted =
    view ~mem:Ms.Shared ~dt:Dt.FP32
      ~offset:(E.mul tidx (E.const 32))
      "s" [ (1, 1) ]
  in
  (match V.static_shared_conflicts ~cta_size:32 conflicted with
  | Some c -> check_int "32-way conflict" 31 c
  | None -> Alcotest.fail "expected a static verdict");
  (match V.static_shared_conflicts ~cta_size:64 conflicted with
  | Some c -> check_int "two warps" 62 c
  | None -> Alcotest.fail "expected a static verdict");
  (* Unit stride is conflict-free. *)
  (match
     V.static_shared_conflicts ~cta_size:32
       (view ~mem:Ms.Shared ~dt:Dt.FP32 ~offset:tidx "s" [ (1, 1) ])
   with
  | Some c -> check_int "conflict-free" 0 c
  | None -> Alcotest.fail "expected a static verdict");
  (* Global views and views with other free variables are not lintable. *)
  check_bool "global not linted" true
    (V.static_shared_conflicts ~cta_size:32 (view "g" [ (8, 1) ]) = None);
  check_bool "loop-dependent not linted" true
    (V.static_shared_conflicts ~cta_size:32
       (view ~mem:Ms.Shared ~offset:(E.var "kk") "s" [ (8, 1) ])
    = None)

let () =
  Alcotest.run "vectorize"
    [ ( "legality"
      , [ Alcotest.test_case "view_cap corpus" `Quick test_view_cap
        ; Alcotest.test_case "gemm-tc verdicts" `Quick test_gemm_verdicts
        ; Alcotest.test_case "divergent refusal" `Quick test_divergent_refusal
        ; Alcotest.test_case "disabled lowering" `Quick test_disabled_lowering
        ] )
    ; ( "bit_identity"
      , [ Alcotest.test_case "widened fraction nonzero" `Quick
            test_widened_fraction_nonzero
        ; Alcotest.test_case "verdict pinning" `Quick test_verdict_pin
        ] )
    ; ( "counters"
      , [ Alcotest.test_case "request accounting" `Quick test_record_requests
        ; Alcotest.test_case "widened sector accounting" `Quick
            test_widened_sectors
        ] )
    ; ( "bank_lint"
      , [ Alcotest.test_case "static shared conflicts" `Quick
            test_static_shared_conflicts
        ] )
    ]
