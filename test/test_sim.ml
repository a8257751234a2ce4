(* Tests for the GPU simulator: fragment layouts, memory faults, counters
   (coalescing, bank conflicts), interpreter control flow, and the
   static-analysis / interpreter cross-check. *)

module E = Shape.Int_expr
module L = Shape.Layout
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Dt = Gpu_tensor.Dtype
module Ms = Gpu_tensor.Memspace
module B = Graphene.Builder
module Arch = Graphene.Arch
module Sem = Gpu_sim.Semantics
module Counters = Gpu_sim.Counters
module SA = Gpu_sim.Static_analysis
module PM = Gpu_sim.Perf_model

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ----- fragment layouts are bijections ----- *)

let covers_exactly_once ~rows ~cols coords_of_lane ~lanes =
  let seen = Array.make_matrix rows cols 0 in
  for lane = 0 to lanes - 1 do
    Array.iter
      (fun (r, c) -> seen.(r).(c) <- seen.(r).(c) + 1)
      (coords_of_lane lane)
  done;
  Array.for_all (Array.for_all (fun n -> n = 1)) seen

let test_m16n8k16_fragments () =
  check_bool "A covers 16x16" true
    (covers_exactly_once ~rows:16 ~cols:16 Sem.mma_m16n8k16_a_coords ~lanes:32);
  check_bool "B covers 16x8" true
    (covers_exactly_once ~rows:16 ~cols:8 Sem.mma_m16n8k16_b_coords ~lanes:32);
  check_bool "C covers 16x8" true
    (covers_exactly_once ~rows:16 ~cols:8 Sem.mma_m16n8k16_c_coords ~lanes:32)

let test_m8n8k4_fragments () =
  check_bool "A covers 8x4" true
    (covers_exactly_once ~rows:8 ~cols:4 Sem.mma_m8n8k4_a_coords ~lanes:8);
  check_bool "B covers 4x8" true
    (covers_exactly_once ~rows:4 ~cols:8 Sem.mma_m8n8k4_b_coords ~lanes:8);
  check_bool "C covers 8x8" true
    (covers_exactly_once ~rows:8 ~cols:8 Sem.mma_m8n8k4_c_coords ~lanes:8)

let test_ldmatrix_fragments () =
  (* Per 8x8 matrix, the 32 lanes receive 2 values each = 64 values, each
     element exactly twice... no: one matrix serves 32 lanes x 2 = 64 =
     exactly once per element. *)
  check_bool "frag covers 8x8" true
    (covers_exactly_once ~rows:8 ~cols:8 Sem.ldmatrix_frag_coords ~lanes:32)

let test_tile_coords () =
  Alcotest.(check (list (list int)))
    "colex order, m fastest"
    [ [ 0; 0 ]; [ 1; 0 ]; [ 0; 1 ]; [ 1; 1 ] ]
    (List.init 4 (Graphene.Atomic.tile_coords [ 2; 2 ]))

(* ----- counters ----- *)

(* A whole-array warp batch. *)
let sectors ~bytes a = Arch.global_sectors ~bytes a ~len:(Array.length a)
let conflicts ~bytes a = Arch.shared_conflicts ~bytes a ~len:(Array.length a)

let global_batch c ~store ~bytes a =
  Counters.record_global_batch c ~store ~bytes a ~len:(Array.length a)

let shared_batch c ~store ~bytes a =
  Counters.record_shared_batch c ~store ~bytes a ~len:(Array.length a)

let test_coalescing () =
  let c = Counters.create () in
  (* 32 threads each load 4 consecutive bytes from one 128-byte line:
     4 sectors. *)
  global_batch c ~store:false ~bytes:4 (Array.init 32 (fun i -> i * 4));
  check_int "coalesced sectors" 4 c.Counters.global_transactions;
  Counters.reset c;
  (* Strided access: one sector per thread. *)
  global_batch c ~store:false ~bytes:4 (Array.init 32 (fun i -> i * 128));
  check_int "strided sectors" 32 c.Counters.global_transactions

let test_bank_conflicts () =
  let c = Counters.create () in
  (* 32 threads reading consecutive 4-byte words: conflict-free. *)
  shared_batch c ~store:false ~bytes:4 (Array.init 32 (fun i -> i * 4));
  check_int "conflict free" 0 c.Counters.shared_bank_conflicts;
  Counters.reset c;
  (* All threads hit bank 0 with distinct words: 31 extra cycles. *)
  shared_batch c ~store:false ~bytes:4 (Array.init 32 (fun i -> i * 128));
  check_int "32-way conflict" 31 c.Counters.shared_bank_conflicts;
  Counters.reset c;
  (* Broadcast (same word) is free. *)
  shared_batch c ~store:false ~bytes:4 (Array.init 32 (fun _ -> 64));
  check_int "broadcast free" 0 c.Counters.shared_bank_conflicts

let test_global_sector_edges () =
  (* A misaligned 4-byte access straddling a 32-byte boundary touches two
     sectors. *)
  check_int "straddles boundary" 2 (sectors ~bytes:4 [| 30 |]);
  (* A full-warp broadcast of one address coalesces into one sector. *)
  check_int "duplicates coalesce" 1
    (sectors ~bytes:4 (Array.init 32 (fun _ -> 0)));
  (* 16-byte vector loads, fully coalesced: 32 x 16 B = 16 sectors. *)
  check_int "wide coalesced" 16
    (sectors ~bytes:16 (Array.init 32 (fun i -> i * 16)));
  check_int "empty batch" 0 (sectors ~bytes:4 [||]);
  (* record_global_batch books the bytes on the store side only. *)
  let c = Counters.create () in
  global_batch c ~store:true ~bytes:4 (Array.init 32 (fun i -> i * 4));
  check_int "store bytes" 128 c.Counters.global_store_bytes;
  check_int "no load bytes" 0 c.Counters.global_load_bytes;
  check_int "store sectors" 4 c.Counters.global_transactions

let test_shared_broadcast_edges () =
  (* A broadcast word alongside one distinct word in the same bank: only
     the distinct words count, so degree 2 -> 1 extra cycle. *)
  check_int "broadcast + 1 distinct" 1
    (conflicts ~bytes:4 (Array.append [| 128 |] (Array.init 31 (fun _ -> 0))));
  (* Two broadcast groups hitting two different banks are free. *)
  check_int "two broadcasts, two banks" 0
    (conflicts ~bytes:4 (Array.init 32 (fun i -> if i < 16 then 0 else 4)));
  (* All 32 lanes broadcasting one 16-byte vector: every phase reads the
     same four words -> free. *)
  check_int "wide broadcast free" 0
    (conflicts ~bytes:16 (Array.init 32 (fun _ -> 0)));
  (* 8-byte accesses split into phases of 16 lanes; consecutive vectors
     are conflict-free within each phase. *)
  check_int "8-byte phases conflict-free" 0
    (conflicts ~bytes:8 (Array.init 32 (fun i -> i * 8)));
  (* 8-byte accesses where each 16-lane phase hits banks 0-15 twice with
     distinct words: 1 extra cycle per phase, 2 phases. *)
  check_int "8-byte 2-way per phase" 2
    (conflicts ~bytes:8
       (Array.init 32 (fun i -> ((i mod 8) * 8) + (i / 8 * 128))));
  (* record_shared_batch books the bytes on the store side only. *)
  let c = Counters.create () in
  shared_batch c ~store:true ~bytes:4 (Array.init 32 (fun i -> i * 128));
  check_int "store bytes" 128 c.Counters.shared_store_bytes;
  check_int "no load bytes" 0 c.Counters.shared_load_bytes;
  check_int "store conflicts" 31 c.Counters.shared_bank_conflicts

(* The set-based rules [Arch] used before its booking tables, kept as
   the reference the tables must agree with. *)
let ref_global_sectors ~bytes addresses ~len =
  let sectors = Hashtbl.create 16 in
  for i = 0 to len - 1 do
    let a = addresses.(i) in
    let lo = a / 32 and hi = (a + bytes - 1) / 32 in
    for s = lo to hi do
      Hashtbl.replace sectors s ()
    done
  done;
  Hashtbl.length sectors

let ref_shared_conflicts ~bytes addresses ~len =
  let per_phase = max 1 (128 / max 1 bytes) in
  let acc = ref 0 and i = ref 0 in
  while !i < len do
    let stop = min len (!i + per_phase) in
    let words_per_bank = Array.make 32 [] in
    for j = !i to stop - 1 do
      let a = addresses.(j) in
      let lo = a / 4 and hi = (a + bytes - 1) / 4 in
      for w = lo to hi do
        let bank = w mod 32 in
        if not (List.mem w words_per_bank.(bank)) then
          words_per_bank.(bank) <- w :: words_per_bank.(bank)
      done
    done;
    let degree =
      Array.fold_left (fun acc ws -> max acc (List.length ws)) 1 words_per_bank
    in
    acc := !acc + (degree - 1);
    i := stop
  done;
  !acc

(* A warp batch: 0-32 lanes of one access width, spread over one
   128-byte line up to 1 MiB, with repeated addresses and addresses
   straddling a 32-byte sector. The buffer may be longer than [len]. *)
let gen_batch =
  QCheck.Gen.(
    let* bytes = oneofl [ 1; 2; 4; 8; 16; 32; 64; 512 ] in
    let* spread = oneofl [ 128; 4096; 65_536; 1 lsl 20 ] in
    let* len = int_range 0 32 in
    let* extra = int_range 0 3 in
    let* picks = list_repeat (len + extra) (pair (int_range 0 3) nat) in
    let addrs = Array.make (len + extra) 0 in
    List.iteri
      (fun i (kind, r) ->
        addrs.(i) <-
          (match kind with
          | 0 when i > 0 -> addrs.(r mod i)
          | 1 -> (32 * (1 + (r mod (spread / 32)))) - (1 + (r mod 7))
          | _ -> r mod spread))
      picks;
    return (bytes, addrs, len))

let print_batch (bytes, addrs, len) =
  Printf.sprintf "bytes=%d len=%d [%s]" bytes len
    (String.concat ";" (Array.to_list (Array.map string_of_int addrs)))

let prop_booking_tables =
  QCheck.Test.make ~count:2000 ~name:"booking tables match the set-based rules"
    (QCheck.make gen_batch ~print:print_batch)
    (fun (bytes, addrs, len) ->
      Arch.global_sectors ~bytes addrs ~len
      = ref_global_sectors ~bytes addrs ~len
      && Arch.shared_conflicts ~bytes addrs ~len
         = ref_shared_conflicts ~bytes addrs ~len)

let outcome f = match f () with n -> Ok n | exception e -> Error e

let test_booking_negative () =
  (* A negative shared address maps to a negative bank: both
     implementations raise the same exception, at the same batches. *)
  List.iter
    (fun (bytes, addrs) ->
      let len = Array.length addrs in
      let tag = Printf.sprintf "bytes=%d %s" bytes (print_batch (bytes, addrs, len)) in
      check_bool (tag ^ ": conflicts") true
        (outcome (fun () -> Arch.shared_conflicts ~bytes addrs ~len)
        = outcome (fun () -> ref_shared_conflicts ~bytes addrs ~len));
      check_int (tag ^ ": sectors")
        (ref_global_sectors ~bytes addrs ~len)
        (Arch.global_sectors ~bytes addrs ~len))
    [ (4, [| 0; -4 |]); (4, [| -1; 8 |]); (16, [| -128; 0; 64 |])
    ; (2, [| -2 |]); (8, Array.init 32 (fun i -> (i * 8) - 64))
    ];
  check_bool "raises Invalid_argument" true
    (outcome (fun () -> Arch.shared_conflicts ~bytes:4 [| -4 |] ~len:1)
    = Error (Invalid_argument "index out of bounds"))

let test_merge_reset_instr_mix () =
  let a = Counters.create () and b = Counters.create () in
  Counters.add_instr a "mma.m16n8k16";
  Counters.add_instr a "mma.m16n8k16";
  Counters.add_instr a "cp.async.f16x8";
  Counters.add_instr b "mma.m16n8k16";
  Counters.add_instr b "ldmatrix.x4";
  Counters.merge a b;
  Alcotest.(check (list (pair string int)))
    "merged mix sums per-instruction counts"
    [ ("cp.async.f16x8", 1); ("ldmatrix.x4", 1); ("mma.m16n8k16", 3) ]
    (Counters.instr_mix_alist a);
  check_int "merged instruction total" 5 a.Counters.instructions;
  (* merge must leave the source untouched *)
  Alcotest.(check (list (pair string int)))
    "source mix intact"
    [ ("ldmatrix.x4", 1); ("mma.m16n8k16", 1) ]
    (Counters.instr_mix_alist b);
  check_int "source instruction total" 2 b.Counters.instructions;
  Counters.reset a;
  check_int "reset zeroes instructions" 0 a.Counters.instructions;
  Alcotest.(check (list (pair string int)))
    "reset clears the mix" []
    (Counters.instr_mix_alist a);
  (* and a reset counter accumulates from scratch, not from stale entries *)
  Counters.add_instr a "init";
  Alcotest.(check (list (pair string int)))
    "fresh after reset" [ ("init", 1) ]
    (Counters.instr_mix_alist a)

(* ----- memory faults ----- *)

let test_memory_faults () =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.cta "cta" [ 32 ] in
  let thr = Tt.select cta [ B.thread_idx ] in
  let a = Ts.create_rm "A" [ 8 ] Dt.FP32 Ms.Global in
  let r = Ts.create "r" (L.vector 1) Dt.FP32 Ms.Register in
  (* Out-of-bounds: thread 31 reads A[31] of an 8-element buffer. *)
  let kernel =
    B.kernel "oob" ~grid ~cta ~params:[ a ]
      [ Graphene.Spec.Alloc r
      ; B.move ~threads:thr
          ~src:(Ts.select a [ B.thread_idx ])
          ~dst:r ()
      ]
  in
  check_bool "oob faults" true
    (try
       ignore
         (Gpu_sim.Interp.run ~arch:Arch.SM86 kernel
            ~args:[ ("A", Array.make 8 0.0) ]
            ());
       false
     with Gpu_sim.Memory.Fault _ -> true);
  (* Missing argument binding. *)
  check_bool "missing arg faults" true
    (try
       ignore (Gpu_sim.Interp.run ~arch:Arch.SM86 kernel ~args:[] ());
       false
     with Gpu_sim.Memory.Fault _ -> true)

(* ----- warp bodies ----- *)

module Mem = Gpu_sim.Memory
module Interp = Gpu_sim.Interp

(* fp16 operands whose products sum differently in another order:
   along k, exact +-2^30 products (A, B = +-2^15) alternate with tiny
   inexact ones (2^-28 to 2^-14, full mantissas). Where the large ones
   cancel, the tiny ones that were added beside a large partial sum
   keep their rounding error, which fp32 then shows. *)
let cancelling rng ~rows ~cols ~big =
  let sign () = if Random.State.bool rng then 1.0 else -1.0 in
  Array.init (rows * cols) (fun e ->
      if big e then sign () *. 32768.0
      else
        let mant = 1.0 +. (float_of_int (Random.State.int rng 1024) /. 1024.0) in
        sign () *. Float.ldexp mant (if Random.State.bool rng then -14 else 0))

(* One mma instance through [Semantics.exec] on register fragments
   filled per the PTX coordinate functions, against a naive per-cell
   loop: D[i][j] = C[i][j] + A[i][0]*B[0][j] + ... in ascending k, in
   double precision, stored to fp32. Bit for bit. *)
let check_mma_body ~name ~m ~k ~lanes ~a_coords ~b_coords ~c_coords seed =
  let n = 8 in
  let rng = Random.State.make [| seed |] in
  let ma = cancelling rng ~rows:m ~cols:k ~big:(fun e -> e mod k mod 2 = 0)
  and mb = cancelling rng ~rows:k ~cols:n ~big:(fun e -> e / n mod 2 = 0) in
  let mc =
    Array.map (fun x -> Dt.round Dt.FP32 (x *. 0x1p-14))
      (cancelling rng ~rows:m ~cols:n ~big:(fun _ -> false))
  in
  let mem = Mem.of_global (Mem.create_global ()) in
  let frag buf dt coords =
    let per = Array.length (coords 0) in
    let v = Ts.create buf (L.vector per) dt Ms.Register in
    Mem.declare_regs mem buf per;
    (v, per)
  in
  let a, per_a = frag "fa" Dt.FP16 a_coords
  and b, per_b = frag "fb" Dt.FP16 b_coords
  and c, per_c = frag "fc" Dt.FP32 c_coords in
  let file v tid = Mem.lane_buf mem (Mem.resolve mem v) ~tid in
  for lane = 0 to lanes - 1 do
    Array.iteri (fun i (r, col) -> (file a lane).(i) <- ma.((r * k) + col)) (a_coords lane);
    Array.iteri (fun i (r, col) -> (file b lane).(i) <- mb.((r * n) + col)) (b_coords lane);
    Array.iteri (fun i (r, col) -> (file c lane).(i) <- mc.((r * n) + col)) (c_coords lane)
  done;
  let operand v per = Sem.operand v ~by_tid:(fun _ -> Array.init per Fun.id) in
  let threads = Tt.cta "cta" [ lanes ] in
  let spec =
    match B.matmul ~threads ~a ~b ~c () with
    | Graphene.Spec.Spec_stmt s -> s
    | _ -> assert false
  in
  Sem.exec mem
    ~instr:(Option.get (Graphene.Atomic.lookup name))
    ~spec
    ~env:(fun v -> failwith v)
    ~tids:(Array.init lanes Fun.id) ~lanes
    ~ins:[| operand a per_a; operand b per_b |]
    ~outs:[| operand c per_c |];
  let ok = ref true in
  for lane = 0 to lanes - 1 do
    Array.iteri
      (fun i (r, col) ->
        let acc = ref mc.((r * n) + col) in
        for kk = 0 to k - 1 do
          acc := !acc +. (ma.((r * k) + kk) *. mb.((kk * n) + col))
        done;
        let want = Int64.bits_of_float (Dt.round Dt.FP32 !acc) in
        if Int64.bits_of_float (file c lane).(i) <> want then ok := false)
      (c_coords lane)
  done;
  check_bool (Printf.sprintf "%s seed %d: bitwise naive loop" name seed) true !ok

let test_mma_bodies () =
  for seed = 1 to 20 do
    check_mma_body ~name:"mma.m16n8k16" ~m:16 ~k:16 ~lanes:32
      ~a_coords:Sem.mma_m16n8k16_a_coords ~b_coords:Sem.mma_m16n8k16_b_coords
      ~c_coords:Sem.mma_m16n8k16_c_coords seed;
    check_mma_body ~name:"mma.m8n8k4" ~m:8 ~k:4 ~lanes:8
      ~a_coords:Sem.mma_m8n8k4_a_coords ~b_coords:Sem.mma_m8n8k4_b_coords
      ~c_coords:Sem.mma_m8n8k4_c_coords seed
  done

(* Run [kernel] on both executors from the same arguments; return each
   run's outcome (counters or the exception) and final buffers. *)
let both_executors kernel args =
  let plan = Lower.Pipeline.lower Arch.SM86 kernel in
  let run f =
    let args = List.map (fun (n, a) -> (n, Array.copy a)) args in
    let r = match f args with c -> Ok c | exception e -> Error e in
    (r, args)
  in
  ( run (fun args -> Interp.run_plan ~domains:1 plan ~args ())
  , run (fun args -> Interp.run_tree ~arch:Arch.SM86 ~domains:1 kernel ~args ()) )

(* A per-thread store whose lane 5 addresses past the end of its
   buffer: both executors raise the same fault, after lanes 0-4 have
   stored and before any later lane does. *)
let test_move_fault_lane () =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.cta "cta" [ 32 ] in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let a = Ts.create_rm "A" [ 32 ] Dt.FP32 Ms.Global in
  let c = Ts.create_rm "C" [ 32 ] Dt.FP32 Ms.Global in
  let r = Ts.create "r" (L.vector 1) Dt.FP32 Ms.Register in
  (* 1000 for tid = 5 only: (tid + 27) / 32 - (tid + 26) / 32. *)
  let is5 =
    E.sub
      (E.div (E.add tid (E.const 27)) (E.const 32))
      (E.div (E.add tid (E.const 26)) (E.const 32))
  in
  let kernel =
    B.kernel "lane5" ~grid ~cta ~params:[ a; c ]
      [ Graphene.Spec.Alloc r
      ; B.move ~threads:thr ~src:(Ts.select a [ tid ]) ~dst:r ()
      ; B.move ~threads:thr ~src:r
          ~dst:(Ts.select c [ E.add tid (E.mul (E.const 1000) is5) ])
          ()
      ]
  in
  let args =
    [ ("A", Array.init 32 (fun i -> float_of_int (i + 1)))
    ; ("C", Array.make 32 0.0)
    ]
  in
  let (plan_r, plan_args), (tree_r, tree_args) = both_executors kernel args in
  let message = function
    | Error (Mem.Fault m) -> m
    | Error e -> "unexpected " ^ Printexc.to_string e
    | Ok _ -> "no fault"
  in
  Alcotest.(check string) "same fault" (message tree_r) (message plan_r);
  check_bool "it is lane 5's" true
    (String.length (message plan_r) > 0
    && String.equal (message plan_r)
         "view %C: offset 1005 outside buffer C of size 32");
  let landed = Array.init 32 (fun i -> if i < 5 then float_of_int (i + 1) else 0.0) in
  check_bool "plan: lanes 0-4 landed, no later lane" true
    (List.assoc "C" plan_args = landed);
  check_bool "tree: lanes 0-4 landed, no later lane" true
    (List.assoc "C" tree_args = landed)

(* A move left to the generic path — a strided, unwidened load — under
   a thread-dependent branch that leaves both warps partial, after a
   statement every thread runs. *)
let test_partial_warp_move () =
  let grid = Tt.grid "g" [ 2 ] in
  let cta = Tt.cta "cta" [ 64 ] in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let a = Ts.create_rm "A" [ 2 * 64 * 3 ] Dt.FP16 Ms.Global in
  let c = Ts.create_rm "C" [ 2 * 64 ] Dt.FP32 Ms.Global in
  let r = Ts.create "r" (L.vector 1) Dt.FP16 Ms.Register in
  let r32 = Ts.create "r32" (L.vector 1) Dt.FP32 Ms.Register in
  let cell = E.add (E.mul B.block_idx (E.const 64)) tid in
  let kernel =
    B.kernel "partial" ~grid ~cta ~params:[ a; c ]
      [ Graphene.Spec.Alloc r
      ; Graphene.Spec.Alloc r32
      ; B.init ~threads:thr 0.0 ~dst:r32 ()
      ; B.if_
          B.(E.rem tid (E.const 3) <. E.const 2 &&. (tid <. E.const 45))
          [ B.move ~threads:thr ~src:(Ts.select a [ E.mul cell (E.const 3) ]) ~dst:r ()
          ; B.move ~threads:thr ~src:r ~dst:r32 ()
          ; B.move ~threads:thr ~src:r32 ~dst:(Ts.select c [ cell ]) ()
          ]
      ]
  in
  let plan = Lower.Pipeline.lower Arch.SM86 kernel in
  check_bool "no move takes the contiguous fast path" true
    (let fast = ref false in
     Lower.Plan.iter_atomics
       (fun at -> if at.Lower.Plan.a_fastcopy then fast := true)
       plan.Lower.Plan.body;
     not !fast);
  let args =
    [ ("A", Reference.Cpu_ref.random_fp16 ~seed:5 (2 * 64 * 3))
    ; ("C", Array.make (2 * 64) (-1.0))
    ]
  in
  let (plan_r, plan_args), (tree_r, tree_args) = both_executors kernel args in
  (match (plan_r, tree_r) with
  | Ok p, Ok t ->
    Alcotest.(check (option string))
      "counters" None
      (Counters.diff Counters.No_requests t p)
  | _ -> Alcotest.fail "a run raised");
  check_bool "outputs bitwise" true (plan_args = tree_args);
  let c = List.assoc "C" plan_args in
  Array.iteri
    (fun i x ->
      let t = i mod 64 in
      check_bool
        (Printf.sprintf "C[%d] written iff thread %d is active" i t)
        (t mod 3 < 2 && t < 45)
        (x <> -1.0))
    c

(* ----- interpreter control flow ----- *)

let test_divergent_if () =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.cta "cta" [ 32 ] in
  let thr = Tt.select cta [ B.thread_idx ] in
  let a = Ts.create_rm "A" [ 32 ] Dt.FP32 Ms.Global in
  let kernel =
    B.kernel "div" ~grid ~cta ~params:[ a ]
      [ B.if_else
          B.(B.thread_idx <. E.const 10)
          [ B.init ~threads:thr 1.0 ~dst:(Ts.select a [ B.thread_idx ]) () ]
          [ B.init ~threads:thr 2.0 ~dst:(Ts.select a [ B.thread_idx ]) () ]
      ]
  in
  let buf = Array.make 32 0.0 in
  let _ = Gpu_sim.Interp.run ~arch:Arch.SM86 kernel ~args:[ ("A", buf) ] () in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "A[%d]" i)
        (if i < 10 then 1.0 else 2.0)
        v)
    buf

let test_scalar_params_interp () =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.cta "cta" [ 32 ] in
  let thr = Tt.select cta [ B.thread_idx ] in
  let a = Ts.create_rm "A" [ 32 ] Dt.FP32 Ms.Global in
  let kernel =
    B.kernel "loop" ~scalar_params:[ "N" ] ~grid ~cta ~params:[ a ]
      [ B.for_ "i" (E.var "N") (fun _ ->
            [ B.if_ B.(B.thread_idx ==. E.zero)
                [ B.binary ~threads:thr Graphene.Op.Add
                    ~lhs:(Ts.select a [ E.zero ])
                    ~rhs:(Ts.select a [ E.one ])
                    ~dst:(Ts.select a [ E.zero ])
                    ()
                ]
            ])
      ]
  in
  let buf = Array.make 32 0.0 in
  buf.(1) <- 1.0;
  let _ =
    Gpu_sim.Interp.run ~arch:Arch.SM86 kernel ~args:[ ("A", buf) ]
      ~scalars:[ ("N", 7) ] ()
  in
  Alcotest.(check (float 0.0)) "looped N times" 7.0 buf.(0)

(* ----- static analysis vs interpreter cross-check ----- *)

let test_static_matches_interp () =
  let arch = Arch.SM86 in
  let m = 64 and n = 64 and k = 64 in
  let cfg = Kernels.Gemm.test_config arch in
  let kernel =
    Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.bias_relu ~m
      ~n ~k ()
  in
  let totals = SA.of_kernel arch kernel () in
  let a = Reference.Cpu_ref.random_fp16 ~seed:91 (m * k) in
  let b = Reference.Cpu_ref.random_fp16 ~seed:92 (k * n) in
  let bias = Reference.Cpu_ref.random_fp16 ~seed:93 n in
  let c = Array.make (m * n) 0.0 in
  let counters =
    Gpu_sim.Interp.run ~arch kernel
      ~args:[ ("A", a); ("B", b); ("C", c); ("bias", bias) ]
      ()
  in
  check_int "tensor-core flops agree"
    counters.Counters.tensor_core_flops
    (int_of_float totals.SA.tc_flops);
  check_int "global bytes agree"
    (counters.Counters.global_load_bytes + counters.Counters.global_store_bytes)
    (int_of_float totals.SA.global_bytes);
  check_int "instructions agree" counters.Counters.instructions
    (int_of_float totals.SA.instructions)

(* ----- perf model sanity ----- *)

let test_perf_model_monotone () =
  let machine = Gpu_sim.Machine.a6000 in
  let base =
    { SA.zero with
      SA.tc_flops = 1e12
    ; global_bytes = 1e9
    ; blocks = 1000
    ; threads_per_block = 256
    ; param_bytes = 1e8
    }
  in
  let t1 = (PM.of_totals machine base).PM.time_s in
  let t2 =
    (PM.of_totals machine { base with SA.tc_flops = 2e12 }).PM.time_s
  in
  check_bool "more flops, more time" true (t2 > t1);
  (* Launch overhead is a floor. *)
  let tiny = PM.of_totals machine { SA.zero with SA.blocks = 1 } in
  check_bool "launch floor" true
    (tiny.PM.time_s >= machine.Gpu_sim.Machine.kernel_launch_overhead_s)

let test_perf_model_sequence () =
  let machine = Gpu_sim.Machine.v100 in
  let one =
    PM.of_totals machine
      { SA.zero with
        SA.tc_flops = 1e11
      ; blocks = 1000
      ; threads_per_block = 256
      }
  in
  let three = PM.sequence [ one; one; one ] in
  Alcotest.(check (float 1e-9)) "sequence sums" (3.0 *. one.PM.time_s)
    three.PM.time_s

let test_machines () =
  let v = Gpu_sim.Machine.v100 and a = Gpu_sim.Machine.a6000 in
  check_bool "v100 tc peak > 100 TFLOPs" true
    (Gpu_sim.Machine.tc_peak_flops v > 1e14);
  check_bool "a6000 tc peak > v100" true
    (Gpu_sim.Machine.tc_peak_flops a > Gpu_sim.Machine.tc_peak_flops v);
  check_bool "of_arch roundtrip" true
    (Gpu_sim.Machine.of_arch Arch.SM70 == v)

(* ----- block reduce ----- *)

let test_block_reduce () =
  let nthreads = 128 in
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.linear "cta" nthreads Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let warp = Tt.select (Tt.tile cta [ L.tile_spec 32 ]) [ E.div tid (E.const 32) ] in
  let out = Ts.create_rm "Out" [ nthreads ] Dt.FP32 Ms.Global in
  let v, al_v = B.alloc_regs "v" (L.vector 1) Dt.FP32 in
  let tmp, al_t = B.alloc_regs "t" (L.vector 1) Dt.FP32 in
  let parts, al_p = B.alloc_shared "parts" (L.vector (nthreads / 32)) Dt.FP32 in
  let inp = Ts.create_rm "In" [ nthreads ] Dt.FP32 Ms.Global in
  let kernel =
    B.kernel "reduce" ~grid ~cta ~params:[ inp; out ]
      ([ al_v; al_t; al_p
       ; B.move ~threads:thr ~src:(Ts.select inp [ tid ]) ~dst:v ()
       ]
      @ Kernels.Block_reduce.block_reduce ~cta ~warp ~thr ~op:Graphene.Op.Add
          ~value:v ~tmp ~partials:parts ~identity:0.0
      @ [ B.move ~threads:thr ~src:v ~dst:(Ts.select out [ tid ]) () ])
  in
  let input = Array.init nthreads (fun i -> float_of_int (i + 1)) in
  let output = Array.make nthreads 0.0 in
  let _ =
    Gpu_sim.Interp.run ~arch:Arch.SM86 kernel
      ~args:[ ("In", input); ("Out", output) ]
      ()
  in
  let expect = float_of_int (nthreads * (nthreads + 1) / 2) in
  Array.iteri
    (fun i v ->
      Alcotest.(check (float 0.0)) (Printf.sprintf "thread %d" i) expect v)
    output

let test_warp_scan () =
  let nthreads = 64 in
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.linear "cta" nthreads Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let warp = Tt.select (Tt.tile cta [ L.tile_spec 32 ]) [ E.div tid (E.const 32) ] in
  let inp = Ts.create_rm "In" [ nthreads ] Dt.FP32 Ms.Global in
  let out = Ts.create_rm "Out" [ nthreads ] Dt.FP32 Ms.Global in
  let v, al_v = B.alloc_regs "v" (L.vector 1) Dt.FP32 in
  let tmp, al_t = B.alloc_regs "t" (L.vector 1) Dt.FP32 in
  let kernel =
    B.kernel "scan" ~grid ~cta ~params:[ inp; out ]
      ([ al_v; al_t
       ; B.move ~threads:thr ~src:(Ts.select inp [ tid ]) ~dst:v ()
       ]
      @ Kernels.Block_reduce.warp_scan_inclusive ~warp ~op:Graphene.Op.Add
          ~value:v ~tmp ~width:32
      @ [ B.move ~threads:thr ~src:v ~dst:(Ts.select out [ tid ]) () ])
  in
  let input = Array.init nthreads (fun i -> float_of_int ((i mod 7) + 1)) in
  let output = Array.make nthreads 0.0 in
  let _ =
    Gpu_sim.Interp.run ~arch:Arch.SM86 kernel
      ~args:[ ("In", input); ("Out", output) ]
      ()
  in
  (* Inclusive prefix sums, restarting at each warp boundary. *)
  for i = 0 to nthreads - 1 do
    let w = i / 32 in
    let expect = ref 0.0 in
    for j = w * 32 to i do
      expect := !expect +. input.(j)
    done;
    Alcotest.(check (float 0.0)) (Printf.sprintf "lane %d" i) !expect output.(i)
  done

let test_shfl_idx_broadcast () =
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.linear "cta" 32 Tt.Thread in
  let tid = B.thread_idx in
  let thr = Tt.select cta [ tid ] in
  let warp = Tt.select (Tt.tile cta [ L.tile_spec 32 ]) [ E.zero ] in
  let inp = Ts.create_rm "In" [ 32 ] Dt.FP32 Ms.Global in
  let out = Ts.create_rm "Out" [ 32 ] Dt.FP32 Ms.Global in
  let v, al_v = B.alloc_regs "v" (L.vector 1) Dt.FP32 in
  let kernel =
    B.kernel "bcast" ~grid ~cta ~params:[ inp; out ]
      [ al_v
      ; B.move ~threads:thr ~src:(Ts.select inp [ tid ]) ~dst:v ()
      ; B.shfl ~threads:warp (Graphene.Spec.Idx (E.const 5)) ~src:v ~dst:v ()
      ; B.move ~threads:thr ~src:v ~dst:(Ts.select out [ tid ]) ()
      ]
  in
  let input = Array.init 32 (fun i -> float_of_int i) in
  let output = Array.make 32 0.0 in
  let _ =
    Gpu_sim.Interp.run ~arch:Arch.SM86 kernel
      ~args:[ ("In", input); ("Out", output) ]
      ()
  in
  Array.iter (fun x -> Alcotest.(check (float 0.0)) "broadcast lane 5" 5.0 x) output

let test_partial_axis_reduction () =
  (* Reduce a rank-2 register view along each axis. *)
  let grid = Tt.grid "g" [ 1 ] in
  let cta = Tt.cta "cta" [ 1 ] in
  let thr = Tt.select cta [ B.thread_idx ] in
  let inp = Ts.create_rm "In" [ 12 ] Dt.FP32 Ms.Global in
  let out = Ts.create_rm "Out" [ 7 ] Dt.FP32 Ms.Global in
  let x, al_x = B.alloc_regs "x" (L.vector 12) Dt.FP32 in
  let rows, al_r = B.alloc_regs "rows" (L.vector 3) Dt.FP32 in
  let cols, al_c = B.alloc_regs "cols" (L.vector 4) Dt.FP32 in
  (* View the 12 registers as a 3x4 matrix, leftmost fastest. *)
  let x2 =
    Ts.reinterpret x
      ~layout:(L.col_major [ 3; 4 ])
      ~elem:(Ts.Scalar Dt.FP32) ~offset:Shape.Int_expr.zero
  in
  let out_cols =
    Ts.reinterpret out ~layout:(L.vector 4) ~elem:(Ts.Scalar Dt.FP32)
      ~offset:(Shape.Int_expr.const 3)
  in
  let kernel =
    B.kernel "partial_reduce" ~grid ~cta ~params:[ inp; out ]
      [ al_x; al_r; al_c
      ; B.for_ ~unroll:true "v" (Shape.Int_expr.const 3) (fun v ->
            [ B.move ~threads:thr
                ~src:(Ts.select (Ts.tile inp [ L.tile_spec 4 ]) [ v ])
                ~dst:
                  (Ts.reinterpret x ~layout:(L.vector 4)
                     ~elem:(Ts.Scalar Dt.FP32)
                     ~offset:(Shape.Int_expr.mul v (Shape.Int_expr.const 4)))
                ()
            ])
      ; B.init ~threads:thr 0.0 ~dst:rows ()
      ; B.reduction ~label:"sum over axis 1" ~threads:thr Graphene.Op.Add
          ~axes:[ 1 ] ~src:x2 ~dst:rows ()
      ; B.init ~threads:thr 0.0 ~dst:cols ()
      ; B.reduction ~label:"sum over axis 0" ~threads:thr Graphene.Op.Add
          ~axes:[ 0 ] ~src:x2 ~dst:cols ()
      ; B.for_ ~unroll:true "i" (Shape.Int_expr.const 3) (fun i ->
            [ B.move ~threads:thr
                ~src:
                  (Ts.reinterpret rows ~layout:L.empty
                     ~elem:(Ts.Scalar Dt.FP32) ~offset:i)
                ~dst:(Ts.select out [ i ])
                ()
            ])
      ; B.move ~threads:thr ~src:cols ~dst:out_cols ()
      ]
  in
  let input = Array.init 12 (fun i -> float_of_int (i + 1)) in
  let output = Array.make 7 0.0 in
  let _ =
    Gpu_sim.Interp.run ~arch:Arch.SM86 kernel
      ~args:[ ("In", input); ("Out", output) ]
      ()
  in
  (* x2(i,j) = input(i + 3j): row sums over j; col sums over i. *)
  let row_sum i = input.(i) +. input.(i + 3) +. input.(i + 6) +. input.(i + 9) in
  let col_sum j = input.(3 * j) +. input.((3 * j) + 1) +. input.((3 * j) + 2) in
  for i = 0 to 2 do
    Alcotest.(check (float 0.0)) (Printf.sprintf "row %d" i) (row_sum i) output.(i)
  done;
  for j = 0 to 3 do
    Alcotest.(check (float 0.0)) (Printf.sprintf "col %d" j) (col_sum j)
      output.(3 + j)
  done

let test_interp_deterministic () =
  (* Two identical runs produce identical results and identical counters. *)
  let arch = Arch.SM86 in
  let m = 64 and n = 64 and k = 32 in
  let cfg = Kernels.Gemm.test_config arch in
  let kernel =
    Kernels.Gemm.tensor_core arch cfg ~epilogue:Kernels.Epilogue.none ~m ~n ~k ()
  in
  let run () =
    let a = Reference.Cpu_ref.random_fp16 ~seed:101 (m * k) in
    let b = Reference.Cpu_ref.random_fp16 ~seed:102 (k * n) in
    let c = Array.make (m * n) 0.0 in
    let counters =
      Gpu_sim.Interp.run ~arch kernel ~args:[ ("A", a); ("B", b); ("C", c) ] ()
    in
    (c, counters)
  in
  let c1, k1 = run () in
  let c2, k2 = run () in
  check_bool "same results" true (c1 = c2);
  check_int "same instructions" k1.Counters.instructions k2.Counters.instructions;
  check_int "same conflicts" k1.Counters.shared_bank_conflicts
    k2.Counters.shared_bank_conflicts;
  check_int "same transactions" k1.Counters.global_transactions
    k2.Counters.global_transactions

let () =
  Alcotest.run "gpu_sim"
    [ ( "fragment layouts"
      , [ Alcotest.test_case "mma.m16n8k16" `Quick test_m16n8k16_fragments
        ; Alcotest.test_case "mma.m8n8k4" `Quick test_m8n8k4_fragments
        ; Alcotest.test_case "ldmatrix" `Quick test_ldmatrix_fragments
        ; Alcotest.test_case "tile coords" `Quick test_tile_coords
        ] )
    ; ( "counters"
      , [ Alcotest.test_case "coalescing" `Quick test_coalescing
        ; Alcotest.test_case "bank conflicts" `Quick test_bank_conflicts
        ; Alcotest.test_case "sector edge cases" `Quick
            test_global_sector_edges
        ; Alcotest.test_case "broadcast edge cases" `Quick
            test_shared_broadcast_edges
        ; Alcotest.test_case "merge/reset instr mix" `Quick
            test_merge_reset_instr_mix
        ; Alcotest.test_case "negative addresses" `Quick test_booking_negative
        ]
        @ List.map QCheck_alcotest.to_alcotest [ prop_booking_tables ] )
    ; ( "memory"
      , [ Alcotest.test_case "faults" `Quick test_memory_faults ] )
    ; ( "warp bodies"
      , [ Alcotest.test_case "mma vs naive loop" `Quick test_mma_bodies
        ; Alcotest.test_case "fault in lane 5" `Quick test_move_fault_lane
        ; Alcotest.test_case "partial-warp move" `Quick test_partial_warp_move
        ] )
    ; ( "interpreter"
      , [ Alcotest.test_case "divergent if" `Quick test_divergent_if
        ; Alcotest.test_case "scalar params" `Quick test_scalar_params_interp
        ; Alcotest.test_case "block reduce" `Quick test_block_reduce
        ; Alcotest.test_case "warp scan (shfl.up)" `Quick test_warp_scan
        ; Alcotest.test_case "shfl.idx broadcast" `Quick test_shfl_idx_broadcast
        ; Alcotest.test_case "deterministic" `Quick test_interp_deterministic
        ; Alcotest.test_case "partial-axis reduction" `Quick
            test_partial_axis_reduction
        ] )
    ; ( "static analysis"
      , [ Alcotest.test_case "matches interpreter" `Quick
            test_static_matches_interp
        ] )
    ; ( "perf model"
      , [ Alcotest.test_case "monotone" `Quick test_perf_model_monotone
        ; Alcotest.test_case "sequence" `Quick test_perf_model_sequence
        ; Alcotest.test_case "machines" `Quick test_machines
        ] )
    ]
