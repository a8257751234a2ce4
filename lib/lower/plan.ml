(* The execution-plan IR: what a [Spec.kernel] lowers to, once, before the
   simulator runs it many times.

   A plan is a flat tree of four-plus-two ops — [Loop], [Branch],
   [Atomic_exec], [Barrier], plus [Frame] (profiler attribution for a
   labeled decomposition) and [Fail] (a lowering-time diagnosis whose
   error the interpreter must raise only if control flow reaches it, to
   keep the tree path's lazy error semantics). Every symbolic quantity is
   already compiled: loop bounds and predicates are closures, each leaf
   spec carries its matched instruction, precomputed cost, and compiled
   per-view offset enumerations — each marked per-lane when it reads
   threadIdx.x, so the executor knows which views to enumerate per lane
   and which once per call, and lane-split where its thread-dependent
   part can be tabulated once per launch. *)

module Ts = Gpu_tensor.Tensor
module Ms = Gpu_tensor.Memspace
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic

type view =
  { v_ts : Ts.t  (** the source view (for semantics dispatch / fallback) *)
  ; v_mem : Ms.t
  ; v_elt_bytes : int
  ; v_batch_bytes : int  (** bytes per thread per access batch *)
  ; v_offsets : Expr_comp.cview
  ; v_addr0 : Expr_comp.cexpr
        (** first scalar offset only ([Expr_comp.no_addr] when empty) —
            what address batching needs, without the full enumeration *)
  ; v_per_lane : bool
        (** [v_offsets] reads threadIdx.x: enumerated per lane, not once
            per call *)
  ; v_lanes : Expr_comp.view_lanes option
        (** the per-lane offset split into a uniform and a lane part *)
  ; v_vec : Vectorize.verdict
        (** this view's own widening capability (diagnostics) *)
  ; v_vec_width : int
        (** executed vector width: the enclosing atomic's width (1 =
            scalar) — what transaction accounting must charge *)
  }

(* How an atomic's threads form instances: one per active thread, or
   groups found by a compiled member function. A collective always has
   one, so the executor never meets a collective it cannot group. *)
type threads =
  | Per_thread
  | Collective of
      { members : int array -> int -> int array
            (** probing tid -> sorted member ids *)
      ; members_slots : int array
            (** slots of the blockIdx.x and loop counters [members] reads *)
      }

type atomic =
  { a_id : int  (** dense plan-wide id, indexes the executor's per-atomic state *)
  ; a_spec : Spec.t
  ; a_instr : Atomic.instr  (** resolved exactly once, at lowering *)
  ; a_cost : Atomic.cost
  ; a_dur : int
  ; a_label : string
  ; a_kind : string
  ; a_threads : threads
  ; a_ins : view list
  ; a_outs : view list
  ; a_ld_rows : (Expr_comp.cexpr array array * int) option
        (** compiled per-matrix first-row-byte offsets + element size;
            [None] falls back to the symbolic derivation *)
  ; a_lookup : string -> int option
        (** name -> slot, for symbolic fallbacks (derived views, shfl.idx) *)
  ; a_vec : Vectorize.verdict
        (** the vectorize pass's decision: width, or why it refused *)
  ; a_vec_width : int  (** executed vector width (1 = scalar) *)
  ; a_fastcopy : bool
        (** widened and full-span contiguous on both sides: the executor
            may move each thread's batch as one contiguous copy *)
  ; a_banks : (string * int) list
        (** statically conflicted shared views: (view name, extra
            conflict cycles per CTA-wide batch) *)
  }

type op =
  | Atomic_exec of atomic
  | Loop of
      { l_var : string
      ; l_slot : int
      ; l_lo : Expr_comp.cexpr
      ; l_hi : Expr_comp.cexpr
      ; l_step : Expr_comp.cexpr
      ; l_body : op list
      }
  | Branch of
      { b_cond : int array -> bool
      ; b_guard : Expr_comp.guard option
            (** a divergent branch's guard (none on a uniform branch) *)
      ; b_then : op list
      ; b_else : op list
      }
  | Barrier
  | Commit_group
      (** seal cp.async copies issued since the last commit into one
          in-flight group (possibly empty) on the block's queue *)
  | Wait_group of int
      (** drain oldest committed groups until at most [n] remain *)
  | Frame of { f_label : string; f_body : op list }
  | Fail of string

type alloc = { al_buffer : string; al_mem : Ms.t; al_size : int }

(* What the swpipe pass did to this plan (pl_stages = 1 when nothing
   was pipelined; pl_note carries the per-loop verdict/refusal lines,
   pl_refusals the same refusals structurally — (loop var, reason slug)
   — so schedule search can aggregate them as prune telemetry without
   parsing the note). *)
type pipelining =
  { pl_stages : int
  ; pl_buffers : (string * int) list
  ; pl_stage_bytes : int
  ; pl_queue_bound : int
  ; pl_note : string
  ; pl_refusals : (string * string) list
  }

let unpipelined =
  { pl_stages = 1
  ; pl_buffers = []
  ; pl_stage_bytes = 0
  ; pl_queue_bound = 0
  ; pl_note = "swpipe: off"
  ; pl_refusals = []
  }

type t =
  { kernel : Spec.kernel
  ; arch : Graphene.Arch.t
  ; nslots : int
  ; scalar_slots : (string * int) list
  ; cta_size : int
  ; grid_size : int
  ; allocs : alloc list
  ; body : op list
  ; n_atomics : int  (** total atomic count = executor per-atomic array size *)
  ; lanes : Expr_comp.lanes array
        (** every lane split, by id = the executor's lane tables *)
  ; diagnostics : string list  (** advisory validation findings *)
  ; vec_enabled : bool  (** whether the vectorize pass was allowed to widen *)
  ; pipelining : pipelining
        (** software-pipelining outcome (see {!Swpipe}); [pl_stages = 1]
            means the plan runs single-buffered *)
  }

(* ----- statistics ----- *)

let rec count_ops ops =
  List.fold_left
    (fun acc op ->
      acc
      +
      match op with
      | Atomic_exec _ | Barrier | Commit_group | Wait_group _ | Fail _ -> 1
      | Loop { l_body; _ } -> 1 + count_ops l_body
      | Branch { b_then; b_else; _ } -> 1 + count_ops b_then + count_ops b_else
      | Frame { f_body; _ } -> 1 + count_ops f_body)
    0 ops

let rec count_atomics ops =
  List.fold_left
    (fun acc op ->
      acc
      +
      match op with
      | Atomic_exec _ -> 1
      | Barrier | Commit_group | Wait_group _ | Fail _ -> 0
      | Loop { l_body; _ } -> count_atomics l_body
      | Branch { b_then; b_else; _ } ->
        count_atomics b_then + count_atomics b_else
      | Frame { f_body; _ } -> count_atomics f_body)
    0 ops

let rec divergence_depth ops =
  List.fold_left
    (fun acc op ->
      max acc
        (match op with
        | Atomic_exec _ | Barrier | Commit_group | Wait_group _ | Fail _ -> 0
        | Loop { l_body; _ } -> divergence_depth l_body
        | Branch { b_guard; b_then; b_else; _ } ->
          Bool.to_int (Option.is_some b_guard)
          + max (divergence_depth b_then) (divergence_depth b_else)
        | Frame { f_body; _ } -> divergence_depth f_body))
    0 ops

let rec iter_atomics f ops =
  List.iter
    (fun op ->
      match op with
      | Atomic_exec a -> f a
      | Barrier | Commit_group | Wait_group _ | Fail _ -> ()
      | Loop { l_body; _ } -> iter_atomics f l_body
      | Branch { b_then; b_else; _ } ->
        iter_atomics f b_then;
        iter_atomics f b_else
      | Frame { f_body; _ } -> iter_atomics f f_body)
    ops

(* The atomics widening was conceivable for: moves one thread issues
   alone (a one-thread instruction is exactly a [Per_thread] atomic). *)
let is_per_thread_move (instr : Atomic.instr) (s : Spec.t) =
  instr.Atomic.threads = 1 && s.Spec.kind = Spec.Move

let per_thread_move (a : atomic) = is_per_thread_move a.a_instr a.a_spec

(* Widening statistics: (widened, per-thread move) atomic counts. *)
let vec_counts ops =
  let widened = ref 0 and moves = ref 0 in
  iter_atomics
    (fun a ->
      if per_thread_move a then begin
        incr moves;
        if a.a_vec_width > 1 then incr widened
      end)
    ops;
  (!widened, !moves)

(* Statically flagged bank-conflict warnings: (atomics flagged, total
   extra cycles per CTA-wide batch). *)
let bank_warning_counts ops =
  let atomics = ref 0 and cycles = ref 0 in
  iter_atomics
    (fun a ->
      if a.a_banks <> [] then begin
        incr atomics;
        List.iter (fun (_, c) -> cycles := !cycles + c) a.a_banks
      end)
    ops;
  (!atomics, !cycles)

let batch_bytes (v : Ts.t) =
  let n = try Ts.num_scalars_int v with Invalid_argument _ -> 1 in
  n * Gpu_tensor.Dtype.size_bytes (Ts.dtype v)

(* The widening statistics, one owner for the plan summaries below and
   for the lowering's analysis, which reads the same verdicts before the
   compile pass. Only per-thread moves count (matching [pp_atomic]'s
   verdict display):

   - the refusal histogram, (reason slug, count) sorted by slug, is
     exactly the scalar residue a schedule search should attribute when
     a candidate ranks on narrow traffic;
   - the bytes-weighted mean vector width over their global views is the
     static stand-in for "achieved global access width" the perf model
     consumes, [None] without global move traffic. The weighting is
     structural (per atomic, not per execution), which matches how the
     roofline consumes it: a coarse plan-level width, not a trace. *)
type widening =
  { global_vec_width : float option
  ; vec_refusals : (string * int) list
  }

let widening iter =
  let tbl = Hashtbl.create 8 and bytes = ref 0 and weighted = ref 0 in
  iter (fun (instr : Atomic.instr) (s : Spec.t) verdict ->
      if is_per_thread_move instr s then begin
        let width =
          match verdict with
          | Vectorize.Widened w -> w
          | Vectorize.Refused r ->
            let name = Vectorize.reason_name r in
            Hashtbl.replace tbl name
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name));
            1
        in
        List.iter
          (fun (v : Ts.t) ->
            if Ms.equal v.Ts.mem Ms.Global then begin
              let b = batch_bytes v in
              bytes := !bytes + b;
              weighted := !weighted + (b * width)
            end)
          (s.Spec.ins @ s.Spec.outs)
      end);
  { global_vec_width =
      (if !bytes = 0 then None
       else Some (float_of_int !weighted /. float_of_int !bytes))
  ; vec_refusals =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  }

let plan_widening ops =
  widening (fun visit ->
      iter_atomics (fun a -> visit a.a_instr a.a_spec a.a_vec) ops)

let refusal_histogram ops = (plan_widening ops).vec_refusals
let global_vec_width ops = (plan_widening ops).global_vec_width

(* ----- pretty-printing ----- *)

let pp_view fmt (v : view) =
  Format.fprintf fmt "%%%s[%s,%dB/thread%s%s%s]" v.v_ts.Ts.name
    (Ms.to_ir_string v.v_mem) v.v_batch_bytes
    (if v.v_per_lane then ",per-lane" else "")
    (if Option.is_some v.v_lanes then ",lane-table" else "")
    (if v.v_vec_width > 1 then Printf.sprintf ",v%d" v.v_vec_width else "")

let pp_atomic fmt (a : atomic) =
  Format.fprintf fmt "exec %s  // %s, %s, (%a) -> (%a)"
    a.a_instr.Atomic.name a.a_kind
    (match a.a_threads with
    | Per_thread -> "per-thread"
    | Collective _ ->
      Printf.sprintf "%d-thread collective" a.a_instr.Atomic.threads)
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ", ")
       pp_view)
    a.a_ins
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.fprintf f ", ")
       pp_view)
    a.a_outs;
  (match a.a_vec with
  | Vectorize.Widened w ->
    Format.fprintf fmt "  // vec v%d%s" w
      (if a.a_fastcopy then " contiguous" else "")
  | Vectorize.Refused r ->
    (* Refusal verdicts only where widening was conceivable — per-thread
       moves — so collectives and arithmetic stay uncluttered. *)
    if per_thread_move a then
      Format.fprintf fmt "  // vec scalar: %s" (Vectorize.reason_name r));
  List.iter
    (fun (name, c) ->
      Format.fprintf fmt "  // BANK-CONFLICT %%%s: +%d cycles/batch" name c)
    a.a_banks;
  if String.length a.a_label > 0 then Format.fprintf fmt "  // %s" a.a_label

let branch_tag = function
  | None -> ""
  | Some g when Expr_comp.guard_split g -> " #divergent,lane-table"
  | Some _ -> " #divergent"

let rec pp_op fmt = function
  | Atomic_exec a -> pp_atomic fmt a
  | Loop { l_var; l_slot; l_body; _ } ->
    Format.fprintf fmt "@[<v 2>loop %s (slot %d) {@,%a@]@,}" l_var l_slot
      pp_ops l_body
  | Branch { b_guard; b_then; b_else = []; _ } ->
    Format.fprintf fmt "@[<v 2>branch%s {@,%a@]@,}" (branch_tag b_guard)
      pp_ops b_then
  | Branch { b_guard; b_then; b_else; _ } ->
    Format.fprintf fmt "@[<v 2>branch%s {@,%a@]@,} else {@,%a@,}"
      (branch_tag b_guard) pp_ops b_then pp_ops b_else
  | Barrier -> Format.fprintf fmt "barrier"
  | Commit_group -> Format.fprintf fmt "cp.async.commit_group"
  | Wait_group n -> Format.fprintf fmt "cp.async.wait_group %d" n
  | Frame { f_label; f_body } ->
    Format.fprintf fmt "@[<v 2>frame %S {@,%a@]@,}" f_label pp_ops f_body
  | Fail msg -> (
    match String.index_opt msg '\n' with
    | None -> Format.fprintf fmt "fail %S" msg
    | Some i -> Format.fprintf fmt "fail %S ..." (String.sub msg 0 i))

and pp_ops fmt ops =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_op fmt ops

let pp fmt t =
  Format.fprintf fmt "@[<v>// plan %s on %s@," t.kernel.Spec.name
    (Graphene.Arch.name t.arch);
  Format.fprintf fmt "// grid %d block(s) x cta %d thread(s), %d env slot(s)@,"
    t.grid_size t.cta_size t.nslots;
  (let widened, moves = vec_counts t.body in
   let flagged, cycles = bank_warning_counts t.body in
   Format.fprintf fmt "// vectorize%s: %d of %d per-thread move(s) widened"
     (if t.vec_enabled then "" else " (disabled)")
     widened moves;
   (match global_vec_width t.body with
   | Some w -> Format.fprintf fmt ", mean global width %.2f" w
   | None -> ());
   if flagged > 0 then
     Format.fprintf fmt "; %d atomic(s) bank-conflict flagged (+%d cycles)"
       flagged cycles;
   Format.fprintf fmt "@,");
  if t.scalar_slots <> [] then
    Format.fprintf fmt "// scalar slots: %s@,"
      (String.concat ", "
         (List.map
            (fun (n, s) -> Printf.sprintf "%s=%d" n s)
            t.scalar_slots));
  List.iter
    (fun al ->
      Format.fprintf fmt "alloc %s : %s[%d]@," al.al_buffer
        (Ms.to_ir_string al.al_mem) al.al_size)
    t.allocs;
  if t.pipelining.pl_stages > 1 then
    Format.fprintf fmt "// pipelined: %d stages, %d B/stage, queue bound %d@,"
      t.pipelining.pl_stages t.pipelining.pl_stage_bytes
      t.pipelining.pl_queue_bound;
  if t.diagnostics <> [] then
    List.iter (fun d -> Format.fprintf fmt "// WARN %s@," d) t.diagnostics;
  Format.fprintf fmt "%a@]" pp_ops t.body

let to_string t = Format.asprintf "%a" pp t
