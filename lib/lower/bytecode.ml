(* The flatten-to-bytecode stage: Plan.op tree -> one dense int array.

   The compiled-plan op tree is already closure-compiled, but executing
   it still walks a boxed tree — every [List.iter] over a loop body
   allocates a partial application per iteration, and every op dispatch
   chases a constructor. Flattening turns the body into a flat
   instruction array with integer operands: opcodes and operands are
   unboxed ints, structured ops carry their body length in code words
   (so a body is a [pc, pc+len) range, not a list), and every closure
   the executor still needs (loop bounds, branch predicates) sits in a
   dense side pool indexed by operand. The executor (Gpu_sim.Interp)
   then runs a tight tail-recursive [match] over the array.

   Instruction layout (word offsets from the opcode):

     EXEC        0 | a_id
     LOOP        1 | slot lo hi step label body_len | <body>
     BRANCH      2 | cond then_len else_len | <then> <else>
     BRANCH_DIV  3 | cond depth then_len else_len | <then> <else>
     BARRIER     4 |
     FRAME       5 | label body_len | <body>
     FAIL        6 | fail
     COMMIT      7 |
     WAIT        8 | n

   [lo]/[hi]/[step] index [bc_exprs], [cond] indexes [bc_conds],
   [label] indexes [bc_labels], [fail] indexes [bc_fails], [a_id]
   indexes [bc_atomics] (the plan's dense atomic ids, reused verbatim).
   [depth] is the static divergence nesting level of a thread-dependent
   branch: the executor keeps one preallocated taken/not-taken mask pair
   per level, so divergence costs zero allocation at run time. An empty
   else-branch has [else_len = 0] (every op emits at least one word), so
   the executor can preserve the op tree's "skip else only when the else
   body is empty" semantics without a separate flag. *)

module P = Plan

let op_exec = 0
let op_loop = 1
let op_branch = 2
let op_branch_div = 3
let op_barrier = 4
let op_frame = 5
let op_fail = 6
let op_commit = 7
let op_wait = 8

(* ----- builder ----- *)

type builder =
  { mutable code : int array
  ; mutable len : int
  ; mutable exprs : Expr_comp.cexpr list  (* reversed *)
  ; mutable n_exprs : int
  ; mutable conds : (int array -> bool) list  (* reversed *)
  ; mutable n_conds : int
  ; mutable labels : string list  (* reversed *)
  ; mutable n_labels : int
  ; mutable fails : string list  (* reversed *)
  ; mutable n_fails : int
  ; mutable max_depth : int
  }

let push b x =
  if b.len = Array.length b.code then begin
    let code = Array.make (max 64 (2 * b.len)) 0 in
    Array.blit b.code 0 code 0 b.len;
    b.code <- code
  end;
  b.code.(b.len) <- x;
  b.len <- b.len + 1

(* Reserve a length operand to be patched once the body is emitted. *)
let reserve b =
  let at = b.len in
  push b 0;
  at

let add_expr b e =
  b.exprs <- e :: b.exprs;
  b.n_exprs <- b.n_exprs + 1;
  b.n_exprs - 1

let add_cond b c =
  b.conds <- c :: b.conds;
  b.n_conds <- b.n_conds + 1;
  b.n_conds - 1

let add_label b l =
  b.labels <- l :: b.labels;
  b.n_labels <- b.n_labels + 1;
  b.n_labels - 1

let add_fail b m =
  b.fails <- m :: b.fails;
  b.n_fails <- b.n_fails + 1;
  b.n_fails - 1

let rec emit_ops b depth ops = List.iter (emit_op b depth) ops

and emit_op b depth = function
  | P.Atomic_exec a ->
    push b op_exec;
    push b a.P.a_id
  | P.Loop { l_var; l_slot; l_lo; l_hi; l_step; l_body } ->
    push b op_loop;
    push b l_slot;
    push b (add_expr b l_lo);
    push b (add_expr b l_hi);
    push b (add_expr b l_step);
    push b (add_label b l_var);
    let at = reserve b in
    let start = b.len in
    emit_ops b depth l_body;
    b.code.(at) <- b.len - start
  | P.Branch { b_tid_dep = false; b_cond; b_then; b_else } ->
    push b op_branch;
    push b (add_cond b b_cond);
    let t_at = reserve b in
    let e_at = reserve b in
    let t0 = b.len in
    emit_ops b depth b_then;
    b.code.(t_at) <- b.len - t0;
    let e0 = b.len in
    emit_ops b depth b_else;
    b.code.(e_at) <- b.len - e0
  | P.Branch { b_tid_dep = true; b_cond; b_then; b_else } ->
    b.max_depth <- max b.max_depth (depth + 1);
    push b op_branch_div;
    push b (add_cond b b_cond);
    push b depth;
    let t_at = reserve b in
    let e_at = reserve b in
    let t0 = b.len in
    emit_ops b (depth + 1) b_then;
    b.code.(t_at) <- b.len - t0;
    let e0 = b.len in
    emit_ops b (depth + 1) b_else;
    b.code.(e_at) <- b.len - e0
  | P.Barrier -> push b op_barrier
  | P.Commit_group -> push b op_commit
  | P.Wait_group n ->
    push b op_wait;
    push b n
  | P.Frame { f_label; f_body } ->
    push b op_frame;
    push b (add_label b f_label);
    let at = reserve b in
    let start = b.len in
    emit_ops b depth f_body;
    b.code.(at) <- b.len - start
  | P.Fail msg ->
    push b op_fail;
    push b (add_fail b msg)

let rev_array n rev_list =
  let a = Array.of_list rev_list in
  let len = Array.length a in
  assert (len = n);
  (* The list is reversed (last added first); flip in place. *)
  for i = 0 to (len / 2) - 1 do
    let t = a.(i) in
    a.(i) <- a.(len - 1 - i);
    a.(len - 1 - i) <- t
  done;
  a

let of_plan (plan : P.t) : P.bytecode =
  let atomics =
    let acc = ref [] in
    P.iter_atomics (fun a -> acc := a :: !acc) plan.P.body;
    match !acc with
    | [] -> [||]
    | a0 :: _ ->
      let arr = Array.make plan.P.n_atomics a0 in
      List.iter (fun (a : P.atomic) -> arr.(a.P.a_id) <- a) !acc;
      arr
  in
  let b =
    { code = Array.make 64 0
    ; len = 0
    ; exprs = []
    ; n_exprs = 0
    ; conds = []
    ; n_conds = 0
    ; labels = []
    ; n_labels = 0
    ; fails = []
    ; n_fails = 0
    ; max_depth = 0
    }
  in
  emit_ops b 0 plan.P.body;
  { P.bc_code = Array.sub b.code 0 b.len
  ; bc_atomics = atomics
  ; bc_exprs = rev_array b.n_exprs b.exprs
  ; bc_conds = rev_array b.n_conds b.conds
  ; bc_labels = rev_array b.n_labels b.labels
  ; bc_fails = rev_array b.n_fails b.fails
  ; bc_max_depth = b.max_depth
  }

(* Memoized accessor: the pipeline installs the bytecode eagerly, but a
   hand-built or body-rewritten plan (tests) flattens on first demand.
   The build is a pure function of the body, so a racing double build is
   benign — both results are interchangeable and each caller keeps the
   one it read. *)
let get (plan : P.t) : P.bytecode =
  match plan.P.bytecode with
  | Some bc -> bc
  | None ->
    let bc = of_plan plan in
    plan.P.bytecode <- Some bc;
    bc

let install (plan : P.t) = plan.P.bytecode <- Some (of_plan plan)

(* ----- summaries ----- *)

let opcode_name = function
  | 0 -> "exec"
  | 1 -> "loop"
  | 2 -> "branch"
  | 3 -> "branch.div"
  | 4 -> "barrier"
  | 5 -> "frame"
  | 6 -> "fail"
  | 7 -> "commit"
  | 8 -> "wait"
  | _ -> "?"

(* Instruction count and opcode histogram over ALL instructions,
   including those nested in loop/branch/frame bodies. Bodies are
   contiguous and immediately followed by the next instruction, so a
   linear decode from each op's operand end visits every instruction
   exactly once. *)
let histogram (bc : P.bytecode) =
  let counts = Array.make 9 0 in
  let code = bc.P.bc_code in
  let rec walk pc endpc =
    if pc < endpc then begin
      let op = code.(pc) in
      counts.(op) <- counts.(op) + 1;
      match op with
      | 0 (* exec *) -> walk (pc + 2) endpc
      | 1 (* loop *) -> walk (pc + 7) endpc
      | 2 (* branch *) -> walk (pc + 4) endpc
      | 3 (* branch_div *) -> walk (pc + 5) endpc
      | 4 (* barrier *) -> walk (pc + 1) endpc
      | 5 (* frame *) -> walk (pc + 3) endpc
      | 6 (* fail *) -> walk (pc + 2) endpc
      | 7 (* commit *) -> walk (pc + 1) endpc
      | 8 (* wait *) -> walk (pc + 2) endpc
      | _ -> invalid_arg "Bytecode.histogram: corrupt code"
    end
  in
  walk 0 (Array.length code);
  counts

let instruction_count bc = Array.fold_left ( + ) 0 (histogram bc)

(* Run-time scratch the executor preallocates for this bytecode: the
   divergence mask arena (one taken/not-taken word pair per warp per
   nesting level). *)
let arena_bytes ~cta_size (bc : P.bytecode) =
  let nwords = (cta_size + 31) / 32 in
  2 * bc.P.bc_max_depth * nwords * 8

let summary ~cta_size (bc : P.bytecode) =
  let counts = histogram bc in
  let hist =
    String.concat ", "
      (List.filter_map
         (fun op ->
           if counts.(op) = 0 then None
           else Some (Printf.sprintf "%s %d" (opcode_name op) counts.(op)))
         [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ])
  in
  Printf.sprintf
    "bytecode: %d instruction(s) in %d word(s); arena %d B (div depth %d); \
     %s"
    (instruction_count bc)
    (Array.length bc.P.bc_code)
    (arena_bytes ~cta_size bc)
    bc.P.bc_max_depth hist

(* The per-pass render for Pipeline.lower's logging: one line per
   instruction, operands decoded. *)
let listing (bc : P.bytecode) =
  let buf = Buffer.create 256 in
  let code = bc.P.bc_code in
  let rec walk indent pc endpc =
    if pc < endpc then begin
      let line fmt = Printf.ksprintf (fun s ->
          Buffer.add_string buf (String.make (2 * indent) ' ');
          Buffer.add_string buf s;
          Buffer.add_char buf '\n') fmt
      in
      match code.(pc) with
      | 0 ->
        let a = bc.P.bc_atomics.(code.(pc + 1)) in
        line "%04d exec #%d %s" pc a.P.a_id
          a.P.a_instr.Graphene.Atomic.name;
        walk indent (pc + 2) endpc
      | 1 ->
        let len = code.(pc + 6) in
        line "%04d loop %s slot=%d len=%d" pc
          bc.P.bc_labels.(code.(pc + 5))
          code.(pc + 1) len;
        walk (indent + 1) (pc + 7) (pc + 7 + len);
        walk indent (pc + 7 + len) endpc
      | 2 ->
        let tlen = code.(pc + 2) and elen = code.(pc + 3) in
        line "%04d branch then=%d else=%d" pc tlen elen;
        walk (indent + 1) (pc + 4) (pc + 4 + tlen + elen);
        walk indent (pc + 4 + tlen + elen) endpc
      | 3 ->
        let tlen = code.(pc + 3) and elen = code.(pc + 4) in
        line "%04d branch.div depth=%d then=%d else=%d" pc code.(pc + 2) tlen
          elen;
        walk (indent + 1) (pc + 5) (pc + 5 + tlen + elen);
        walk indent (pc + 5 + tlen + elen) endpc
      | 4 ->
        line "%04d barrier" pc;
        walk indent (pc + 1) endpc
      | 5 ->
        let len = code.(pc + 2) in
        line "%04d frame %S len=%d" pc bc.P.bc_labels.(code.(pc + 1)) len;
        walk (indent + 1) (pc + 3) (pc + 3 + len);
        walk indent (pc + 3 + len) endpc
      | 6 ->
        line "%04d fail %S" pc bc.P.bc_fails.(code.(pc + 1));
        walk indent (pc + 2) endpc
      | 7 ->
        line "%04d commit" pc;
        walk indent (pc + 1) endpc
      | 8 ->
        line "%04d wait %d" pc code.(pc + 1);
        walk indent (pc + 2) endpc
      | _ -> invalid_arg "Bytecode.listing: corrupt code"
    end
  in
  walk 0 0 (Array.length code);
  Buffer.contents buf
