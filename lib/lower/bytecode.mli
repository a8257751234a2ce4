(** The flatten-to-bytecode stage: {!Plan.op} tree -> one dense
    int-tagged instruction array ({!Plan.bytecode}), the form
    [Gpu_sim.Interp]'s fast executor dispatches over. Runs as the final
    pipeline stage after [compile] (see docs/LOWERING.md, "The bytecode
    pass").

    Instruction layout (word offsets after the opcode; body lengths in
    code words, so bodies are [pc, pc+len) ranges):

    {v
    EXEC        0 | a_id
    LOOP        1 | slot lo hi step label body_len | <body>
    BRANCH      2 | cond then_len else_len | <then> <else>
    BRANCH_DIV  3 | cond depth then_len else_len | <then> <else>
    BARRIER     4 |
    FRAME       5 | label body_len | <body>
    FAIL        6 | fail
    COMMIT      7 |
    WAIT        8 | n
    v}

    [depth] is a divergent branch's static nesting level; the executor
    preallocates one taken/not-taken mask pair per level
    ([bc_max_depth] total), so divergence allocates nothing at run
    time. An empty else-branch is exactly [else_len = 0]. *)

val op_exec : int
val op_loop : int
val op_branch : int
val op_branch_div : int
val op_barrier : int
val op_frame : int
val op_fail : int

(** cp.async.commit_group / cp.async.wait_group (see docs/LOWERING.md,
    "The pipelining pass"). *)
val op_commit : int

val op_wait : int

(** Flatten a plan's body. Pure: does not touch [plan.bytecode]. *)
val of_plan : Plan.t -> Plan.bytecode

(** The memoized bytecode of a plan: returns [plan.bytecode] if
    installed, otherwise builds, installs and returns it. The build is a
    pure function of the body, so the benign race between domains is
    harmless — both build the same code. *)
val get : Plan.t -> Plan.bytecode

(** Build and install (the pipeline's bytecode stage). *)
val install : Plan.t -> unit

(** {1 Summaries} (the [graphene lower] listing) *)

val opcode_name : int -> string

(** Instruction counts indexed by opcode (length 9). *)
val histogram : Plan.bytecode -> int array

val instruction_count : Plan.bytecode -> int

(** Bytes of run-time scratch the executor preallocates for this
    bytecode: the divergence mask arena, [2 * max_depth * warps * 8]. *)
val arena_bytes : cta_size:int -> Plan.bytecode -> int

(** One-line summary: instruction count, code words, arena bytes,
    opcode histogram. *)
val summary : cta_size:int -> Plan.bytecode -> string

(** Full decoded listing, one line per instruction. *)
val listing : Plan.bytecode -> string
