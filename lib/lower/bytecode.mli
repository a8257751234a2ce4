(** Compatibility shim: [Gpu_sim.Interp.run_plan] executes a plan's
    compiled op tree ({!Plan.op}) directly, and plans have no flattened
    form. The benchmark harness (perfbench/) still reports
    [lower.bytecode_instrs] through these two functions; they go with
    the [Interp.engine] shim when it stops naming them. *)

(** The plan itself. *)
val get : Plan.t -> Plan.t

(** {!Plan.count_ops} of the plan's body: one per op, nested ops
    included — the instruction count the flattened form had. *)
val instruction_count : Plan.t -> int
