(* Compatibility shim: plans run as compiled op trees and have no
   flattened form. The benchmark harness (perfbench/) still reports
   [lower.bytecode_instrs] through these two functions; they go with the
   [Interp.engine] shim when it stops naming them. *)

let get (plan : Plan.t) = plan
let instruction_count (plan : Plan.t) = Plan.count_ops plan.Plan.body
