(* Slot-dependence analysis of compiled plan quantities.

   Every value the executor evaluates per atomic — a view's offset
   enumeration, a collective's member function — is a closure over the
   slot environment, and the only slots that ever change during a launch
   are threadIdx.x (per lane), the loop counters (per iteration) and
   blockIdx.x (per block); scalar parameters bind once per launch. So the
   free variables of the source expression classify exactly how often the
   compiled value can change:

     Launch   scalars/constants only — once per launch
     Block    reads blockIdx.x       — once per thread block
     Loop     reads a loop counter   — once per iteration of the
                                       innermost mentioned loop
     Thread   reads threadIdx.x      — per lane

   The executor enumerates a Thread view per lane and any other view once
   per call. Only collective member groups are reused across calls: the
   compile pass turns a member function's [d_vars] into slot ids, and the
   groups are reused while those slots (and the active mask) hold the
   values they held when the groups were found. Equal inputs give equal
   outputs, so that reuse is sound by construction. *)

module E = Shape.Int_expr
module L = Shape.Layout
module T = Shape.Int_tuple
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor

type tier = Launch | Block | Loop | Thread

type dep =
  { d_tier : tier
  ; d_vars : string list
      (* the dynamic, non-thread variables read (blockIdx.x first, then
         the enclosing loop binders in name order): for a member function,
         the snapshot key the executor compares before reusing its
         groups *)
  }

let tid = "threadIdx.x"
let bid = "blockIdx.x"

let tier_name = function
  | Launch -> "launch"
  | Block -> "block"
  | Loop -> "loop"
  | Thread -> "thread"

(* [loops] are the enclosing loop binders, innermost first (shadowing
   binders may repeat; the compile pass resolves each name to its
   innermost slot, matching what the closures were compiled against). *)
let of_vars ~loops vars =
  let is_loop v = List.mem v loops in
  let tier =
    if List.mem tid vars then Thread
    else if List.exists is_loop vars then Loop
    else if List.mem bid vars then Block
    else Launch
  in
  let d_vars =
    (if List.mem bid vars then [ bid ] else [])
    @ List.filter (fun l -> List.mem l vars) (List.sort_uniq compare loops)
  in
  { d_tier = tier; d_vars }

let view_dep ~loops (v : Ts.t) = of_vars ~loops (Ts.free_vars v)

(* Thread tensors don't expose free variables directly; derive them from
   the base offset plus every level layout's dimension/stride exprs. *)
let thread_tensor_free_vars (t : Tt.t) =
  let level_vars l =
    List.concat_map E.free_vars (T.flatten (L.dims l))
    @ List.concat_map E.free_vars (T.flatten (L.strides l))
  in
  E.free_vars t.Tt.offset @ List.concat_map level_vars (Tt.levels t)

let members_dep ~loops (t : Tt.t) = of_vars ~loops (thread_tensor_free_vars t)

(* The per-leaf annotation the depcheck pass attaches: one dep per input
   view, one per output view (in spec order), and one for the collective
   member function when the matched instruction is not per-thread. *)
type leaf =
  { ins : dep list
  ; outs : dep list
  ; members : dep option
  }

let of_leaf ~loops (s : Graphene.Spec.t) ~per_thread =
  { ins = List.map (view_dep ~loops) s.Graphene.Spec.ins
  ; outs = List.map (view_dep ~loops) s.Graphene.Spec.outs
  ; members =
      (if per_thread then None
       else Some (members_dep ~loops s.Graphene.Spec.threads))
  }

let pp_dep fmt d =
  match d.d_vars with
  | [] -> Format.pp_print_string fmt (tier_name d.d_tier)
  | vars ->
    Format.fprintf fmt "%s(%s)" (tier_name d.d_tier) (String.concat "," vars)

let dep_to_string d = Format.asprintf "%a" pp_dep d
