(* Compilation of symbolic index arithmetic to OCaml closures over a dense
   [int array] environment.

   The tree-walking interpreter re-evaluates `Shape.Int_expr` terms — and,
   far more expensively, re-runs `Tensor.scalar_offsets` (substitute,
   simplify, enumerate layout indices, swizzle) — for every thread of
   every loop iteration. Here each expression is compiled once: constants
   fold away, layout levels whose dims/strides are literal get their index
   tables precomputed, and only genuinely variable terms (a loop-dependent
   view offset, say) survive as arithmetic on the slot array.

   An expression the executor evaluates per lane (a per-lane view's
   offset, a side of a divergent guard's comparison) is also split into
   a uniform part, which never reads threadIdx.x, and a lane part, which
   reads only threadIdx.x and scalar parameters: the lane part is then
   tabulated once per launch, and each call adds the uniform part, which
   it evaluates once, to a table entry. *)

module E = Shape.Int_expr
module L = Shape.Layout
module T = Shape.Int_tuple
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor
module Spec = Graphene.Spec

type cexpr = int array -> int
type cview = int array -> int array

(* Evaluate a closed expression now; [None] if it mentions a variable or
   faults (e.g. division by zero) — those stay dynamic so the fault fires
   at execution time, exactly when the tree interpreter would raise it. *)
let const_value e =
  match E.eval ~env:(fun _ -> raise Exit) e with
  | n -> Some n
  | exception _ -> None

let rec compile st scope (e : E.t) : cexpr =
  match const_value e with
  | Some n -> fun _ -> n
  | None -> (
    match e with
    | E.Const n -> fun _ -> n
    | E.Var v -> (
      match List.assoc_opt v scope with
      | Some slot -> fun env -> Array.unsafe_get env slot
      | None ->
        let slot = Slots.scalar_slot st v in
        fun env ->
          let x = Array.unsafe_get env slot in
          if x = Slots.unbound then raise (Slots.Unbound_var v);
          x)
    | E.Add (a, b) ->
      let ca = compile st scope a and cb = compile st scope b in
      fun env -> ca env + cb env
    | E.Sub (a, b) ->
      let ca = compile st scope a and cb = compile st scope b in
      fun env -> ca env - cb env
    | E.Mul (a, b) ->
      let ca = compile st scope a and cb = compile st scope b in
      fun env -> ca env * cb env
    | E.Div (a, b) ->
      let ca = compile st scope a and cb = compile st scope b in
      fun env -> ca env / cb env
    | E.Mod (a, b) ->
      let ca = compile st scope a and cb = compile st scope b in
      fun env -> ca env mod cb env
    | E.Min (a, b) ->
      let ca = compile st scope a and cb = compile st scope b in
      fun env -> Int.min (ca env) (cb env)
    | E.Max (a, b) ->
      let ca = compile st scope a and cb = compile st scope b in
      fun env -> Int.max (ca env) (cb env))

let rec compile_pred st scope (p : Spec.pred) : int array -> bool =
  match p with
  | Spec.Cmp (r, a, b) -> (
    let ca = compile st scope a and cb = compile st scope b in
    match r with
    | Spec.Lt -> fun env -> ca env < cb env
    | Spec.Le -> fun env -> ca env <= cb env
    | Spec.Eq -> fun env -> ca env = cb env
    | Spec.Ne -> fun env -> ca env <> cb env
    | Spec.Gt -> fun env -> ca env > cb env
    | Spec.Ge -> fun env -> ca env >= cb env)
  | Spec.And (a, b) ->
    let pa = compile_pred st scope a and pb = compile_pred st scope b in
    fun env -> pa env && pb env
  | Spec.Or (a, b) ->
    let pa = compile_pred st scope a and pb = compile_pred st scope b in
    fun env -> pa env || pb env
  | Spec.Not p ->
    let pp = compile_pred st scope p in
    fun env -> not (pp env)

(* ----- lane splits -----

   [split_expr scope e] is [Some (u, l)] with [e = u + l] for every
   binding, where [u] never reads threadIdx.x and [l] reads only
   threadIdx.x and scalar parameters (variables outside [scope]). The
   split distributes only [+], [-] and products with a factor that
   reads no threadIdx.x, loop counter or blockIdx.x; those are ring
   operations, so the split is exact in machine integers, overflow
   included. [/], [mod], [min] and [max] stay whole on one side, and a
   term that mixes threadIdx.x with a loop counter or blockIdx.x inside
   one of them does not split ([None]). Terms are built with the raw
   constructors: the smart ones simplify on the assumption that every
   value is non-negative, which a uniform or lane part need not be.

   A faulting subterm of [e] (an unbound scalar, a division by zero)
   lands verbatim in [u] or in [l], so the parts fault exactly when [e]
   does, and [u] evaluates its faulting subterms in [e]'s order. *)
let split_expr scope (e : E.t) =
  let is_tid v = String.equal v "threadIdx.x" in
  let scalar v = not (List.mem_assoc v scope) in
  let zero = E.Const 0 in
  let add a b =
    match (a, b) with E.Const 0, x | x, E.Const 0 -> x | _ -> E.Add (a, b)
  in
  let sub a b = match b with E.Const 0 -> a | _ -> E.Sub (a, b) in
  (* A zero part drops its product, but a zero factor keeps the other
     part, whose faults the product must keep. *)
  let mul part c =
    match part with E.Const 0 -> zero | _ -> E.Mul (part, c)
  in
  let mul_left c part =
    match part with E.Const 0 -> zero | _ -> E.Mul (c, part)
  in
  let both f a b =
    match (a, b) with
    | Some (ua, la), Some (ub, lb) -> Some (f ua ub, f la lb)
    | _ -> None
  in
  let rec go e =
    let vs = E.free_vars e in
    if not (List.exists is_tid vs) then Some (e, zero)
    else if List.for_all (fun v -> is_tid v || scalar v) vs then Some (zero, e)
    else
      match e with
      | E.Add (a, b) -> both add (go a) (go b)
      | E.Sub (a, b) -> both sub (go a) (go b)
      | E.Mul (a, c) when List.for_all scalar (E.free_vars c) ->
        Option.map (fun (u, l) -> (mul u c, mul l c)) (go a)
      | E.Mul (c, a) when List.for_all scalar (E.free_vars c) ->
        Option.map (fun (u, l) -> (mul_left c u, mul_left c l)) (go a)
      | _ -> None
  in
  go e

type lanes =
  { id : int
  ; uniform : cexpr
  ; lane : cexpr
  }

(* A plan's lane splits, numbered densely as they are made; the executor
   tabulates every one of them per block range. *)
type registry =
  { mutable parts : lanes list  (* newest first *)
  ; mutable count : int
  }

let registry () = { parts = []; count = 0 }
let registered r = Array.of_list (List.rev r.parts)

let compile_lanes reg st scope e =
  Option.map
    (fun (u, l) ->
      let p =
        { id = reg.count; uniform = compile st scope u; lane = compile st scope l }
      in
      reg.parts <- p :: reg.parts;
      reg.count <- reg.count + 1;
      p)
    (split_expr scope e)

(* ----- layout levels ----- *)

(* Physical indices of one layout whose leaf (dim, stride) pairs are given
   as integers — the same leftmost-fastest enumeration as
   [Layout.all_indices]. *)
let cartesian_indices ds ss =
  let size = Array.fold_left ( * ) 1 ds in
  let k = Array.length ds in
  Array.init size (fun x ->
      let acc = ref 0 and x = ref x in
      for i = 0 to k - 1 do
        acc := !acc + (!x mod Array.unsafe_get ds i * Array.unsafe_get ss i);
        x := !x / Array.unsafe_get ds i
      done;
      !acc)

type clevel = Static of int array | Dyn of cexpr array * cexpr array

let compile_level st scope (l : L.t) =
  let ds = T.flatten (L.dims l) and ss = T.flatten (L.strides l) in
  let is_const = List.for_all (function E.Const _ -> true | _ -> false) in
  if is_const ds && is_const ss then Static (L.all_indices l)
  else
    Dyn
      ( Array.of_list (List.map (compile st scope) ds)
      , Array.of_list (List.map (compile st scope) ss) )

(* Cartesian sum of per-level index tables, first level outermost and the
   innermost level fastest — [Tensor.scalar_offsets]' enumeration order. *)
let combine_levels levels =
  List.fold_left
    (fun acc level ->
      let la = Array.length acc and lb = Array.length level in
      let out = Array.make (la * lb) 0 in
      for i = 0 to la - 1 do
        let a = Array.unsafe_get acc i in
        for j = 0 to lb - 1 do
          Array.unsafe_set out ((i * lb) + j) (a + Array.unsafe_get level j)
        done
      done;
      out)
    [| 0 |] levels

let eval_level env = function
  | Static a -> a
  | Dyn (ds, ss) ->
    cartesian_indices
      (Array.map (fun c -> c env) ds)
      (Array.map (fun c -> c env) ss)

(* The relative offsets of a view whose levels are all literal. *)
let static_rel levels =
  if List.for_all (function Static _ -> true | Dyn _ -> false) levels then
    Some
      (combine_levels
         (List.map (function Static a -> a | Dyn _ -> assert false) levels))
  else None

(* ----- views ----- *)

let no_addr = min_int

type view_lanes =
  { base : lanes
  ; rel : int array
  ; swizzle : Shape.Swizzle.t
  }

(* The offsets of a literal-layout view at base offset [base]. *)
let offsets_at sw rel base =
  let n = Array.length rel in
  if n = 1 then [| Shape.Swizzle.apply sw (base + Array.unsafe_get rel 0) |]
  else begin
    let out = Array.make n 0 in
    for i = 0 to n - 1 do
      Array.unsafe_set out i
        (Shape.Swizzle.apply sw (base + Array.unsafe_get rel i))
    done;
    out
  end

let view_offsets vl base = offsets_at vl.swizzle vl.rel base

(* A lane-split view enumerates at least one scalar, and the first
   relative offset of a literal layout is the one at all-zero
   coordinates, 0. *)
let view_addr0 vl base = Shape.Swizzle.apply vl.swizzle base

type view_code =
  { offsets : cview
  ; addr0 : cexpr
  ; per_lane : bool
  ; lanes : view_lanes option
  }

(* One view, compiled once: its offsets and its first scalar offset
   share one offset closure and one level table.

   The executor's address-batch accounting only ever reads the FIRST
   scalar offset of a view ([offs.(0) * elt_bytes]); materializing the
   whole enumeration per thread per batch is pure allocation. The first
   enumerated relative offset of every level table is the one at
   all-zero coordinates, i.e. 0 — so the first scalar offset is just the
   swizzled base offset, and only emptiness (a zero-extent level) needs
   the level tables at all. *)
let compile_view ?splits st scope (v : Ts.t) =
  match Ts.free_vars v with
  | [] ->
    (* Fully concrete: one symbolic evaluation at lowering time. *)
    let offs = Ts.scalar_offsets ~env:(fun _ -> 0) v in
    let a0 = if Array.length offs = 0 then no_addr else offs.(0) in
    { offsets = (fun _ -> offs)
    ; addr0 = (fun _ -> a0)
    ; per_lane = false
    ; lanes = None
    }
  | fv -> (
    let offset_c = compile st scope v.Ts.offset in
    let levels = List.map (compile_level st scope) (Ts.levels v) in
    let sw = v.Ts.swizzle in
    let per_lane = List.mem "threadIdx.x" fv in
    match static_rel levels with
    | Some rel ->
      (* Literal layouts under a variable base offset — the common case
         (a tile view selected by loop counters / thread index). *)
      let nonempty = Array.length rel > 0 in
      { offsets = (fun env -> offsets_at sw rel (offset_c env))
      ; addr0 =
          (if nonempty then fun env -> Shape.Swizzle.apply sw (offset_c env)
           else fun _ -> no_addr)
      ; per_lane
      ; lanes =
          (match splits with
          | Some reg when per_lane && nonempty ->
            Option.map
              (fun base -> { base; rel; swizzle = sw })
              (compile_lanes reg st scope v.Ts.offset)
          | _ -> None)
      }
    | None ->
      let static_empty =
        List.exists
          (function Static a -> Array.length a = 0 | Dyn _ -> false)
          levels
      in
      let dyn_dims =
        List.filter_map
          (function Static _ -> None | Dyn (ds, _) -> Some ds)
          levels
      in
      let empty env =
        List.exists
          (fun ds ->
            let p = ref 1 in
            Array.iter (fun c -> p := !p * c env) ds;
            !p = 0)
          dyn_dims
      in
      { offsets =
          (fun env ->
            let base = offset_c env in
            let combined = combine_levels (List.map (eval_level env) levels) in
            Array.map (fun r -> Shape.Swizzle.apply sw (base + r)) combined)
      ; addr0 =
          (if static_empty then fun _ -> no_addr
           else fun env ->
             if empty env then no_addr
             else Shape.Swizzle.apply sw (offset_c env))
      ; per_lane
      ; lanes = None
      })

(* ----- divergent guards ----- *)

type guard =
  | Cmp of Spec.rel * lanes option * lanes option
  | And of guard * guard
  | Or of guard * guard
  | Not of guard

(* The executor reads a guard's tables only when every side has one, so
   the sides are numbered only when every side splits. *)
let compile_guard reg st scope (p : Spec.pred) =
  let rec splits = function
    | Spec.Cmp (_, a, b) ->
      Option.is_some (split_expr scope a) && Option.is_some (split_expr scope b)
    | Spec.And (p, q) | Spec.Or (p, q) -> splits p && splits q
    | Spec.Not p -> splits p
  in
  let all = splits p in
  let side e = if all then compile_lanes reg st scope e else None in
  let rec go = function
    | Spec.Cmp (r, a, b) ->
      let sa = side a in
      Cmp (r, sa, side b)
    | Spec.And (p, q) ->
      let gp = go p in
      And (gp, go q)
    | Spec.Or (p, q) ->
      let gp = go p in
      Or (gp, go q)
    | Spec.Not p -> Not (go p)
  in
  go p

let rec guard_split = function
  | Cmp (_, a, b) -> Option.is_some a && Option.is_some b
  | And (p, q) | Or (p, q) -> guard_split p && guard_split q
  | Not p -> guard_split p

(* Member ids of a thread arrangement, compiled: the [Thread_tensor]
   cartesian enumeration plus the final sort. The closure binds
   [threadIdx.x] itself (slot 0) from the probing thread id. *)
let compile_members st scope (t : Tt.t) : int array -> int -> int array =
  let offset_const = const_value t.Tt.offset in
  let levels = List.map (compile_level st scope) (Tt.levels t) in
  let all_static =
    List.for_all (function Static _ -> true | Dyn _ -> false) levels
  in
  match (offset_const, all_static) with
  | Some base, true ->
    let out =
      combine_levels
        (List.map (function Static a -> a | Dyn _ -> assert false) levels)
    in
    let out = Array.map (fun r -> base + r) out in
    Array.sort Stdlib.compare out;
    fun _ _ -> out
  | _ ->
    let offset_c = compile st scope t.Tt.offset in
    fun env tid ->
      env.(Slots.tid_slot) <- tid;
      let base = offset_c env in
      let combined = combine_levels (List.map (eval_level env) levels) in
      let out = Array.map (fun r -> base + r) combined in
      Array.sort Stdlib.compare out;
      out
