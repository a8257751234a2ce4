type t =
  | Const of int
  | Var of string
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Mod of t * t
  | Min of t * t
  | Max of t * t

let const n = Const n
let var v = Var v
let zero = Const 0
let one = Const 1

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> x = y
  | Var x, Var y -> String.equal x y
  | Add (a1, a2), Add (b1, b2)
  | Sub (a1, a2), Sub (b1, b2)
  | Mul (a1, a2), Mul (b1, b2)
  | Div (a1, a2), Div (b1, b2)
  | Mod (a1, a2), Mod (b1, b2)
  | Min (a1, a2), Min (b1, b2)
  | Max (a1, a2), Max (b1, b2) -> equal a1 b1 && equal a2 b2
  | (Const _ | Var _ | Add _ | Sub _ | Mul _ | Div _ | Mod _ | Min _ | Max _), _
    -> false

let compare = Stdlib.compare
let is_const = function Const _ -> true | _ -> false
let to_int = function Const n -> Some n | _ -> None

(* [divisible e c]: [true] only when [e] is provably a multiple of [c > 0]. *)
let rec divisible e c =
  match e with
  | Const n -> n mod c = 0
  | Mul (_, Const k) | Mul (Const k, _) -> k mod c = 0
  | Add (a, b) | Sub (a, b) -> divisible a c && divisible b c
  | Var _ | Mul _ | Div _ | Mod _ | Min _ | Max _ -> false

(* [div_exact e c]: [e / c] given [divisible e c]. *)
let rec div_exact e c =
  match e with
  | Const n -> Const (n / c)
  | Mul (x, Const k) when k mod c = 0 ->
    if k / c = 1 then x else Mul (x, Const (k / c))
  | Mul (Const k, x) when k mod c = 0 ->
    if k / c = 1 then x else Mul (Const (k / c), x)
  | Add (a, b) -> Add (div_exact a c, div_exact b c)
  | Sub (a, b) -> Sub (div_exact a c, div_exact b c)
  | Var _ | Mul _ | Div _ | Mod _ | Min _ | Max _ ->
    invalid_arg "Int_expr.div_exact"

(* Syntactically non-negative: no subtraction and no negative constants.
   Needed to justify the (a + b) / c and (a + b) % c splitting rules, which
   are unsound when a subterm can dip below zero. *)
let rec nonneg = function
  | Const n -> n >= 0
  | Var _ -> true
  | Add (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b) | Min (a, b)
  | Max (a, b) -> nonneg a && nonneg b
  | Sub _ -> false

let rec add a b =
  match (a, b) with
  | Const x, Const y -> Const (x + y)
  | Const 0, e | e, Const 0 -> e
  | Add (x, Const c1), Const c2 -> add x (Const (c1 + c2))
  | Const c1, Add (x, Const c2) -> add x (Const (c1 + c2))
  | _ -> Add (a, b)

let sub a b =
  match (a, b) with
  | Const x, Const y -> Const (x - y)
  | e, Const 0 -> e
  | _ when equal a b -> Const 0
  | _ -> Sub (a, b)

let rec mul a b =
  match (a, b) with
  | Const x, Const y -> Const (x * y)
  | Const 0, _ | _, Const 0 -> Const 0
  | Const 1, e | e, Const 1 -> e
  | Mul (x, Const c1), Const c2 -> mul x (Const (c1 * c2))
  | Const c1, Mul (x, Const c2) -> mul x (Const (c1 * c2))
  | _ -> Mul (a, b)

let rec div a b =
  match (a, b) with
  | _, Const 1 -> a
  | Const x, Const y when y <> 0 -> Const (x / y)
  | Const 0, _ -> Const 0
  | _, Const c when c > 0 && divisible a c -> div_exact a c
  (* (x + y) / c = x/c + y/c when x is a multiple of c and y stays in place;
     sound only when both operands are provably non-negative (truncated
     division: a negative multiple can flip the sum's sign). *)
  | Add (x, y), Const c
    when c > 0 && divisible x c && nonneg y && nonneg x ->
    add (div_exact x c) (div y (Const c))
  | Add (x, y), Const c
    when c > 0 && divisible y c && nonneg x && nonneg y ->
    add (div x (Const c)) (div_exact y c)
  | Div (x, Const c1), Const c2 when c1 > 0 && c2 > 0 ->
    Div (x, Const (c1 * c2))
  | _ -> Div (a, b)

let rec rem a b =
  match (a, b) with
  | _, Const 1 -> Const 0
  | Const x, Const y when y <> 0 -> Const (x mod y)
  | Const 0, _ -> Const 0
  | _, Const c when c > 0 && divisible a c -> Const 0
  (* Same soundness condition as the sum split in [div]. *)
  | Add (x, y), Const c
    when c > 0 && divisible x c && nonneg y && nonneg x ->
    rem y (Const c)
  | Add (x, y), Const c
    when c > 0 && divisible y c && nonneg x && nonneg y ->
    rem x (Const c)
  | Mod (x, Const c1), Const c2 when c1 > 0 && c2 > 0 && c1 mod c2 = 0 ->
    rem x (Const c2)
  | _ -> Mod (a, b)

let min_ a b =
  match (a, b) with
  | Const x, Const y -> Const (min x y)
  | _ when equal a b -> a
  | _ -> Min (a, b)

let max_ a b =
  match (a, b) with
  | Const x, Const y -> Const (max x y)
  | _ when equal a b -> a
  | _ -> Max (a, b)

let ceil_div a b =
  match (a, b) with
  | _, Const 1 -> a
  | Const x, Const y when y > 0 -> Const ((x + y - 1) / y)
  | _ -> div (add a (sub b one)) b

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( % ) = rem
end

let rec free_vars_acc acc = function
  | Const _ -> acc
  | Var v -> v :: acc
  | Add (a, b) | Sub (a, b) | Mul (a, b) | Div (a, b) | Mod (a, b)
  | Min (a, b) | Max (a, b) -> free_vars_acc (free_vars_acc acc a) b

let free_vars e = List.sort_uniq String.compare (free_vars_acc [] e)

let rec eval ~env = function
  | Const n -> n
  | Var v -> env v
  | Add (a, b) -> eval ~env a + eval ~env b
  | Sub (a, b) -> eval ~env a - eval ~env b
  | Mul (a, b) -> eval ~env a * eval ~env b
  | Div (a, b) -> eval ~env a / eval ~env b
  | Mod (a, b) -> eval ~env a mod eval ~env b
  | Min (a, b) -> min (eval ~env a) (eval ~env b)
  | Max (a, b) -> max (eval ~env a) (eval ~env b)

let rec subst bindings = function
  | Const n -> Const n
  | Var v -> (
    match List.assoc_opt v bindings with Some e -> e | None -> Var v)
  | Add (a, b) -> add (subst bindings a) (subst bindings b)
  | Sub (a, b) -> sub (subst bindings a) (subst bindings b)
  | Mul (a, b) -> mul (subst bindings a) (subst bindings b)
  | Div (a, b) -> div (subst bindings a) (subst bindings b)
  | Mod (a, b) -> rem (subst bindings a) (subst bindings b)
  | Min (a, b) -> min_ (subst bindings a) (subst bindings b)
  | Max (a, b) -> max_ (subst bindings a) (subst bindings b)

type range = { lo : int option; hi : int option }

let range_of_const n = { lo = Some n; hi = Some n }
let unbounded_nonneg = { lo = Some 0; hi = None }

(* Interval arithmetic on optional bounds; [None] means unbounded on that
   side. We only need soundness, not precision. *)
let bound_add a b =
  match (a, b) with Some x, Some y -> Some (x + y) | _ -> None

let bound_neg = function Some x -> Some (-x) | None -> None

let range_add a b = { lo = bound_add a.lo b.lo; hi = bound_add a.hi b.hi }

let range_sub a b =
  { lo = bound_add a.lo (bound_neg b.hi); hi = bound_add a.hi (bound_neg b.lo) }

let range_mul a b =
  (* Precise only for provably non-negative operands. *)
  match (a.lo, b.lo) with
  | Some alo, Some blo when alo >= 0 && blo >= 0 ->
    { lo = Some (alo * blo)
    ; hi =
        (match (a.hi, b.hi) with
        | Some ahi, Some bhi -> Some (ahi * bhi)
        | _ -> None)
    }
  | _ -> { lo = None; hi = None }

let range_div a b =
  match (a.lo, b.lo) with
  | Some alo, Some blo when alo >= 0 && blo >= 1 ->
    { lo =
        (match b.hi with Some bhi -> Some (alo / bhi) | None -> Some 0)
    ; hi =
        (match a.hi with Some ahi -> Some (ahi / blo) | None -> None)
    }
  | _ -> { lo = None; hi = None }

let range_mod a b =
  match (a.lo, b.lo) with
  | Some alo, Some blo when alo >= 0 && blo >= 1 -> (
    match (a.hi, b.hi) with
    | Some ahi, _ when ahi < blo ->
      (* The dividend is always smaller than the divisor. *)
      { lo = Some alo; hi = Some ahi }
    | _, Some bhi -> { lo = Some 0; hi = Some (bhi - 1) }
    | _, None -> { lo = Some 0; hi = a.hi })
  | _ -> { lo = None; hi = None }

let range_min a b =
  { lo =
      (match (a.lo, b.lo) with
      | Some x, Some y -> Some (min x y)
      | _ -> None)
  ; hi =
      (match (a.hi, b.hi) with
      | Some x, Some y -> Some (min x y)
      | Some x, None | None, Some x -> Some x
      | None, None -> None)
  }

let range_max a b =
  { lo =
      (match (a.lo, b.lo) with
      | Some x, Some y -> Some (max x y)
      | Some x, None | None, Some x -> Some x
      | None, None -> None)
  ; hi =
      (match (a.hi, b.hi) with
      | Some x, Some y -> Some (max x y)
      | _ -> None)
  }

let range ?(bounds = fun _ -> None) e =
  let rec go = function
    | Const n -> range_of_const n
    | Var v -> (
      match bounds v with Some r -> r | None -> unbounded_nonneg)
    | Add (a, b) -> range_add (go a) (go b)
    | Sub (a, b) -> range_sub (go a) (go b)
    | Mul (a, b) -> range_mul (go a) (go b)
    | Div (a, b) -> range_div (go a) (go b)
    | Mod (a, b) -> range_mod (go a) (go b)
    | Min (a, b) -> range_min (go a) (go b)
    | Max (a, b) -> range_max (go a) (go b)
  in
  go e

let simplify ?(bounds = fun _ -> None) e =
  let rng e = range ~bounds e in
  let lt_range a b =
    (* [true] when [a < b] is provable from ranges. *)
    match ((rng a).hi, (rng b).lo) with
    | Some ahi, Some blo -> ahi < blo
    | _ -> false
  in
  let nonneg a = match (rng a).lo with Some lo -> lo >= 0 | None -> false in
  let rec go e =
    match e with
    | Const _ | Var _ -> e
    | Add (a, b) -> add (go a) (go b)
    | Sub (a, b) -> sub (go a) (go b)
    | Mul (a, b) -> mul (go a) (go b)
    | Div (a, b) ->
      let a = go a and b = go b in
      (* a / b = 0 when 0 <= a < b, e.g. M / 256 with M < 256. *)
      if nonneg a && lt_range a b then Const 0 else div a b
    | Mod (a, b) ->
      let a = go a and b = go b in
      (* a % b = a when 0 <= a < b: the paper's M % 256 --> M rule. *)
      if nonneg a && lt_range a b then a else rem a b
    | Min (a, b) ->
      let a = go a and b = go b in
      if lt_range a b then a else if lt_range b a then b else min_ a b
    | Max (a, b) ->
      let a = go a and b = go b in
      if lt_range a b then b else if lt_range b a then a else max_ a b
  in
  go e

(* Precedence levels for C-style printing: higher binds tighter. *)
let prec = function
  | Const _ | Var _ | Min _ | Max _ -> 3
  | Mul _ | Div _ | Mod _ -> 2
  | Add _ | Sub _ -> 1

let rec pp_prec p fmt e =
  let q = prec e in
  let paren = q < p in
  if paren then Format.fprintf fmt "(";
  (match e with
  | Const n -> Format.fprintf fmt "%d" n
  | Var v -> Format.fprintf fmt "%s" v
  | Add (a, b) -> Format.fprintf fmt "%a + %a" (pp_prec 1) a (pp_prec 2) b
  | Sub (a, b) -> Format.fprintf fmt "%a - %a" (pp_prec 1) a (pp_prec 2) b
  | Mul (a, b) -> Format.fprintf fmt "%a * %a" (pp_prec 2) a (pp_prec 3) b
  | Div (a, b) -> Format.fprintf fmt "%a / %a" (pp_prec 2) a (pp_prec 3) b
  | Mod (a, b) -> Format.fprintf fmt "%a %% %a" (pp_prec 2) a (pp_prec 3) b
  | Min (a, b) -> Format.fprintf fmt "min(%a, %a)" (pp_prec 0) a (pp_prec 0) b
  | Max (a, b) -> Format.fprintf fmt "max(%a, %a)" (pp_prec 0) a (pp_prec 0) b);
  if paren then Format.fprintf fmt ")"

let pp fmt e = pp_prec 0 fmt e
let to_string e = Format.asprintf "%a" pp e

let to_int_exn e =
  match e with
  | Const n -> n
  | _ -> invalid_arg (Printf.sprintf "Int_expr.to_int_exn: %s" (to_string e))
