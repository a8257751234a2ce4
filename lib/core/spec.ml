module E = Shape.Int_expr
module Ts = Gpu_tensor.Tensor
module Tt = Gpu_tensor.Thread_tensor

type shfl_kind = Bfly of int | Up of int | Down of int | Idx of E.t

type kind =
  | Move
  | Mat_mul
  | Unary_pointwise of Op.unary
  | Binary_pointwise of Op.binary
  | Reduction of { op : Op.binary; axes : int list }
  | Shfl of shfl_kind
  | Init of float
  | Generic of string

type rel = Lt | Le | Eq | Ne | Gt | Ge

type pred =
  | Cmp of rel * E.t * E.t
  | And of pred * pred
  | Or of pred * pred
  | Not of pred

type stmt =
  | Spec_stmt of t
  | For of
      { var : string
      ; lo : E.t
      ; hi : E.t
      ; step : E.t
      ; unroll : bool
      ; body : stmt list
      }
  | If of { cond : pred; then_ : stmt list; else_ : stmt list }
  | Alloc of Ts.t
  | Sync
  | Commit_group
  | Wait_group of int
  | Comment of string

and t =
  { kind : kind
  ; ins : Ts.t list
  ; outs : Ts.t list
  ; threads : Tt.t
  ; decomp : stmt list option
  ; label : string
  }

type kernel =
  { name : string
  ; params : Ts.t list
  ; scalar_params : string list
  ; grid : Tt.t
  ; cta : Tt.t
  ; body : stmt list
  }

let make ?(label = "") ?decomp kind ~ins ~outs ~threads =
  { kind; ins; outs; threads; decomp; label }

let rec fold_specs f acc stmts =
  List.fold_left
    (fun acc stmt ->
      match stmt with
      | Spec_stmt s ->
        let acc = f acc s in
        (match s.decomp with Some body -> fold_specs f acc body | None -> acc)
      | For { body; _ } -> fold_specs f acc body
      | If { then_; else_; _ } -> fold_specs f (fold_specs f acc then_) else_
      | Alloc _ | Sync | Commit_group | Wait_group _ | Comment _ -> acc)
    acc stmts

let rec allocs stmts =
  List.concat_map
    (fun stmt ->
      match stmt with
      | Alloc t -> [ t ]
      | Spec_stmt { decomp = Some body; _ } -> allocs body
      | Spec_stmt { decomp = None; _ } -> []
      | For { body; _ } -> allocs body
      | If { then_; else_; _ } -> allocs then_ @ allocs else_
      | Sync | Commit_group | Wait_group _ | Comment _ -> [])
    stmts

let shfl_name = function
  | Bfly m -> Printf.sprintf "bfly<%d>" m
  | Up d -> Printf.sprintf "up<%d>" d
  | Down d -> Printf.sprintf "down<%d>" d
  | Idx e -> Printf.sprintf "idx<%s>" (E.to_string e)

let kind_name = function
  | Move -> "Move"
  | Mat_mul -> "MatMul"
  | Unary_pointwise op -> Printf.sprintf "UnaryPW<%s>" (Op.unary_name op)
  | Binary_pointwise op -> Printf.sprintf "BinaryPW<%s>" (Op.binary_name op)
  | Reduction { op; axes } ->
    Printf.sprintf "Reduction<%s,[%s]>" (Op.binary_name op)
      (String.concat ";" (List.map string_of_int axes))
  | Shfl k -> Printf.sprintf "Shfl<%s>" (shfl_name k)
  | Init v -> Printf.sprintf "Init<%g>" v
  | Generic name -> Printf.sprintf "Spec<%s>" name

(* ----- predicates ----- *)

let rec pred_mentions var = function
  | Cmp (_, a, b) ->
    List.mem var (E.free_vars a) || List.mem var (E.free_vars b)
  | And (a, b) | Or (a, b) -> pred_mentions var a || pred_mentions var b
  | Not p -> pred_mentions var p

let holds r (x : int) (y : int) =
  match r with
  | Lt -> x < y
  | Le -> x <= y
  | Eq -> x = y
  | Ne -> x <> y
  | Gt -> x > y
  | Ge -> x >= y

let rec eval_pred env = function
  | Cmp (r, a, b) ->
    let x = E.eval ~env a and y = E.eval ~env b in
    holds r x y
  | And (a, b) -> eval_pred env a && eval_pred env b
  | Or (a, b) -> eval_pred env a || eval_pred env b
  | Not p -> not (eval_pred env p)

let rel_string = function
  | Lt -> "<"
  | Le -> "<="
  | Eq -> "=="
  | Ne -> "!="
  | Gt -> ">"
  | Ge -> ">="

let rec pp_pred fmt = function
  | Cmp (r, a, b) ->
    Format.fprintf fmt "%a %s %a" E.pp a (rel_string r) E.pp b
  | And (a, b) -> Format.fprintf fmt "(%a && %a)" pp_pred a pp_pred b
  | Or (a, b) -> Format.fprintf fmt "(%a || %a)" pp_pred a pp_pred b
  | Not p -> Format.fprintf fmt "!(%a)" pp_pred p

let rec pp_stmt fmt = function
  | Spec_stmt s -> pp fmt s
  | For { var; lo; hi; step; unroll; body } ->
    Format.fprintf fmt "@[<v 2>for(%s = %a; %s < %a; %s += %a)%s {@,%a@]@,}"
      var E.pp lo var E.pp hi var E.pp step
      (if unroll then " #unroll" else "")
      pp_body body
  | If { cond; then_; else_ = [] } ->
    Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,}" pp_pred cond pp_body then_
  | If { cond; then_; else_ } ->
    Format.fprintf fmt "@[<v 2>if (%a) {@,%a@]@,} else {@,%a@,}" pp_pred cond
      pp_body then_ pp_body else_
  | Alloc t -> Format.fprintf fmt "Allocate %a" Ts.pp t
  | Sync -> Format.fprintf fmt "__syncthreads()"
  | Commit_group -> Format.fprintf fmt "cp.async.commit_group()"
  | Wait_group n -> Format.fprintf fmt "cp.async.wait_group(%d)" n
  | Comment c -> Format.fprintf fmt "// %s" c

and pp_body fmt stmts =
  Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_stmt fmt stmts

and pp fmt s =
  let pp_views fmt views =
    Format.pp_print_list
      ~pp_sep:(fun f () -> Format.fprintf f ", ")
      (fun f (v : Ts.t) -> Format.fprintf f "%%%s" v.Ts.name)
      fmt views
  in
  Format.fprintf fmt "%s <<<#%s>>> (%a) -> (%a)" (kind_name s.kind)
    s.threads.Tt.name pp_views s.ins pp_views s.outs;
  if String.length s.label > 0 then Format.fprintf fmt "  // %s" s.label;
  match s.decomp with
  | None -> ()
  | Some body ->
    Format.fprintf fmt " {@;<0 2>@[<v>%a@]@,}" pp_body body

let pp_kernel fmt k =
  Format.fprintf fmt "@[<v>// kernel %s@," k.name;
  List.iter (fun p -> Format.fprintf fmt "%a@," Ts.pp p) k.params;
  if k.scalar_params <> [] then
    Format.fprintf fmt "// scalar params: %s@,"
      (String.concat ", " k.scalar_params);
  Format.fprintf fmt "%a@,%a@," Tt.pp k.grid Tt.pp k.cta;
  Format.fprintf fmt "@[<v 2>Spec <<<#%s, #%s>>> {@,%a@]@,}@]"
    k.grid.Tt.name k.cta.Tt.name pp_body k.body

let kernel_to_string k = Format.asprintf "%a" pp_kernel k
