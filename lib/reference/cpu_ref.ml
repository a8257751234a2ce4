module Dt = Gpu_tensor.Dtype

let gemm ~m ~n ~k ?(beta = 0.0) a b c =
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let acc = ref 0.0 in
      for kk = 0 to k - 1 do
        acc := !acc +. (a.((i * k) + kk) *. b.((kk * n) + j))
      done;
      c.((i * n) + j) <- (beta *. c.((i * n) + j)) +. !acc
    done
  done

let bias_add ~rows ~cols x bias =
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      x.((i * cols) + j) <- x.((i * cols) + j) +. bias.(j)
    done
  done

let map_inplace f x =
  for i = 0 to Array.length x - 1 do
    x.(i) <- f x.(i)
  done

let relu = map_inplace (Float.max 0.0)

let gelu =
  map_inplace (fun x ->
      0.5 *. x
      *. (1.0
         +. Float.tanh (0.7978845608028654 *. (x +. (0.044715 *. x *. x *. x)))))

let tanh_ = map_inplace Float.tanh
let sigmoid = map_inplace (fun x -> 1.0 /. (1.0 +. Float.exp (-.x)))

let add_into ~dst src =
  for i = 0 to Array.length dst - 1 do
    dst.(i) <- dst.(i) +. src.(i)
  done

let softmax_rows ~rows ~cols x =
  for i = 0 to rows - 1 do
    let base = i * cols in
    let m = ref Float.neg_infinity in
    for j = 0 to cols - 1 do
      m := Float.max !m x.(base + j)
    done;
    let sum = ref 0.0 in
    for j = 0 to cols - 1 do
      let e = Float.exp (x.(base + j) -. !m) in
      x.(base + j) <- e;
      sum := !sum +. e
    done;
    for j = 0 to cols - 1 do
      x.(base + j) <- x.(base + j) /. !sum
    done
  done

let layernorm ~rows ~cols ?(eps = 1e-5) ~gamma ~beta x =
  for i = 0 to rows - 1 do
    let base = i * cols in
    let mean = ref 0.0 in
    for j = 0 to cols - 1 do
      mean := !mean +. x.(base + j)
    done;
    let mean = !mean /. float_of_int cols in
    let var = ref 0.0 in
    for j = 0 to cols - 1 do
      let d = x.(base + j) -. mean in
      var := !var +. (d *. d)
    done;
    let var = !var /. float_of_int cols in
    let inv = 1.0 /. Float.sqrt (var +. eps) in
    for j = 0 to cols - 1 do
      x.(base + j) <- ((x.(base + j) -. mean) *. inv *. gamma.(j)) +. beta.(j)
    done
  done

let attention ?(causal = false) ~batch ~heads ~seq ~dh q k v =
  let n = seq * dh in
  let out = Array.make (batch * heads * n) 0.0 in
  let scores = Array.make (seq * seq) 0.0 in
  let scale = 1.0 /. Float.sqrt (float_of_int dh) in
  for bh = 0 to (batch * heads) - 1 do
    let off = bh * n in
    for i = 0 to seq - 1 do
      for j = 0 to seq - 1 do
        scores.((i * seq) + j) <-
          (if causal && j > i then Float.neg_infinity
           else begin
             let acc = ref 0.0 in
             for d = 0 to dh - 1 do
               acc :=
                 !acc +. (q.(off + (i * dh) + d) *. k.(off + (j * dh) + d))
             done;
             !acc *. scale
           end)
      done
    done;
    softmax_rows ~rows:seq ~cols:seq scores;
    let o = Array.make n 0.0 in
    gemm ~m:seq ~n:dh ~k:seq scores (Array.sub v off n) o;
    Array.blit o 0 out off n
  done;
  out

let mlp ~m ~width ~layers x w biases =
  let cur = ref (Array.copy x) in
  for l = 0 to layers - 1 do
    let out = Array.make (m * width) 0.0 in
    gemm ~m ~n:width ~k:width !cur
      (Array.sub w (l * width * width) (width * width))
      out;
    bias_add ~rows:m ~cols:width out (Array.sub biases (l * width) width);
    relu out;
    (* The kernel keeps intermediates in fp16 shared memory. *)
    cur := Array.map (Dt.round Dt.FP16) out
  done;
  !cur

let lstm ~m ~n ~k x1 w1 x2 w2 bias =
  let z = Array.make (m * n) 0.0 and z2 = Array.make (m * n) 0.0 in
  gemm ~m ~n ~k x1 w1 z;
  gemm ~m ~n ~k x2 w2 z2;
  add_into ~dst:z z2;
  bias_add ~rows:m ~cols:n z bias;
  relu z;
  z

let allclose ?(rtol = 2e-2) ?(atol = 1e-2) a b =
  Array.length a = Array.length b
  &&
  let ok = ref true in
  Array.iteri
    (fun i x ->
      let y = b.(i) in
      if Float.abs (x -. y) > atol +. (rtol *. Float.max (Float.abs x) (Float.abs y))
      then ok := false)
    a;
  !ok

let random_fp16 ~seed n =
  let st = Random.State.make [| seed |] in
  Array.init n (fun _ -> Dt.round Dt.FP16 ((Random.State.float st 2.0) -. 1.0))
