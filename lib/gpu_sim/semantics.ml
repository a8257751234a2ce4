module E = Shape.Int_expr
module Ts = Gpu_tensor.Tensor
module Spec = Graphene.Spec
module Atomic = Graphene.Atomic
module Op = Graphene.Op
module Dt = Gpu_tensor.Dtype

let with_tid env tid v =
  if String.equal v "threadIdx.x" then tid else env v

(* ----- fragment layouts ----- *)

let mma_m16n8k16_a_coords lane =
  let g = lane / 4 and t = lane mod 4 in
  [| (g, 2 * t)
   ; (g, (2 * t) + 1)
   ; (g + 8, 2 * t)
   ; (g + 8, (2 * t) + 1)
   ; (g, (2 * t) + 8)
   ; (g, (2 * t) + 9)
   ; (g + 8, (2 * t) + 8)
   ; (g + 8, (2 * t) + 9)
  |]

let mma_m16n8k16_b_coords lane =
  let g = lane / 4 and t = lane mod 4 in
  [| (2 * t, g); ((2 * t) + 1, g); ((2 * t) + 8, g); ((2 * t) + 9, g) |]

let mma_m16n8k16_c_coords lane =
  let g = lane / 4 and t = lane mod 4 in
  [| (g, 2 * t); (g, (2 * t) + 1); (g + 8, 2 * t); (g + 8, (2 * t) + 1) |]

let ldmatrix_frag_coords lane =
  let g = lane / 4 and t = lane mod 4 in
  [| (g mod 8, 2 * t); (g mod 8, (2 * t) + 1) |]

let mma_m8n8k4_a_coords q =
  Array.init 4 (fun i -> ((4 * (q / 4)) + i, q mod 4))

let mma_m8n8k4_b_coords q =
  Array.init 4 (fun i -> (q mod 4, (4 * (q / 4)) + i))

let mma_m8n8k4_c_coords q =
  Array.init 8 (fun k ->
      let i = k / 4 and j = k mod 4 in
      (((q mod 4) * 2) + i, (4 * (q / 4)) + j))

(* ----- operands ----- *)

type addressing =
  | By_thread
  | Uniform_pending
  | Uniform
  | Contiguous

type operand =
  { view : Ts.t
  ; by_tid : int -> int array
  ; mutable addressing : addressing
  ; mutable offsets : int array
  ; mutable bases : int array
  ; mutable span : int
  }

let operand view ~by_tid =
  { view; by_tid; addressing = By_thread; offsets = [||]; bases = [||]; span = 0 }

(* Element offsets of [op] for thread [tid]. A uniform operand is
   fetched by the first lane that needs it and shared by the rest. *)
let offs op tid =
  match op.addressing with
  | Uniform -> op.offsets
  | By_thread -> op.by_tid tid
  | Uniform_pending ->
    let o = op.by_tid tid in
    op.offsets <- o;
    op.addressing <- Uniform;
    o
  | Contiguous -> invalid_arg "Semantics: contiguous operand has no offsets"

(* Domain-local scratch buffers, grown monotonically: each body's
   intermediate values live here rather than in fresh arrays, and
   parallel block ranges never share one. *)
let scratch_key () = Domain.DLS.new_key (fun () -> ref [||])
let s_move = scratch_key ()
let s_va = scratch_key ()
let s_vb = scratch_key ()
let s_vc = scratch_key ()
let s_out = scratch_key ()
let s_tile = scratch_key ()
let s_ma = scratch_key ()
let s_mb = scratch_key ()
let s_mc = scratch_key ()
let s_md = scratch_key ()
let s_m64 = scratch_key ()
let s_mr = scratch_key ()

let scratch key n =
  let r = Domain.DLS.get key in
  if Array.length !r < n then r := Array.make n 0.0;
  !r

(* ----- helpers ----- *)

let single_io ins outs =
  if Array.length ins = 1 && Array.length outs = 1 then (ins.(0), outs.(0))
  else invalid_arg "Semantics: arity"

(* The detail trace's instruction events: one per collective instance,
   one per lane of a per-thread instruction. [ev] carries the sink, the
   block and the event name, built once per call. *)
let event ev ~lane0 ~lanes =
  match ev with
  | None -> ()
  | Some (tr, block, name) ->
    Trace.instant tr ~name ~cat:"sem" ~pid:block ~tid:(lane0 / 32)
      ~args:[ ("lane0", Json.Int lane0); ("lanes", Json.Int lanes) ]
      ()

(* ----- per-thread instructions -----

   Each body runs one warp: the active [tids.(0 .. lanes-1)], ascending.
   Operand storage is resolved once; each lane then does what one
   thread's instruction does — its reads, length and bounds checks,
   rounding and faults, in that order — before the next lane starts, so
   a fault in lane k leaves lanes 0 to k-1 landed. *)

(* The move family. Contiguous operands (vector-widened full-span
   moves, see {!Lower.Vectorize}) move [span] elements from each lane's
   base without materializing offsets. *)
let exec_move mem ev ~tids ~lanes ins outs =
  let src, dst = single_io ins outs in
  let sb = Memory.resolve mem src.view and db = Memory.resolve mem dst.view in
  match (src.addressing, dst.addressing) with
  | Contiguous, Contiguous ->
    let n = src.span in
    let data = scratch s_move n in
    for l = 0 to lanes - 1 do
      let tid = tids.(l) in
      event ev ~lane0:tid ~lanes:1;
      Memory.load_contig src.view
        (Memory.lane_buf mem sb ~tid)
        ~base:src.bases.(l) ~len:n data ~pos:0;
      Memory.store_contig mem dst.view
        (Memory.lane_buf mem db ~tid)
        ~base:dst.bases.(l) data ~pos:0 ~len:n
    done
  | _ ->
    for l = 0 to lanes - 1 do
      let tid = tids.(l) in
      event ev ~lane0:tid ~lanes:1;
      let so = offs src tid in
      let n = Array.length so in
      let data = scratch s_move n in
      Memory.load src.view (Memory.lane_buf mem sb ~tid) so data ~pos:0;
      let d = offs dst tid in
      Memory.store mem dst.view (Memory.lane_buf mem db ~tid) d data ~pos:0
        ~len:n
    done

(* Deferred cp.async: read every lane's source NOW, into one array the
   warp's copy owns, and stage one write for the warp on the block's
   async queue; it lands lane by lane, in order, when a wait_group
   drains the copy's group. Offset arrays are never mutated once
   produced, so the thunk keeps the destination's by reference. All
   counter accounting happened at issue time, in the interpreter. *)
let exec_cp_async mem ev ~tids ~lanes ins outs =
  let src, dst = single_io ins outs in
  let sb = Memory.resolve mem src.view in
  let v = dst.view in
  let tids = Array.sub tids 0 lanes in
  match (src.addressing, dst.addressing) with
  | Contiguous, Contiguous ->
    let n = src.span in
    let data = Array.make (lanes * n) 0.0 in
    for l = 0 to lanes - 1 do
      let tid = tids.(l) in
      event ev ~lane0:tid ~lanes:1;
      Memory.load_contig src.view
        (Memory.lane_buf mem sb ~tid)
        ~base:src.bases.(l) ~len:n data ~pos:(l * n)
    done;
    let bases = Array.sub dst.bases 0 lanes in
    Memory.async_stage mem (fun () ->
        let db = Memory.resolve mem v in
        for l = 0 to lanes - 1 do
          Memory.store_contig mem v
            (Memory.lane_buf mem db ~tid:tids.(l))
            ~base:bases.(l) data ~pos:(l * n) ~len:n
        done)
  | _ ->
    (* Lane l's values are [data.(starts.(l) .. starts.(l+1) - 1)]. *)
    let starts = Array.make (lanes + 1) 0 in
    let d_offs = Array.make lanes [||] in
    let data = ref [||] in
    for l = 0 to lanes - 1 do
      let tid = tids.(l) in
      event ev ~lane0:tid ~lanes:1;
      let so = offs src tid in
      let n = Array.length so and pos = starts.(l) in
      if Array.length !data < pos + n then begin
        let grown = Array.make (max (pos + n) (lanes * n)) 0.0 in
        Array.blit !data 0 grown 0 pos;
        data := grown
      end;
      Memory.load src.view (Memory.lane_buf mem sb ~tid) so !data ~pos;
      starts.(l + 1) <- pos + n;
      d_offs.(l) <- offs dst tid
    done;
    let data = !data in
    Memory.async_stage mem (fun () ->
        let db = Memory.resolve mem v in
        for l = 0 to lanes - 1 do
          let pos = starts.(l) in
          Memory.store mem v
            (Memory.lane_buf mem db ~tid:tids.(l))
            d_offs.(l) data ~pos ~len:(starts.(l + 1) - pos)
        done)

(* Lane values [v.(0 .. len-1)]: element [i], or the one element of a
   size-1 operand (broadcast). *)
let elem v len i =
  if len = 1 then Array.unsafe_get v 0
  else if i >= len then invalid_arg "index out of bounds"
  else Array.unsafe_get v i

let exec_fma mem ev ~tids ~lanes ins outs =
  if Array.length ins <> 2 || Array.length outs <> 1 then
    invalid_arg "fma arity";
  let a = ins.(0) and b = ins.(1) and c = outs.(0) in
  let ab = Memory.resolve mem a.view
  and bb = Memory.resolve mem b.view
  and cb = Memory.resolve mem c.view in
  for l = 0 to lanes - 1 do
    let tid = tids.(l) in
    event ev ~lane0:tid ~lanes:1;
    let ao = offs a tid in
    let va = scratch s_va (Array.length ao) in
    Memory.load a.view (Memory.lane_buf mem ab ~tid) ao va ~pos:0;
    let bo = offs b tid in
    let vb = scratch s_vb (Array.length bo) in
    Memory.load b.view (Memory.lane_buf mem bb ~tid) bo vb ~pos:0;
    let co = offs c tid in
    let n = Array.length co in
    let vc = scratch s_vc n in
    let cbuf = Memory.lane_buf mem cb ~tid in
    Memory.load c.view cbuf co vc ~pos:0;
    let la = Array.length ao and lb = Array.length bo in
    let vd = scratch s_out n in
    for i = 0 to n - 1 do
      if i >= la || i >= lb then invalid_arg "index out of bounds";
      Array.unsafe_set vd i
        ((Array.unsafe_get va i *. Array.unsafe_get vb i)
        +. Array.unsafe_get vc i)
    done;
    Memory.store mem c.view cbuf co vd ~pos:0 ~len:n
  done

let exec_unary mem ev op ~tids ~lanes ins outs =
  let src, dst = single_io ins outs in
  let sb = Memory.resolve mem src.view and db = Memory.resolve mem dst.view in
  for l = 0 to lanes - 1 do
    let tid = tids.(l) in
    event ev ~lane0:tid ~lanes:1;
    let so = offs src tid in
    let ns = Array.length so in
    let data = scratch s_va ns in
    Memory.load src.view (Memory.lane_buf mem sb ~tid) so data ~pos:0;
    let d = offs dst tid in
    let n = Array.length d in
    let vd = scratch s_out n in
    for i = 0 to n - 1 do
      Array.unsafe_set vd i (Op.eval_unary op (elem data ns i))
    done;
    Memory.store mem dst.view (Memory.lane_buf mem db ~tid) d vd ~pos:0 ~len:n
  done

let exec_binary mem ev op ~tids ~lanes ins outs =
  if Array.length ins <> 2 || Array.length outs <> 1 then
    invalid_arg "binary arity";
  let a = ins.(0) and b = ins.(1) and c = outs.(0) in
  let ab = Memory.resolve mem a.view
  and bb = Memory.resolve mem b.view
  and cb = Memory.resolve mem c.view in
  for l = 0 to lanes - 1 do
    let tid = tids.(l) in
    event ev ~lane0:tid ~lanes:1;
    let ao = offs a tid in
    let la = Array.length ao in
    let va = scratch s_va la in
    Memory.load a.view (Memory.lane_buf mem ab ~tid) ao va ~pos:0;
    let bo = offs b tid in
    let lb = Array.length bo in
    let vb = scratch s_vb lb in
    Memory.load b.view (Memory.lane_buf mem bb ~tid) bo vb ~pos:0;
    (* Size-1 operands broadcast. *)
    let n = Int.max la lb in
    let vd = scratch s_out n in
    for i = 0 to n - 1 do
      Array.unsafe_set vd i (Op.eval_binary op (elem va la i) (elem vb lb i))
    done;
    let co = offs c tid in
    Memory.store mem c.view (Memory.lane_buf mem cb ~tid) co vd ~pos:0 ~len:n
  done

let exec_reduction mem ev op axes ~tids ~lanes ins outs =
  let src, dst = single_io ins outs in
  let sb = Memory.resolve mem src.view and db = Memory.resolve mem dst.view in
  for l = 0 to lanes - 1 do
    let tid = tids.(l) in
    event ev ~lane0:tid ~lanes:1;
    let so = offs src tid in
    let ni = Array.length so in
    let data = scratch s_va ni in
    Memory.load src.view (Memory.lane_buf mem sb ~tid) so data ~pos:0;
    let d = offs dst tid in
    let no = Array.length d in
    let dbuf = Memory.lane_buf mem db ~tid in
    let out = scratch s_out no in
    Memory.load dst.view dbuf d out ~pos:0;
    if no = 1 then begin
      (* Full reduction, accumulating into the destination. *)
      let acc = ref out.(0) in
      for i = 0 to ni - 1 do
        acc := Op.eval_binary op !acc data.(i)
      done;
      out.(0) <- !acc
    end
    else begin
      (* Partial reduction of a rank-2 view along one axis. The view
         enumerates leftmost-fastest: linear = i + rows * j for (i, j). *)
      let red = ni / no in
      match axes with
      | [ 0 ] ->
        (* reduce over the first (fastest) mode: out has extent = #cols *)
        for j = 0 to no - 1 do
          for i = 0 to red - 1 do
            out.(j) <- Op.eval_binary op out.(j) data.((j * red) + i)
          done
        done
      | _ ->
        (* reduce over the trailing mode(s) *)
        for i = 0 to no - 1 do
          for j = 0 to red - 1 do
            out.(i) <- Op.eval_binary op out.(i) data.((j * no) + i)
          done
        done
    end;
    Memory.store mem dst.view dbuf d out ~pos:0 ~len:no
  done

let exec_init mem ev v ~tids ~lanes outs =
  if Array.length outs <> 1 then invalid_arg "init arity";
  let dst = outs.(0) in
  let db = Memory.resolve mem dst.view in
  for l = 0 to lanes - 1 do
    let tid = tids.(l) in
    event ev ~lane0:tid ~lanes:1;
    let d = offs dst tid in
    let n = Array.length d in
    let vd = scratch s_out n in
    Array.fill vd 0 n v;
    Memory.store mem dst.view (Memory.lane_buf mem db ~tid) d vd ~pos:0 ~len:n
  done

(* ----- collective instructions ----- *)

(* [ldmatrix_frag] flattened: lane [l]'s two values come from cells
   [ld_cells.(2l)] and [ld_cells.(2l+1)] of the row-major 8x8 matrix.
   The mapping repeats every 32 lanes. *)
let ld_cells =
  Array.init 64 (fun e ->
      let r, c = (ldmatrix_frag_coords (e / 2)).(e mod 2) in
      (r * 8) + c)

let exec_ldmatrix mem x ~tids ~lanes ins outs =
  let src, dst = single_io ins outs in
  let lane0 = tids.(0) in
  (* The source enumerates its outer tiles slowest and leftmost-fastest —
     the same order as [Atomic.tile_coords] — so the j-th 8x8 matrix is a
     contiguous slice of the full offset enumeration. *)
  let src_offs = offs src lane0 in
  let tiles =
    if Ts.depth src.view > 1 then Shape.Layout.size_int src.view.Ts.layout
    else 1
  in
  let per_tile = Array.length src_offs / tiles in
  let data = scratch s_tile per_tile in
  let m = scratch s_m64 64 in
  let mr = scratch s_mr 64 in
  let pair = scratch s_out 2 in
  let sbuf = Memory.lane_buf mem (Memory.resolve mem src.view) ~tid:lane0 in
  let db = Memory.resolve mem dst.view in
  let dt = Ts.dtype dst.view in
  for j = 0 to x - 1 do
    let t0 = if tiles > 1 then j * per_tile else 0 in
    Memory.load_sub src.view sbuf src_offs ~from:t0 ~len:per_tile data;
    (* 8x8, leftmost (row) fastest: linear = r + 8 * c. Transposed into
       [m] (row-major) before distributing, so a short tile still faults
       before any fragment write. *)
    for c = 0 to 7 do
      for r = 0 to 7 do
        if (c * 8) + r >= per_tile then invalid_arg "index out of bounds";
        m.((r * 8) + c) <- data.((c * 8) + r)
      done
    done;
    (* Distribute fragments per the PTX mapping: the matrix is rounded
       through the destination's element type once, and each lane stores
       its two cells (scalars 2j and 2j+1). A lane whose scalars or
       offsets are out of range goes through [Memory.store_scalars],
       which stores the in-range prefix and raises the lane's fault. *)
    Dt.round_into dt m ~pos:0 mr ~len:64;
    let k = 2 * j in
    for l = 0 to lanes - 1 do
      let tid = tids.(l) in
      let d = offs dst tid in
      let buf = Memory.lane_buf mem db ~tid in
      let cell = 2 * (l land 31) in
      let c0 = ld_cells.(cell) and c1 = ld_cells.(cell + 1) in
      let o0 = if k + 1 < Array.length d then d.(k) else -1
      and o1 = if k + 1 < Array.length d then d.(k + 1) else -1 in
      let n = Array.length buf in
      if o0 >= 0 && o0 < n && o1 >= 0 && o1 < n then begin
        Array.unsafe_set buf o0 (Array.unsafe_get mr c0);
        Array.unsafe_set buf o1 (Array.unsafe_get mr c1)
      end
      else begin
        pair.(0) <- m.(c0);
        pair.(1) <- m.(c1);
        Memory.store_scalars mem dst.view buf d ~k pair ~pos:0 ~len:2
      end
    done
  done

(* An mma shape's fragment layouts as flat gather/scatter tables, built
   once: entry [lane * per + i] of [ga] is the row-major cell
   [row * k + col] of A that lane's fragment register [i] holds; [gb]
   and [gc] likewise for B (k x 8) and C/D (m x 8). *)
type mma_shape =
  { mm : int
  ; mk : int
  ; frag_lanes : int
  ; per_a : int
  ; per_b : int
  ; per_c : int
  ; ga : int array
  ; gb : int array
  ; gc : int array
  }

let flat_table ~lanes ~cols coords =
  let per = Array.length (coords 0) in
  Array.init (lanes * per) (fun e ->
      let r, c = (coords (e / per)).(e mod per) in
      (r * cols) + c)

let mma_shape ~m ~k ~lanes a b c =
  { mm = m
  ; mk = k
  ; frag_lanes = lanes
  ; per_a = Array.length (a 0)
  ; per_b = Array.length (b 0)
  ; per_c = Array.length (c 0)
  ; ga = flat_table ~lanes ~cols:k a
  ; gb = flat_table ~lanes ~cols:8 b
  ; gc = flat_table ~lanes ~cols:8 c
  }

let m16n8k16 =
  mma_shape ~m:16 ~k:16 ~lanes:32 mma_m16n8k16_a_coords mma_m16n8k16_b_coords
    mma_m16n8k16_c_coords

let m8n8k4 =
  mma_shape ~m:8 ~k:4 ~lanes:8 mma_m8n8k4_a_coords mma_m8n8k4_b_coords
    mma_m8n8k4_c_coords

(* One lane's fragment of operand [op], from [buf] at offsets [o]: every
   offset is bounds-checked, and the first [per] values land in [mat]
   at the lane's table cells. *)
let gather op buf o mat tab ~base ~per =
  for i = 0 to Array.length o - 1 do
    let off = Array.unsafe_get o i in
    if off < 0 || off >= Array.length buf then
      Memory.offset_fault op.view buf off;
    if i < per then mat.(tab.(base + i)) <- Array.unsafe_get buf off
  done

(* D = A @ B + C in fp32, n = 8: gather every lane's fragments into flat
   row-major matrices, multiply, scatter D's fragments back to C. *)
let exec_mma mem sh ~tids ~lanes ins outs =
  if Array.length ins <> 2 || Array.length outs <> 1 then
    invalid_arg "mma arity";
  let a = ins.(0) and b = ins.(1) and c = outs.(0) in
  let m = sh.mm and k = sh.mk in
  let ma = scratch s_ma (m * k) in
  let mb = scratch s_mb (k * 8) in
  let mc = scratch s_mc (m * 8) in
  if lanes < sh.frag_lanes then begin
    (* Cells no lane holds read as zero. *)
    Array.fill ma 0 (m * k) 0.0;
    Array.fill mb 0 (k * 8) 0.0;
    Array.fill mc 0 (m * 8) 0.0
  end;
  let ab = Memory.resolve mem a.view
  and bb = Memory.resolve mem b.view
  and cb = Memory.resolve mem c.view in
  for l = 0 to lanes - 1 do
    let tid = tids.(l) in
    let ao = offs a tid in
    gather a (Memory.lane_buf mem ab ~tid) ao ma sh.ga ~base:(l * sh.per_a)
      ~per:sh.per_a;
    let bo = offs b tid in
    gather b (Memory.lane_buf mem bb ~tid) bo mb sh.gb ~base:(l * sh.per_b)
      ~per:sh.per_b;
    let co = offs c tid in
    gather c (Memory.lane_buf mem cb ~tid) co mc sh.gc ~base:(l * sh.per_c)
      ~per:sh.per_c;
    if
      Array.length ao < sh.per_a
      || Array.length bo < sh.per_b
      || Array.length co < sh.per_c
    then invalid_arg "index out of bounds"
  done;
  (* Eight running sums per row of D (n = 8), each adding its cell's
     products in ascending k — the order the results are defined by, bit
     for bit. Local float refs compile to unboxed registers. *)
  let md = scratch s_md (m * 8) in
  for i = 0 to m - 1 do
    let ik = i * k and i8 = i * 8 in
    let d0 = ref (Array.unsafe_get mc i8)
    and d1 = ref (Array.unsafe_get mc (i8 + 1))
    and d2 = ref (Array.unsafe_get mc (i8 + 2))
    and d3 = ref (Array.unsafe_get mc (i8 + 3))
    and d4 = ref (Array.unsafe_get mc (i8 + 4))
    and d5 = ref (Array.unsafe_get mc (i8 + 5))
    and d6 = ref (Array.unsafe_get mc (i8 + 6))
    and d7 = ref (Array.unsafe_get mc (i8 + 7)) in
    for kk = 0 to k - 1 do
      let x = Array.unsafe_get ma (ik + kk) and r = kk * 8 in
      d0 := !d0 +. (x *. Array.unsafe_get mb r);
      d1 := !d1 +. (x *. Array.unsafe_get mb (r + 1));
      d2 := !d2 +. (x *. Array.unsafe_get mb (r + 2));
      d3 := !d3 +. (x *. Array.unsafe_get mb (r + 3));
      d4 := !d4 +. (x *. Array.unsafe_get mb (r + 4));
      d5 := !d5 +. (x *. Array.unsafe_get mb (r + 5));
      d6 := !d6 +. (x *. Array.unsafe_get mb (r + 6));
      d7 := !d7 +. (x *. Array.unsafe_get mb (r + 7))
    done;
    Array.unsafe_set md i8 !d0;
    Array.unsafe_set md (i8 + 1) !d1;
    Array.unsafe_set md (i8 + 2) !d2;
    Array.unsafe_set md (i8 + 3) !d3;
    Array.unsafe_set md (i8 + 4) !d4;
    Array.unsafe_set md (i8 + 5) !d5;
    Array.unsafe_set md (i8 + 6) !d6;
    Array.unsafe_set md (i8 + 7) !d7
  done;
  (* Scatter the accumulator fragments. *)
  let frag = scratch s_out sh.per_c in
  for l = 0 to lanes - 1 do
    let tid = tids.(l) in
    let base = l * sh.per_c in
    for i = 0 to sh.per_c - 1 do
      Array.unsafe_set frag i md.(sh.gc.(base + i))
    done;
    let co = offs c tid in
    Memory.store mem c.view (Memory.lane_buf mem cb ~tid) co frag ~pos:0
      ~len:sh.per_c
  done

let exec_shfl mem kind env ~tids ~lanes ins outs =
  let src, dst = single_io ins outs in
  let sb = Memory.resolve mem src.view and db = Memory.resolve mem dst.view in
  let values =
    Array.init lanes (fun l ->
        let tid = tids.(l) in
        let so = offs src tid in
        let v = Array.make (Array.length so) 0.0 in
        Memory.load src.view (Memory.lane_buf mem sb ~tid) so v ~pos:0;
        v)
  in
  for lane = 0 to lanes - 1 do
    let tid = tids.(lane) in
    let partner =
      match kind with
      | Spec.Bfly mask -> lane lxor mask
      | Spec.Up d -> if lane - d >= 0 then lane - d else lane
      | Spec.Down d -> if lane + d < lanes then lane + d else lane
      | Spec.Idx e -> E.eval ~env:(with_tid env tid) e mod lanes
    in
    let p = if partner >= 0 && partner < lanes then partner else lane in
    let d = offs dst tid in
    Memory.store mem dst.view (Memory.lane_buf mem db ~tid) d values.(p) ~pos:0
      ~len:(Array.length values.(p))
  done

(* ----- dispatch ----- *)

let exec ?trace ?(block = 0) mem ~(instr : Atomic.instr) ~(spec : Spec.t) ~env
    ~tids ~lanes ~ins ~outs =
  let ev =
    match trace with
    | None -> None
    | Some tr -> Some (tr, block, "sem:" ^ instr.Atomic.name)
  in
  match (instr.Atomic.klass, spec.Spec.kind) with
  | Atomic.Ldmatrix { x; _ }, _ ->
    event ev ~lane0:tids.(0) ~lanes;
    exec_ldmatrix mem x ~tids ~lanes ins outs
  | Atomic.Mma { m = 16; n = 8; k = 16 }, _ ->
    event ev ~lane0:tids.(0) ~lanes;
    exec_mma mem m16n8k16 ~tids ~lanes ins outs
  | Atomic.Mma { m = 8; n = 8; k = 4 }, _ ->
    event ev ~lane0:tids.(0) ~lanes;
    exec_mma mem m8n8k4 ~tids ~lanes ins outs
  | Atomic.Shfl, Spec.Shfl kind ->
    event ev ~lane0:tids.(0) ~lanes;
    exec_shfl mem kind env ~tids ~lanes ins outs
  | Atomic.Cp_async, _ -> exec_cp_async mem ev ~tids ~lanes ins outs
  | (Atomic.Global_move | Atomic.Shared_move | Atomic.Mov | Atomic.Cvt), _ ->
    exec_move mem ev ~tids ~lanes ins outs
  | Atomic.Fma, _ -> exec_fma mem ev ~tids ~lanes ins outs
  | Atomic.Unary_pw, Spec.Unary_pointwise op ->
    exec_unary mem ev op ~tids ~lanes ins outs
  | Atomic.Binary_pw, Spec.Binary_pointwise op ->
    exec_binary mem ev op ~tids ~lanes ins outs
  | Atomic.Reduction, Spec.Reduction { op; axes } ->
    exec_reduction mem ev op axes ~tids ~lanes ins outs
  | Atomic.Init, Spec.Init v -> exec_init mem ev v ~tids ~lanes outs
  | ( ( Atomic.Mma _ | Atomic.Async_fence | Atomic.Shfl | Atomic.Unary_pw
      | Atomic.Binary_pw | Atomic.Reduction | Atomic.Init ),
      _ ) ->
    event ev ~lane0:tids.(0) ~lanes;
    invalid_arg
      (Printf.sprintf "Semantics.exec: unhandled instruction %s (%d lanes)"
         instr.Atomic.name lanes)
