module Ts = Gpu_tensor.Tensor
module Ms = Gpu_tensor.Memspace
module Dt = Gpu_tensor.Dtype

(* The global-memory arena is the only state shared between domains when
   blocks execute in parallel: it is populated (bind) before execution
   starts and only its arrays' cells are written afterwards — blocks
   writing disjoint cells, exactly as on real hardware. *)
type global = (string, float array) Hashtbl.t

(* Block-local state: shared-memory arrays and per-thread register files.
   A fresh value per block replaces the old [reset_block] mutation, so a
   domain executing its own block range can never observe another
   domain's block-local state.

   Register files are stored per buffer as an array indexed by tid
   (grown on demand, [[||]] = not yet allocated). The previous
   [(buffer, tid)] tuple key allocated a tuple and hashed the string on
   every access — [buffer] sits under every simulated load and store,
   so the executors' per-access cost is one string hash and an index. *)
type block =
  { shared : (string, float array) Hashtbl.t
  ; regs : (string, float array array) Hashtbl.t  (* files by tid *)
  ; (* cp.async state: copies issued but not yet committed (newest first),
       and committed groups still in flight (oldest first). A deferred
       copy is a thunk landing data in shared memory; all counter
       accounting happened at issue time, so draining is pure data
       movement. Block-local by construction — [new_block] discards any
       leftovers, exactly like the shared arrays they would target. *)
    mutable async_pending : (unit -> unit) list
  ; mutable async_groups : (unit -> unit) list list
  }

type t =
  { global : global
  ; shared_sizes : (string, int) Hashtbl.t
  ; reg_sizes : (string, int) Hashtbl.t
  ; mutable blk : block
  }

exception Fault of string

let fault fmt = Format.kasprintf (fun s -> raise (Fault s)) fmt

let create_global () : global = Hashtbl.create 16

let fresh_block () =
  { shared = Hashtbl.create 16
  ; regs = Hashtbl.create 1024
  ; async_pending = []
  ; async_groups = []
  }

let of_global global =
  { global
  ; shared_sizes = Hashtbl.create 16
  ; reg_sizes = Hashtbl.create 16
  ; blk = fresh_block ()
  }

let bind_arena (g : global) name data = Hashtbl.replace g name data

let find_global t name =
  match Hashtbl.find t.global name with
  | a -> a
  | exception Not_found -> fault "unknown global buffer %s" name

let declare_shared t name size = Hashtbl.replace t.shared_sizes name size
let declare_regs t name size = Hashtbl.replace t.reg_sizes name size

let new_block t = t.blk <- fresh_block ()

(* ----- the cp.async queue ----- *)

let async_stage t thunk =
  t.blk.async_pending <- thunk :: t.blk.async_pending

(* Seal everything issued since the last commit into one group — possibly
   empty, which real hardware allows and pipelined tail iterations rely
   on (an empty commit keeps the group-count invariant without a copy). *)
let async_commit t =
  let blk = t.blk in
  blk.async_groups <- blk.async_groups @ [ List.rev blk.async_pending ];
  blk.async_pending <- []

let async_inflight t = List.length t.blk.async_groups

(* Drain oldest committed groups until at most [n] remain in flight; each
   drained copy lands its deferred data in issue order. *)
let async_wait t n =
  let blk = t.blk in
  let rec drain groups =
    match groups with
    | g :: rest when List.length groups > n ->
      List.iter (fun thunk -> thunk ()) g;
      drain rest
    | _ -> groups
  in
  blk.async_groups <- drain blk.async_groups

(* Grow-and-allocate slow paths, kept out of [buffer] so its common
   path (every simulated memory access) stays small enough to inline. *)
let alloc_shared t (v : Ts.t) =
  match Hashtbl.find_opt t.shared_sizes v.Ts.buffer with
  | Some size ->
    let a = Array.make size 0.0 in
    Hashtbl.replace t.blk.shared v.Ts.buffer a;
    a
  | None -> fault "shared buffer %s was never allocated" v.Ts.buffer

let alloc_reg_file t (v : Ts.t) files tid =
  let files =
    if tid < Array.length files then files
    else begin
      let n = ref (max 64 (2 * Array.length files)) in
      while tid >= !n do
        n := 2 * !n
      done;
      let nf = Array.make !n [||] in
      Array.blit files 0 nf 0 (Array.length files);
      Hashtbl.replace t.blk.regs v.Ts.buffer nf;
      nf
    end
  in
  match Hashtbl.find_opt t.reg_sizes v.Ts.buffer with
  | Some size ->
    let a = Array.make size 0.0 in
    files.(tid) <- a;
    a
  | None -> fault "register buffer %s was never allocated" v.Ts.buffer

let buffer t ~tid (v : Ts.t) =
  match v.Ts.mem with
  | Ms.Global -> find_global t v.Ts.buffer
  | Ms.Shared -> (
    match Hashtbl.find t.blk.shared v.Ts.buffer with
    | a -> a
    | exception Not_found -> alloc_shared t v)
  | Ms.Register -> (
    let files =
      match Hashtbl.find t.blk.regs v.Ts.buffer with
      | f -> f
      | exception Not_found -> [||]
    in
    if tid < Array.length files then
      let f = Array.unsafe_get files tid in
      (* [[||]] is the shared not-yet-allocated sentinel; a legitimately
         size-0 file re-allocates (to the same atom), which is harmless. *)
      if Array.length f > 0 then f else alloc_reg_file t v files tid
    else alloc_reg_file t v files tid)

let checked buf (v : Ts.t) off =
  if off < 0 || off >= Array.length buf then
    fault "view %%%s: offset %d outside buffer %s of size %d" v.Ts.name off
      v.Ts.buffer (Array.length buf)

(* Every accessor takes the view's element offsets, derived by the
   caller (symbolically on the tree path, by compiled closures on the
   plan path), so both paths share the bounds checks and fault
   messages. *)

let read_offs t ~tid v offs =
  let buf = buffer t ~tid v in
  Array.map
    (fun off ->
      checked buf v off;
      buf.(off))
    offs

let read_offs_into t ~tid v offs dst =
  let buf = buffer t ~tid v in
  for i = 0 to Array.length offs - 1 do
    let off = Array.unsafe_get offs i in
    checked buf v off;
    Array.unsafe_set dst i (Array.unsafe_get buf off)
  done

let read_sub_offs_into t ~tid v offs ~pos ~len dst =
  (* Same guard (and exception) as [Array.sub offs pos len]. *)
  if pos < 0 || len < 0 || pos > Array.length offs - len then
    invalid_arg "Array.sub";
  let buf = buffer t ~tid v in
  for i = 0 to len - 1 do
    let off = Array.unsafe_get offs (pos + i) in
    checked buf v off;
    Array.unsafe_set dst i (Array.unsafe_get buf off)
  done

let write_offs_n t ~tid v offs data ~len =
  let buf = buffer t ~tid v in
  if Array.length offs <> len then
    fault "view %%%s: writing %d values into %d slots" v.Ts.name len
      (Array.length offs);
  let dt = Ts.dtype v in
  Array.iteri
    (fun i off ->
      checked buf v off;
      buf.(off) <- Dt.round dt data.(i))
    offs

let write_offs t ~tid v offs data =
  write_offs_n t ~tid v offs data ~len:(Array.length data)

(* Contiguous-span forms for vector-widened full-span moves: the offset
   enumeration is provably [base, base + len), so the plan executor skips
   materializing it. Bounds checks, faults, write rounding and the
   ascending element order match the [*_offs] forms exactly — a widened
   move must fault on the same element with the same message, and store
   the same rounded values, as its scalar lowering. *)

let read_contig_into t ~tid v ~base ~len dst =
  let buf = buffer t ~tid v in
  for i = 0 to len - 1 do
    let off = base + i in
    checked buf v off;
    Array.unsafe_set dst i (Array.unsafe_get buf off)
  done

let write_contig t ~tid v ~base data ~len =
  let buf = buffer t ~tid v in
  let dt = Ts.dtype v in
  for i = 0 to len - 1 do
    let off = base + i in
    checked buf v off;
    buf.(off) <- Dt.round dt (Array.unsafe_get data i)
  done

(* A resolved buffer handle: hoists [buffer] resolution out of
   per-element loops. The ldmatrix fragment distribute writes two
   scalars per lane per tile, which would otherwise re-hash the buffer
   name on every element. *)
type slab =
  { sl_buf : float array
  ; sl_dt : Dt.t
  }

let slab t ~tid v = { sl_buf = buffer t ~tid v; sl_dt = Ts.dtype v }

let write_k_slab sl (v : Ts.t) offs k x =
  if k >= Array.length offs then
    fault "view %%%s: scalar index %d out of %d" v.Ts.name k (Array.length offs);
  checked sl.sl_buf v offs.(k);
  sl.sl_buf.(offs.(k)) <- Dt.round sl.sl_dt x
