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
   (grown on demand, [[||]] = not yet allocated), so a warp's files are
   found with one string hash ([resolve]) and then one index per lane. *)
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
  ; mutable rounded : float array  (* [store]'s rounding scratch *)
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
  ; rounded = [||]
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

(* Grow-and-allocate slow paths of the per-lane lookup [buffer]. *)
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

(* ----- warp access -----

   An instruction body resolves each operand's storage once per warp
   instance ([resolve]: one table lookup) and then indexes per thread
   ([lane_buf]). Each per-lane access below checks in a fixed order —
   the length, then per element the bounds — and stores values rounded
   through the view's element type, so both executors fault and round
   identically. *)

type bufs =
  | Flat of float array  (* global or shared: one array for every lane *)
  | Files of Ts.t * float array array  (* register files, by tid *)
  | Deferred of Ts.t
      (* not present yet: each lane resolves it on its own, which
         allocates the storage on first touch or faults exactly where a
         per-lane lookup would *)

let resolve t (v : Ts.t) =
  match v.Ts.mem with
  | Ms.Global -> (
    match Hashtbl.find t.global v.Ts.buffer with
    | a -> Flat a
    | exception Not_found -> Deferred v)
  | Ms.Shared -> (
    match Hashtbl.find t.blk.shared v.Ts.buffer with
    | a -> Flat a
    | exception Not_found -> Deferred v)
  | Ms.Register -> (
    match Hashtbl.find t.blk.regs v.Ts.buffer with
    | files -> Files (v, files)
    | exception Not_found -> Deferred v)

(* A file allocated (or a table grown) through [buffer] after [resolve]
   is only missing from a stale [files]: the empty slot or short table
   sends the lane back to [buffer], which sees the current table. *)
let lane_buf t b ~tid =
  match b with
  | Flat a -> a
  | Files (v, files) ->
    if tid < Array.length files then
      let f = Array.unsafe_get files tid in
      if Array.length f > 0 then f else buffer t ~tid v
    else buffer t ~tid v
  | Deferred v -> buffer t ~tid v

let offset_fault (v : Ts.t) buf off =
  fault "view %%%s: offset %d outside buffer %s of size %d" v.Ts.name off
    v.Ts.buffer (Array.length buf)

let checked buf (v : Ts.t) off =
  if off < 0 || off >= Array.length buf then offset_fault v buf off

let load (v : Ts.t) buf offs dst ~pos =
  for i = 0 to Array.length offs - 1 do
    let off = Array.unsafe_get offs i in
    checked buf v off;
    dst.(pos + i) <- Array.unsafe_get buf off
  done

let load_sub (v : Ts.t) buf offs ~from ~len dst =
  (* Same guard (and exception) as [Array.sub offs from len]. *)
  if from < 0 || len < 0 || from > Array.length offs - len then
    invalid_arg "Array.sub";
  for i = 0 to len - 1 do
    let off = Array.unsafe_get offs (from + i) in
    checked buf v off;
    dst.(i) <- Array.unsafe_get buf off
  done

let load_contig (v : Ts.t) buf ~base ~len dst ~pos =
  for i = 0 to len - 1 do
    let off = base + i in
    checked buf v off;
    dst.(pos + i) <- Array.unsafe_get buf off
  done

(* [data.(pos ..)] rounded through the view's element type, in [t]'s
   scratch — fp32 and fp64 are rounded inline by the stores instead. *)
let rounded t (v : Ts.t) data ~pos ~len =
  if Array.length t.rounded < len then
    t.rounded <- Array.make (max len (2 * Array.length t.rounded)) 0.0;
  Dt.round_into (Ts.dtype v) data ~pos t.rounded ~len;
  t.rounded

(* Element [i] of a lane's values goes to [offs.(k + i)]. *)
let store_from t (v : Ts.t) buf offs ~k data ~pos ~len =
  match Ts.dtype v with
  | Dt.FP32 ->
    for i = 0 to len - 1 do
      let off = offs.(k + i) in
      checked buf v off;
      Array.unsafe_set buf off
        (Int32.float_of_bits (Int32.bits_of_float data.(pos + i)))
    done
  | Dt.FP64 ->
    for i = 0 to len - 1 do
      let off = offs.(k + i) in
      checked buf v off;
      Array.unsafe_set buf off data.(pos + i)
    done
  | Dt.FP16 | Dt.BF16 | Dt.I8 | Dt.I32 | Dt.U32 | Dt.Bool ->
    let r = rounded t v data ~pos ~len in
    for i = 0 to len - 1 do
      let off = offs.(k + i) in
      checked buf v off;
      Array.unsafe_set buf off (Array.unsafe_get r i)
    done

let store t (v : Ts.t) buf offs data ~pos ~len =
  if Array.length offs <> len then
    fault "view %%%s: writing %d values into %d slots" v.Ts.name len
      (Array.length offs);
  store_from t v buf offs ~k:0 data ~pos ~len

let store_scalars t (v : Ts.t) buf offs ~k data ~pos ~len =
  let avail = Array.length offs - k in
  if len <= avail then store_from t v buf offs ~k data ~pos ~len
  else begin
    (* The scalars before the first index past the enumeration land
       first. *)
    store_from t v buf offs ~k data ~pos ~len:(max 0 avail);
    fault "view %%%s: scalar index %d out of %d" v.Ts.name (k + max 0 avail)
      (Array.length offs)
  end

let store_contig t (v : Ts.t) buf ~base data ~pos ~len =
  match Ts.dtype v with
  | Dt.FP32 ->
    for i = 0 to len - 1 do
      let off = base + i in
      checked buf v off;
      Array.unsafe_set buf off
        (Int32.float_of_bits (Int32.bits_of_float data.(pos + i)))
    done
  | Dt.FP64 ->
    for i = 0 to len - 1 do
      let off = base + i in
      checked buf v off;
      Array.unsafe_set buf off data.(pos + i)
    done
  | Dt.FP16 | Dt.BF16 | Dt.I8 | Dt.I32 | Dt.U32 | Dt.Bool ->
    let r = rounded t v data ~pos ~len in
    for i = 0 to len - 1 do
      let off = base + i in
      checked buf v off;
      Array.unsafe_set buf off (Array.unsafe_get r i)
    done
