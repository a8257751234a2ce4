type t = SM70 | SM86

let name = function SM70 -> "sm70" | SM86 -> "sm86"

let display_name = function
  | SM70 -> "Volta (V100)"
  | SM86 -> "Ampere (RTX A6000)"

let smem_bytes_per_block = function
  | SM70 -> 96 * 1024
  | SM86 -> 100 * 1024

(* Maximum committed-but-unwaited cp.async groups a pipelining rewrite may
   keep in flight. 0 = the architecture has no async copies. *)
let async_queue_depth = function SM70 -> 0 | SM86 -> 8

(* ----- the memory system, common to both architectures ----- *)

(* Distinct 32-byte sectors across one warp batch, modelling coalescing. *)
let global_sectors ~bytes addresses ~len =
  let sectors = Hashtbl.create 16 in
  for i = 0 to len - 1 do
    let a = Array.unsafe_get addresses i in
    let lo = a / 32 and hi = (a + bytes - 1) / 32 in
    for s = lo to hi do
      Hashtbl.replace sectors s ()
    done
  done;
  Hashtbl.length sectors

(* The hardware serves at most 128 bytes (32 banks x 4 bytes) per phase;
   wide per-thread accesses split into phases of 128/bytes threads. Bank
   conflicts are extra cycles within a phase: the maximum number of
   distinct 4-byte words mapping to one bank. *)
let shared_conflicts ~bytes addresses ~len =
  let per_phase = max 1 (128 / max 1 bytes) in
  let acc = ref 0 and i = ref 0 in
  while !i < len do
    let stop = min len (!i + per_phase) in
    let words_per_bank = Array.make 32 [] in
    for j = !i to stop - 1 do
      let a = Array.unsafe_get addresses j in
      let lo = a / 4 and hi = (a + bytes - 1) / 4 in
      for w = lo to hi do
        let bank = w mod 32 in
        if not (List.mem w words_per_bank.(bank)) then
          words_per_bank.(bank) <- w :: words_per_bank.(bank)
      done
    done;
    let degree =
      Array.fold_left (fun acc ws -> max acc (List.length ws)) 1 words_per_bank
    in
    acc := !acc + (degree - 1);
    i := stop
  done;
  !acc

let equal (a : t) b = a = b
let pp fmt t = Format.pp_print_string fmt (name t)
let all = [ SM70; SM86 ]
