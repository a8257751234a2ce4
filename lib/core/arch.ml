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

(* Both rules run once per warp access batch, so they keep their
   scratch in domain-local tables, sized to the largest batch seen and
   grown on demand, and allocate nothing per call. *)

(* Distinct 32-byte sectors across one warp batch, modelling coalescing:
   an open-addressing set of sector numbers. A slot is occupied for the
   current call iff its stamp equals the call's generation, so clearing
   is one increment. *)
type sector_set =
  { mutable keys : int array
  ; mutable stamps : int array
  ; mutable generation : int
  }

let sector_set =
  Domain.DLS.new_key (fun () ->
      { keys = Array.make 64 0; stamps = Array.make 64 0; generation = 0 })

let global_sectors ~bytes addresses ~len =
  let set = Domain.DLS.get sector_set in
  let bound = ref 0 in
  for i = 0 to len - 1 do
    let a = addresses.(i) in
    bound := !bound + Int.max 0 (((a + bytes - 1) / 32) - (a / 32) + 1)
  done;
  (* Keep the load factor at most 1/2. *)
  if 2 * !bound > Array.length set.keys then begin
    let cap = ref (Array.length set.keys) in
    while 2 * !bound > !cap do
      cap := 2 * !cap
    done;
    set.keys <- Array.make !cap 0;
    set.stamps <- Array.make !cap 0;
    set.generation <- 0
  end;
  set.generation <- set.generation + 1;
  let gen = set.generation and keys = set.keys and stamps = set.stamps in
  let mask = Array.length keys - 1 in
  let distinct = ref 0 in
  for i = 0 to len - 1 do
    let a = Array.unsafe_get addresses i in
    for s = a / 32 to (a + bytes - 1) / 32 do
      let slot = ref ((s * 0x9E3779B1) land mask) in
      while
        Array.unsafe_get stamps !slot = gen && Array.unsafe_get keys !slot <> s
      do
        slot := (!slot + 1) land mask
      done;
      if Array.unsafe_get stamps !slot <> gen then begin
        Array.unsafe_set stamps !slot gen;
        Array.unsafe_set keys !slot s;
        incr distinct
      end
    done
  done;
  !distinct

(* The hardware serves at most 128 bytes (32 banks x 4 bytes) per phase;
   wide per-thread accesses split into phases of 128/bytes threads. Bank
   conflicts are extra cycles within a phase: the maximum number of
   distinct 4-byte words mapping to one bank. Each bank keeps its
   distinct words of the current phase in [per_bank] slots of [words]. *)
type bank_words =
  { mutable per_bank : int
  ; mutable words : int array  (* bank b's words at [b * per_bank ..] *)
  ; counts : int array  (* distinct words per bank in this phase *)
  }

let bank_words =
  Domain.DLS.new_key (fun () ->
      { per_bank = 8; words = Array.make (32 * 8) 0; counts = Array.make 32 0 })

let grow_banks t =
  let per = 2 * t.per_bank in
  let words = Array.make (32 * per) 0 in
  for b = 0 to 31 do
    Array.blit t.words (b * t.per_bank) words (b * per) t.counts.(b)
  done;
  t.words <- words;
  t.per_bank <- per

let shared_conflicts ~bytes addresses ~len =
  let t = Domain.DLS.get bank_words in
  let counts = t.counts in
  let per_phase = Int.max 1 (128 / Int.max 1 bytes) in
  let acc = ref 0 and i = ref 0 in
  while !i < len do
    let stop = Int.min len (!i + per_phase) in
    Array.fill counts 0 32 0;
    for j = !i to stop - 1 do
      let a = addresses.(j) in
      for w = a / 4 to (a + bytes - 1) / 4 do
        (* A negative word has a negative remainder: the same
           out-of-bounds bank index, and exception, as a bank array. *)
        let bank = w mod 32 in
        if bank < 0 then invalid_arg "index out of bounds";
        let n = Array.unsafe_get counts bank in
        let base = bank * t.per_bank in
        let k = ref 0 in
        while !k < n && Array.unsafe_get t.words (base + !k) <> w do
          incr k
        done;
        if !k = n then begin
          if n = t.per_bank then grow_banks t;
          Array.unsafe_set t.words ((bank * t.per_bank) + n) w;
          Array.unsafe_set counts bank (n + 1)
        end
      done
    done;
    let degree = ref 1 in
    for b = 0 to 31 do
      degree := Int.max !degree (Array.unsafe_get counts b)
    done;
    acc := !acc + (!degree - 1);
    i := stop
  done;
  !acc

let equal (a : t) b = a = b
let pp fmt t = Format.pp_print_string fmt (name t)
let all = [ SM70; SM86 ]
