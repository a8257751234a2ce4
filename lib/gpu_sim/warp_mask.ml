(* Per-warp activity bitmasks: the plan executor's replacement for
   [int list] active sets.

   One 32-bit word per warp (word [w], bit [l] = thread [w*32 + l]
   active), stored in an [int array] of [(cta_size + 31) / 32] words.
   Iteration is ascending — word order then bit order — which is exactly
   the ordering the list-based executor maintained (its active lists were
   always ascending and merges preserved that), so every observable
   sequence (batch records, exec events, group probes) is unchanged. *)

type t = int array

let word_bits = 32
let all_ones = 0xFFFFFFFF

let nwords ~cta_size = (cta_size + word_bits - 1) / word_bits

let full ~cta_size =
  let n = nwords ~cta_size in
  let m = Array.make n all_ones in
  let rem = cta_size land (word_bits - 1) in
  if rem <> 0 then m.(n - 1) <- (1 lsl rem) - 1;
  m

(* SWAR popcount of one 32-bit word (no table, no branches). OCaml ints
   are wider than 32 bits, so the byte-summing multiply must be masked
   back to 32 bits before the shift (in C it wraps for free). *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  ((x * 0x01010101) land 0xFFFFFFFF) lsr 24

let popcount m =
  let acc = ref 0 in
  for i = 0 to Array.length m - 1 do
    acc := !acc + popcount32 (Array.unsafe_get m i)
  done;
  !acc

let is_empty m =
  let rec go i = i >= Array.length m || (m.(i) = 0 && go (i + 1)) in
  go 0

(* Bounds-checked: collective member ids can name threads outside the
   CTA; those are simply not active (the error path reports them). *)
let mem m tid =
  tid >= 0
  && tid lsr 5 < Array.length m
  && m.(tid lsr 5) land (1 lsl (tid land 31)) <> 0

let iter f m =
  for w = 0 to Array.length m - 1 do
    let word = Array.unsafe_get m w in
    if word <> 0 then begin
      let base = w * word_bits in
      for l = 0 to word_bits - 1 do
        if word land (1 lsl l) <> 0 then f (base + l)
      done
    end
  done

let equal a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
  go 0
