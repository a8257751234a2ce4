module T = Workloads.Transformer

type params =
  { seed : int
  ; requests : int
  ; rate_rps : float
  ; attention_frac : float
  ; sm70_frac : float
  }

let default =
  { seed = 42
  ; requests = 240
  ; rate_rps = 50_000.0
  ; attention_frac = 0.6
  ; sm70_frac = 0.25
  }

let models = T.all

(* ----- splitmix64 ----- *)

type rng = { mutable state : int64 }

let rng_of_seed seed = { state = Int64.of_int seed }

let next_u64 r =
  r.state <- Int64.add r.state 0x9E3779B97F4A7C15L;
  let z = r.state in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* Uniform in [0, 1): the top 53 bits as a float mantissa. *)
let float01 r =
  Int64.to_float (Int64.shift_right_logical (next_u64 r) 11) *. 0x1p-53

(* Uniform integer in [1, n]. *)
let int1n r n = 1 + int_of_float (float01 r *. float_of_int n)

(* ----- proxy shapes -----

   The serving shapes are the Figure-15 network shapes scaled down to
   sizes the simulator executes in milliseconds, keeping the structure
   (and the relative differences between networks) intact. *)

let attention_proxy (c : T.config) ~arch ~short =
  let base_seq = c.seq / 8 in
  let seq = max 32 (if short then base_seq - 16 else base_seq) in
  let heads = max 1 (c.heads / 8) in
  match arch with
  | Graphene.Arch.SM86 -> Request.Attention { heads; seq; dh = 16; chunk = 16 }
  | Graphene.Arch.SM70 ->
    (* Volta quad-pair mma needs 32-wide fragments: 32-element head,
       32-row chunks, sequence a 32-multiple. *)
    Request.Attention { heads; seq = seq / 32 * 32; dh = 32; chunk = 32 }

let ffn_proxy (c : T.config) ~m =
  Request.Ffn { m; n = c.ffn / 64; k = c.hidden / 32 }

let generate p =
  let bad field want got =
    invalid_arg
      (Printf.sprintf "Serve.Traffic.generate: %s must be %s (got %s)" field
         want got)
  in
  if p.requests < 0 then bad "requests" ">= 0" (string_of_int p.requests);
  if not (Float.is_finite p.rate_rps && p.rate_rps > 0.0) then
    bad "rate_rps" "finite and positive" (Printf.sprintf "%g" p.rate_rps);
  let rng = rng_of_seed p.seed in
  let model_arr = Array.of_list models in
  let t = ref 0.0 in
  List.init p.requests (fun id ->
      (* Exponential interarrival via inverse CDF. *)
      let u = float01 rng in
      t := !t +. (-.log (1.0 -. u) /. p.rate_rps);
      let model = model_arr.(int1n rng (Array.length model_arr) - 1) in
      let arch =
        if float01 rng < p.sm70_frac then Graphene.Arch.SM70
        else Graphene.Arch.SM86
      in
      let kind =
        if float01 rng < p.attention_frac then
          (* A third of attention requests run a shorter (decode-ish)
             context, so sequence-length buckets mix. *)
          attention_proxy model ~arch ~short:(float01 rng < 1.0 /. 3.0)
        else ffn_proxy model ~m:(int1n rng 32)
      in
      { Request.id
      ; arrival_s = !t
      ; spec = { Request.model = model.T.name; arch; kind }
      })
