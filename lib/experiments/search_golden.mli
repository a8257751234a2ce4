(** The schedule-search trajectories pinned in [test/golden/]: two seeded
    searches on SM86 whose [Tuner.Search.to_json ~wall:false]
    [bin/gen_golden.ml] writes and test_search checks, so a change to the
    tuner that moves a ranking, an estimate or a winner fails
    [dune runtest]. *)

val machine : Gpu_sim.Machine.t

(** [run ?seed ?budget ?proxy_top ?domains space] —
    [Tuner.Search.search] on {!machine}, at seed 42, budget 192 and 3
    proxies unless given. *)
val run :
  ?seed:int ->
  ?budget:int ->
  ?proxy_top:int ->
  ?domains:int ->
  Tuner.Search.space ->
  Tuner.Search.outcome

(** The SM86 GEMM 128x128x128 space. *)
val gemm_space : unit -> Tuner.Search.space

(** The SM86 FMHA space at seq 64, head dimension 32. *)
val fmha_space : unit -> Tuner.Search.space

(** A pinned search: its golden file name under [test/golden/] and the
    search that produces it. *)
type case =
  { file : string
  ; search : unit -> Tuner.Search.outcome
  }

(** {!run} on {!gemm_space} with the defaults. *)
val gemm : case

(** {!run} on {!fmha_space} at budget 4096 (the whole space). *)
val fmha : case

val cases : case list
