module Arch = Graphene.Arch
module S = Tuner.Search

let machine = Gpu_sim.Machine.a6000

let run ?(seed = 42) ?(budget = 192) ?(proxy_top = 3) ?domains space =
  S.search ~seed ~max_candidates:budget ~proxy_top ?domains machine space ()

let gemm_space () = S.gemm_space Arch.SM86 ~m:128 ~n:128 ~k:128 ()
let fmha_space () = S.fmha_space Arch.SM86 ~seq:64 ~dh:32 ()

type case =
  { file : string
  ; search : unit -> S.outcome
  }

let gemm =
  { file = "search_gemm_sm86_128.json"
  ; search = (fun () -> run (gemm_space ()))
  }

let fmha =
  { file = "search_fmha_sm86_s64d32.json"
  ; search = (fun () -> run ~budget:4096 (fmha_space ()))
  }

let cases = [ gemm; fmha ]
