(* The equivalence matrix (corpus.ml) over every kernel family of the
   corpus: the plan executor at every domain count and on the auto
   path, the tree interpreter at every domain count, the scalar-forced
   plan and the 2- and 3-stage pipelined lowerings on both executors
   must equal the 1-domain tree reference in the fields the lowering
   may not move, and static analysis must price each family as the
   reference run counts it. *)

let () =
  Alcotest.run "equivalence"
    [ ( "matrix"
      , List.map
          (fun (f : Corpus.family) ->
            Alcotest.test_case f.Corpus.name `Quick (fun () -> Corpus.matrix f))
          Corpus.families )
    ]
