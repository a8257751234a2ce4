type t =
  { kernels : Graphene.Spec.kernel list
  ; intermediates : (string * int) list
  }

let make ?(intermediates = []) kernels = { kernels; intermediates }

let run ~arch t ~args ?(scalars = []) () =
  let inter =
    List.map (fun (name, n) -> (name, Array.make n 0.0)) t.intermediates
  in
  let all_args = args @ inter in
  let merged = Counters.create () in
  List.iter
    (fun (kernel : Graphene.Spec.kernel) ->
      (* Bind only the buffers this kernel declares as parameters. *)
      let params =
        List.filter_map
          (fun (p : Gpu_tensor.Tensor.t) ->
            Option.map
              (fun data -> (p.Gpu_tensor.Tensor.buffer, data))
              (List.assoc_opt p.Gpu_tensor.Tensor.buffer all_args))
          kernel.Graphene.Spec.params
      in
      let c = Interp.run ~arch kernel ~args:params ~scalars () in
      Counters.merge merged c)
    t.kernels;
  merged

let validate arch t =
  List.concat_map (Graphene.Validate.check arch) t.kernels
