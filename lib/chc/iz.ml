module Q = Numeric.Q
module Combin = Numeric.Combin
module Polytope = Geometry.Polytope

let stable_views ~faulty ~(result : Cc.result) =
  let n = Array.length result.Cc.round0_views in
  List.init n Fun.id
  |> List.filter (fun i -> not (List.mem i faulty))
  |> List.map (fun i ->
      match result.Cc.round0_views.(i) with
      | Some view -> view
      | None ->
        invalid_arg
          (Printf.sprintf "Iz.compute: fault-free process %d has no view" i))

let compute ~config ~faulty ~result =
  let views = stable_views ~faulty ~result in
  (* Z: entries present in every fault-free view (keyed by origin — in
     the crash model an origin determines its value). *)
  match views with
  | [] -> invalid_arg "Iz.compute: no fault-free processes"
  | first :: rest ->
    let in_view origin view = List.mem_assoc origin view in
    let z =
      List.filter
        (fun (origin, _) -> List.for_all (in_view origin) rest)
        first
    in
    let x_z = List.map snd z in
    let { Config.d; f; _ } = config in
    let keep = List.length x_z - f in
    if keep < 1 then None
    else begin
      let hulls =
        List.map (Polytope.of_points ~dim:d) (Combin.subsets_of_size keep x_z)
      in
      Polytope.intersect hulls
    end

let contained_in_all_rounds ~config ~faulty ~result =
  match compute ~config ~faulty ~result with
  | None -> false
  | Some iz ->
    (* once the processes agree, round after round repeats one
       polytope: check each distinct one once *)
    result.Cc.history
    |> Array.to_list
    |> List.mapi (fun i hist -> if List.mem i faulty then [] else List.map snd hist)
    |> List.concat
    |> Polytope.distinct
    |> List.for_all (Polytope.subset iz)
