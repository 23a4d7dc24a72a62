module Q = Numeric.Q
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

let sorted_points view = List.sort Geometry.Vec.compare (List.map snd view)

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
    if List.length x_z <= f then None
    else begin
      (* I_Z is line 5 of Algorithm CC on X_Z: a fault-free process
         whose view holds X_Z's points (under stable vector, the
         process with the smallest view) already computed it as h[0] *)
      let key = sorted_points z in
      let n = Array.length result.Cc.round0_views in
      let computed =
        List.init n Fun.id
        |> List.find_map (fun i ->
            match result.Cc.round0_views.(i) with
            | Some view
              when (not (List.mem i faulty))
                   && List.equal Geometry.Vec.equal (sorted_points view) key ->
              List.assoc_opt 0 result.Cc.history.(i)
            | _ -> None)
      in
      match computed with
      | Some h0 -> Some h0
      | None -> Polytope.depth_region ~dim:d ~f x_z
    end

let contained_in_all_rounds ~iz ~faulty ~result =
  match iz with
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
