module Q = Numeric.Q
module Polytope = Geometry.Polytope

let graded ~n ~faulty ~recovered =
  List.init n Fun.id
  |> List.filter (fun i -> (not (List.mem i faulty)) || recovered i)

let hull config inputs graded =
  Polytope.of_points ~dim:config.Config.d
    (List.map (fun i -> inputs.(i)) graded)

let first_invalid ~hull decisions =
  List.find_opt (fun h -> not (Polytope.subset h hull)) decisions

let max_hausdorff2 decisions =
  let rec pairs acc = function
    | [] -> acc
    | h :: rest ->
      let acc =
        List.fold_left
          (fun acc h' -> Q.max acc (Polytope.hausdorff2 h h'))
          acc rest
      in
      pairs acc rest
  in
  pairs Q.zero decisions

let agrees config a2 = Q.lt a2 (Q.square config.Config.eps)
