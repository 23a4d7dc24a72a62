module Q = Numeric.Q
module Combin = Numeric.Combin
module Filter = Numeric.Filter

let project_point_segment p a b =
  let e = Vec.sub b a in
  let ee = Vec.norm2 e in
  let foot =
    if Q.is_zero ee then a
    else begin
      let t = Q.div (Vec.dot (Vec.sub p a) e) ee in
      let t = Q.max Q.zero (Q.min Q.one t) in
      Vec.add a (Vec.scale t e)
    end
  in
  (Vec.dist2 p foot, foot)

let dist2_point_segment p a b = fst (project_point_segment p a b)

(* Exact projection of [p] onto the affine hull of [s0 :: rest]:
   minimize |p - s0 - D c|² by the normal equations DᵀD c = Dᵀ(p - s0).
   Accepted only when the projection's barycentric coordinates are all
   non-negative (it lands inside the simplex spanned by the subset). *)
let project_to_simplex p subset =
  match subset with
  | [] -> None
  | [s] -> Some (Vec.dist2 p s, s)
  | s0 :: rest ->
    let dirs = List.map (fun s -> Vec.sub s s0) rest in
    let k = List.length dirs in
    let darr = Array.of_list dirs in
    let gram =
      Array.init k (fun i -> Array.init k (fun j -> Vec.dot darr.(i) darr.(j)))
    in
    let rhs = Array.map (fun d -> Vec.dot d (Vec.sub p s0)) darr in
    (match Linsys.solve gram rhs with
     | None -> None (* affinely dependent subset; a smaller subset covers it *)
     | Some c ->
       let sum = Array.fold_left Q.add Q.zero c in
       if Array.exists (fun ci -> Q.sign ci < 0) c
          || Filter.compare sum Q.one > 0
       then None
       else begin
         let proj =
           Array.to_list c
           |> List.mapi (fun i ci -> Vec.scale ci darr.(i))
           |> List.fold_left Vec.add s0
         in
         Some (Vec.dist2 p proj, proj)
       end)

let project_poly2d p poly =
  match poly with
  | [] -> invalid_arg "Distance: empty polytope"
  | [a] -> (Vec.dist2 p a, a)
  | [a; b] -> project_point_segment p a b
  | _ ->
    if Hull2d.contains poly p then (Q.zero, p)
    else begin
      let arr = Array.of_list poly in
      let n = Array.length arr in
      let best = ref (project_point_segment p arr.(0) arr.(1)) in
      for i = 1 to n - 1 do
        let cand = project_point_segment p arr.(i) arr.((i + 1) mod n) in
        if Filter.compare (fst cand) (fst !best) < 0 then best := cand
      done;
      !best
    end

(* [verts] must already be the hull's extreme points. The projection
   lies in the relative interior of some face spanned by at most
   dim+1 affinely independent vertices; every candidate subset yields
   an upper bound and the true face is enumerated, so the minimum is
   exact. *)
let project_hull_nd ~dim p verts =
  if List.exists (fun v -> Vec.equal v p) verts then (Q.zero, p)
  else if Lp.in_convex_hull verts p then (Q.zero, p)
  else begin
    let best = ref None in
    let consider cand =
      match !best, cand with
      | None, Some c -> best := Some c
      | Some (b, _), Some ((d2, _) as c) ->
        if Filter.compare d2 b < 0 then best := Some c
      | _, None -> ()
    in
    let max_size = Stdlib.min (dim + 1) (List.length verts) in
    for k = 1 to max_size do
      List.iter
        (fun subset -> consider (project_to_simplex p subset))
        (Combin.subsets_of_size k verts)
    done;
    match !best with
    | Some c -> c
    | None -> assert false (* singleton subsets always yield a candidate *)
  end

let project_point_hull ~dim p pts =
  match pts with
  | [] -> invalid_arg "Distance.project_point_hull: empty"
  | _ ->
    if dim = 1 then begin
      let xs = List.map (fun v -> v.(0)) pts in
      let lo = List.fold_left Q.min (List.hd xs) xs in
      let hi = List.fold_left Q.max (List.hd xs) xs in
      let x = p.(0) in
      if Q.lt x lo then (Q.square (Q.sub lo x), Vec.make [lo])
      else if Q.gt x hi then (Q.square (Q.sub x hi), Vec.make [hi])
      else (Q.zero, p)
    end
    else if dim = 2 then project_poly2d p (Hull2d.hull pts)
    else project_hull_nd ~dim p (Hullnd.extreme_points pts)

let dist2_point_hull ~dim p pts = fst (project_point_hull ~dim p pts)

let directed2 ~dim from_pts to_pts =
  (* Reduce the target to its extreme points once, not once per
     projected vertex. Same hull, same distances. *)
  let dist2 =
    if dim >= 3 then begin
      let verts = Hullnd.extreme_points to_pts in
      fun v -> fst (project_hull_nd ~dim v verts)
    end
    else fun v -> dist2_point_hull ~dim v to_pts
  in
  List.fold_left (fun acc v -> Q.max acc (dist2 v)) Q.zero from_pts

let hausdorff2 ~dim p q =
  match p, q with
  | [], _ | _, [] -> invalid_arg "Distance.hausdorff2: empty polytope"
  | _ -> Q.max (directed2 ~dim p q) (directed2 ~dim q p)

let hausdorff ~dim p q = sqrt (Q.to_float (hausdorff2 ~dim p q))
