(* Exact volume of a 3-d convex polytope in V-representation, by the
   divergence theorem: orient every facet outward, fan-triangulate it,
   and sum the signed tetrahedron volumes det(w0, wi, wi+1)/6. The sum
   telescopes to the enclosed volume regardless of where the origin
   lies. Degenerate (lower-dimensional) polytopes have volume 0. *)

module Q = Numeric.Q
module Filter = Numeric.Filter

let det3 a b c =
  let open Q in
  let m i j = (match i with 0 -> a | 1 -> b | _ -> c).(j) in
  sub
    (add
       (mul (m 0 0) (sub (mul (m 1 1) (m 2 2)) (mul (m 1 2) (m 2 1))))
       (mul (m 0 2) (sub (mul (m 1 0) (m 2 1)) (mul (m 1 1) (m 2 0)))))
    (mul (m 0 1) (sub (mul (m 1 0) (m 2 2)) (mul (m 1 2) (m 2 0))))

let cross3 u v =
  Vec.make
    [ Q.sub (Q.mul u.(1) v.(2)) (Q.mul u.(2) v.(1));
      Q.sub (Q.mul u.(2) v.(0)) (Q.mul u.(0) v.(2));
      Q.sub (Q.mul u.(0) v.(1)) (Q.mul u.(1) v.(0)) ]

(* Order the vertices of a (planar, convex-position) facet cyclically,
   counter-clockwise w.r.t. the outward normal [nrm]. *)
let order_facet nrm verts =
  match verts with
  | [] | [_] | [_; _] -> None (* degenerate facet: contributes nothing *)
  | w0 :: _ ->
    (* Build 2-d coordinates in the facet plane from two independent
       edge directions; convex position and cyclic order survive the
       affine map. *)
    let dirs = List.map (fun w -> Vec.sub w w0) verts in
    let nonzero = List.filter (fun v -> not (Vec.equal v (Vec.zero 3))) dirs in
    (match nonzero with
     | [] -> None
     | e1 :: rest ->
       let e2_opt =
         List.find_opt
           (fun v -> not (Vec.equal (cross3 e1 v) (Vec.zero 3)))
           rest
       in
       (match e2_opt with
        | None -> None
        | Some e2 ->
          let coord w =
            let d = Vec.sub w w0 in
            Vec.make [Vec.dot d e1; Vec.dot d e2]
          in
          let pairs = List.map (fun w -> (coord w, w)) verts in
          let poly2 = Hull2d.hull (List.map fst pairs) in
          let back c =
            match List.find_opt (fun (c', _) -> Vec.equal c c') pairs with
            | Some (_, w) -> w
            | None -> assert false
          in
          let ring = List.map back poly2 in
          (* Flip if the ring's orientation disagrees with the outward
             normal. *)
          (match ring with
           | a :: b :: c :: _ ->
             let o = Vec.dot (cross3 (Vec.sub b a) (Vec.sub c a)) nrm in
             if Q.sign o >= 0 then Some ring else Some (List.rev ring)
           | _ -> None)))

(* Sum of signed facet fans over integer-scaled vertices and facet
   planes valid in the scaled frame. The sign tests and the
   orientation check are invariant under positive scaling of (a, b),
   so primitive integer planes and normalized ones answer alike. *)
let six_volume verts facets =
  let facet_vol (a, b) =
    (* Filtered tight test: the interval refutes the off-facet
       majority without exact dots. No extreme-point extraction
       here — [order_facet]'s in-plane [Hull2d.hull] already
       drops non-vertex points of the facet polygon. *)
    let on_facet =
      List.filter (fun v -> Filter.sign_of_dot_minus a v b = 0) verts
    in
    match order_facet a on_facet with
    | None -> Q.zero
    | Some (w0 :: rest) ->
      let rec fan acc = function
        | wi :: (wj :: _ as tl) ->
          fan (Q.add acc (det3 w0 wi wj)) tl
        | _ -> acc
      in
      fan Q.zero rest
    | Some [] -> Q.zero
  in
  List.fold_left (fun acc f -> Q.add acc (facet_vol f)) Q.zero facets

let unscale six_v l =
  let l3 = Numeric.Bigint.mul l (Numeric.Bigint.mul l l) in
  Q.div six_v (Q.mul (Q.of_int 6) (Q.of_bigint l3))

(* The carried dual's volume: the signed-volume sum over the soup's
   triangles when they cover the boundary once, one det3 per triangle
   with no tight scan or in-plane ordering; the facet fans over the
   dual's scaled points otherwise, and for exact-path duals, which
   have no soup. *)
let of_dual (d : Poly_engine.dual) =
  let six_v =
    match Option.bind d.Poly_engine.shape Poly_engine.covering with
    | Some tris ->
      let spts = Array.of_list d.Poly_engine.spts in
      Array.fold_left
        (fun acc (a, b, c) -> Q.add acc (det3 spts.(a) spts.(b) spts.(c)))
        Q.zero tris
    | None -> six_volume d.Poly_engine.spts d.Poly_engine.facets
  in
  unscale six_v d.Poly_engine.scale

let volume verts0 =
  match verts0 with
  | [] -> Q.zero
  | v0 :: _ ->
    if Vec.dim v0 <> 3 then invalid_arg "Volume3d.volume: dimension must be 3"
    else begin
      (* Work on the integer grid: vol(L·P) = L³·vol(P), and every
         inner operation (facet dots, in-plane coordinates, the det3
         fan) becomes a gcd-free integer Q operation. The engine dual
         supplies scaled vertices and facet planes directly; only
         lower-dimensional or aborted inputs rebuild an H-rep. *)
      match Hullnd.dual_3d (Hullnd.dedupe_points verts0) with
      | Some d ->
        unscale
          (six_volume d.Poly_engine.spts d.Poly_engine.facets)
          d.Poly_engine.scale
      | None ->
        let verts, l = Numeric.Grid.scale_points verts0 in
        let h = Hullnd.of_points ~dim:3 verts in
        if h.Hullnd.eqs <> [] then Q.zero (* lower-dimensional *)
        else unscale (six_volume verts h.Hullnd.ineqs) l
    end
