module Q = Numeric.Q
module Vec = Geometry.Vec
module D = Geometry.Distance

let v2 x y = Vec.of_ints [x; y]
let v3 x y z = Vec.of_ints [x; y; z]
let qt = Alcotest.testable Q.pp Q.equal

let test_point_segment () =
  Alcotest.check qt "perpendicular foot" (Q.of_int 4)
    (D.dist2_point_segment (v2 1 2) (v2 0 0) (v2 3 0));
  Alcotest.check qt "clamped to endpoint" (Q.of_int 5)
    (D.dist2_point_segment (v2 5 1) (v2 0 0) (v2 3 0));
  Alcotest.check qt "degenerate segment" (Q.of_int 2)
    (D.dist2_point_segment (v2 1 1) (v2 0 0) (v2 0 0))

let test_point_hull_2d () =
  let tri = [v2 0 0; v2 4 0; v2 0 4] in
  Alcotest.check qt "inside is zero" Q.zero
    (D.dist2_point_hull ~dim:2 (v2 1 1) tri);
  Alcotest.check qt "outside hits the hypotenuse" Q.two
    (D.dist2_point_hull ~dim:2 (v2 3 3) tri)

let test_point_hull_1d () =
  let pts = [Vec.of_ints [2]; Vec.of_ints [5]] in
  Alcotest.check qt "left" (Q.of_int 4) (D.dist2_point_hull ~dim:1 (Vec.of_ints [0]) pts);
  Alcotest.check qt "inside" Q.zero (D.dist2_point_hull ~dim:1 (Vec.of_ints [3]) pts);
  Alcotest.check qt "right" Q.one (D.dist2_point_hull ~dim:1 (Vec.of_ints [6]) pts)

let test_point_hull_3d () =
  let tet = [v3 0 0 0; v3 1 0 0; v3 0 1 0; v3 0 0 1] in
  Alcotest.check qt "inside zero" Q.zero
    (D.dist2_point_hull ~dim:3 (Vec.make [Q.of_ints 1 4; Q.of_ints 1 4; Q.of_ints 1 4]) tet);
  (* (1,1,1) projects onto the x+y+z=1 facet: distance² = 4/3. *)
  Alcotest.check qt "outside facet" (Q.of_ints 4 3)
    (D.dist2_point_hull ~dim:3 (v3 1 1 1) tet);
  (* Far along an axis: nearest point is the vertex (1,0,0). *)
  Alcotest.check qt "vertex region" (Q.of_int 4)
    (D.dist2_point_hull ~dim:3 (v3 3 0 0) tet)

let test_hausdorff_known () =
  let sq a b = [v2 a a; v2 b a; v2 b b; v2 a b] in
  Alcotest.check qt "shifted squares" (Q.of_int 8)
    (D.hausdorff2 ~dim:2 (sq 0 2) (sq 2 4));
  Alcotest.check qt "nested squares" (Q.of_int 2)
    (D.hausdorff2 ~dim:2 (sq 0 4) (sq 1 3));
  Alcotest.check qt "identical" Q.zero (D.hausdorff2 ~dim:2 (sq 0 4) (sq 0 4))

(* Embedding 2-d instances into the z = 0 plane of 3-space must not
   change any distance: this cross-checks the generic nd path against
   the specialized planar path. *)
let embed p = Vec.make [p.(0); p.(1); Q.zero]

let prop_embedding_invariance =
  Gen.prop ~count:40 "3d embedding preserves point-hull distance"
    (QCheck.pair (Gen.arb_int_points ~min_size:1 ~max_size:6 2)
       (QCheck.make ~print:Vec.to_string (Gen.gen_int_vec 2)))
    (fun (pts, p) ->
       let d2 = D.dist2_point_hull ~dim:2 p pts in
       let d3 = D.dist2_point_hull ~dim:3 (embed p) (List.map embed pts) in
       Q.equal d2 d3)

let prop_hausdorff_vs_vertex_distances =
  Gen.prop ~count:80 "directed component bounded by vertex distances"
    (QCheck.pair (Gen.arb_points ~min_size:1 ~max_size:6 2)
       (Gen.arb_points ~min_size:1 ~max_size:6 2))
    (fun (p, q) ->
       (* d_H(P,Q)² is at most max over vertex pairs of dist². *)
       let max_pair =
         List.fold_left
           (fun acc a ->
              List.fold_left (fun acc b -> Q.max acc (Vec.dist2 a b)) acc q)
           Q.zero p
       in
       Q.leq (D.hausdorff2 ~dim:2 p q) max_pair)

let prop_hausdorff_translation =
  Gen.prop ~count:80 "translation invariance"
    (QCheck.triple (Gen.arb_points ~min_size:1 ~max_size:6 2)
       (Gen.arb_points ~min_size:1 ~max_size:6 2)
       (Gen.arb_vec 2))
    (fun (p, q, t) ->
       let tr = List.map (Vec.add t) in
       Q.equal (D.hausdorff2 ~dim:2 p q) (D.hausdorff2 ~dim:2 (tr p) (tr q)))

(* At d >= 3 the Hausdorff distance extracts each target's extreme
   points once and projects onto them directly. It must equal the
   maximum of the public point-hull distances, which extract them on
   every call. *)
let prop_hausdorff_3d_per_vertex =
  Gen.prop ~count:30 "3d hausdorff = per-vertex point-hull distances"
    (QCheck.pair (Gen.arb_int_points ~min_size:1 ~max_size:6 3)
       (Gen.arb_int_points ~min_size:1 ~max_size:6 3))
    (fun (p, q) ->
       let directed from_pts to_pts =
         List.fold_left
           (fun acc v -> Q.max acc (D.dist2_point_hull ~dim:3 v to_pts))
           Q.zero from_pts
       in
       Q.equal (D.hausdorff2 ~dim:3 p q)
         (Q.max (directed p q) (directed q p)))

let suite =
  [ ( "distance",
      [ Alcotest.test_case "point-segment" `Quick test_point_segment;
        Alcotest.test_case "point-hull 2d" `Quick test_point_hull_2d;
        Alcotest.test_case "point-hull 1d" `Quick test_point_hull_1d;
        Alcotest.test_case "point-hull 3d" `Quick test_point_hull_3d;
        Alcotest.test_case "hausdorff known" `Quick test_hausdorff_known ]
      @ List.map Gen.qtest
          [ prop_embedding_invariance;
            prop_hausdorff_vs_vertex_distances;
            prop_hausdorff_translation;
            prop_hausdorff_3d_per_vertex ] ) ]
