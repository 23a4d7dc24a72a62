(* Common-denominator grids: scale_points clears denominators with the
   least common multiple of the points' own denominators. *)

module Q = Numeric.Q
module B = Numeric.Bigint
module Grid = Numeric.Grid

let bigint = Alcotest.testable (Fmt.of_to_string B.to_string) B.equal

let q = Q.of_ints

(* Every scaled coordinate is an integer equal to l times the
   original, and l is the least such multiple (the cofactors l / den
   share no factor). *)
let prop_scale_points =
  Gen.prop ~count:200 "scale_points clears denominators"
    (Gen.arb_points ~max_size:6 3)
    (fun pts ->
       let scaled, l = Grid.scale_points pts in
       let cofactors =
         List.concat_map
           (fun p -> Array.to_list (Array.map (fun (x : Q.t) -> B.div l x.Q.den) p))
           pts
       in
       B.sign l > 0
       && List.for_all2
            (fun p s ->
               Array.for_all2
                 (fun x (y : Q.t) ->
                    B.equal y.Q.den B.one && Q.equal y (Q.mul (Q.of_bigint l) x))
                 p s)
            pts scaled
       && B.equal (List.fold_left B.gcd B.zero cofactors) B.one)

(* The grid is a function of the call's points: the same points scale
   by the same l whatever was scaled before, and a set that divides
   another's denominators does not borrow its grid. *)
let test_grid_of_own_points () =
  let strings pts =
    List.map (fun p -> Array.to_list (Array.map Q.to_string p)) pts
  in
  let pts = [ [| q 1 2; q 1 3 |]; [| q 3 4; Q.zero |] ] in
  let scaled, l = Grid.scale_points pts in
  Alcotest.check bigint "lcm of 2, 3 and 4" (B.of_int 12) l;
  Alcotest.(check (list (list string))) "scaled by 12"
    [ [ "6"; "4" ]; [ "9"; "0" ] ] (strings scaled);
  let _, l = Grid.scale_points [ [| q 1 6; q 5 1 |] ] in
  Alcotest.check bigint "a divisor's own lcm" (B.of_int 6) l;
  let again, l = Grid.scale_points pts in
  Alcotest.check bigint "same points, same grid" (B.of_int 12) l;
  Alcotest.(check (list (list string))) "same scaled points"
    (strings scaled) (strings again);
  let ints = [ [| Q.of_int 3; Q.of_int (-2) |] ] in
  let scaled, l = Grid.scale_points ints in
  Alcotest.check bigint "integers keep l = 1" B.one l;
  Alcotest.(check bool) "integers come back as they are" true
    (List.for_all2 ( == ) (List.hd ints |> Array.to_list)
       (List.hd scaled |> Array.to_list))

let suite =
  [ ( "grid",
      [ Gen.qtest prop_scale_points;
        Alcotest.test_case "grid of the call's own points" `Quick
          test_grid_of_own_points ] ) ]
