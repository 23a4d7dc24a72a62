(* Common-denominator grids: scale_points clears denominators with the
   least common multiple, and a round grid is built lazily, once, and
   shared by every construction whose denominators divide it. *)

module Q = Numeric.Q
module B = Numeric.Bigint
module Grid = Numeric.Grid

let bigint = Alcotest.testable (Fmt.of_to_string B.to_string) B.equal

let q = Q.of_ints

(* Outside any round, the grid is local to the call: every scaled
   coordinate is an integer equal to l times the original, and l is the
   least such multiple (the cofactors l / den share no factor). *)
let prop_scale_points =
  Gen.prop ~count:200 "scale_points clears denominators"
    (Gen.arb_points ~max_size:6 3)
    (fun pts ->
       let scans0, _ = Grid.grid_stats () in
       let scaled, l = Grid.scale_points pts in
       let scans1, _ = Grid.grid_stats () in
       let cofactors =
         List.concat_map
           (fun p -> Array.to_list (Array.map (fun (x : Q.t) -> B.div l x.Q.den) p))
           pts
       in
       Grid.current () = None
       && scans1 = scans0 + 1
       && B.sign l > 0
       && List.for_all2
            (fun p s ->
               Array.for_all2
                 (fun x (y : Q.t) ->
                    B.equal y.Q.den B.one && Q.equal y (Q.mul (Q.of_bigint l) x))
                 p s)
            pts scaled
       && B.equal (List.fold_left B.gcd B.zero cofactors) B.one)

let test_round_grid () =
  let pts = [ [| q 1 2; q 1 3 |]; [| q 3 4; Q.zero |] ] in
  let builds = ref 0 in
  (* lcm 12, times the 5 of a five-point average *)
  let build () = incr builds; Grid.make_scaled ~mult:5 pts in
  let scans0, hits0 = Grid.grid_stats () in
  Grid.with_round build (fun () ->
      Alcotest.(check int) "pending until a construction scales" 0 !builds;
      let scaled, l = Grid.scale_points pts in
      Alcotest.check bigint "round grid" (B.of_int 60) l;
      Alcotest.(check (list (list string))) "scaled by 60"
        [ [ "30"; "20" ]; [ "45"; "0" ] ]
        (List.map (fun p -> Array.to_list (Array.map Q.to_string p)) scaled);
      (* denominators 10 and 15 divide 60 *)
      let _, l = Grid.scale_points [ [| q 1 10; q 7 15 |] ] in
      Alcotest.check bigint "shared by a divisor" (B.of_int 60) l;
      (* 7 does not: that call scans a grid of its own *)
      let scaled, l = Grid.scale_points [ [| q 1 7; q 2 1 |] ] in
      Alcotest.check bigint "local fallback" (B.of_int 7) l;
      Alcotest.(check (list string)) "scaled by 7" [ "1"; "14" ]
        (Array.to_list (Array.map Q.to_string (List.hd scaled)));
      (* a nested ensure_round leaves the round grid in place *)
      Grid.ensure_round
        (fun () -> Alcotest.fail "ensure_round shadowed the round grid")
        (fun () ->
           let _, l = Grid.scale_points pts in
           Alcotest.check bigint "ensure_round keeps the round grid"
             (B.of_int 60) l));
  Alcotest.(check int) "built once" 1 !builds;
  let scans1, hits1 = Grid.grid_stats () in
  Alcotest.(check int) "round hits" 3 (hits1 - hits0);
  Alcotest.(check int) "local scans" 1 (scans1 - scans0);
  Alcotest.(check bool) "slot restored" true (Grid.current () = None);
  Grid.with_round
    (fun () -> Alcotest.fail "a round that scales nothing built its grid")
    (fun () -> ())

let suite =
  [ ( "grid",
      [ Gen.qtest prop_scale_points;
        Alcotest.test_case "round grid is lazy and shared" `Quick
          test_round_grid ] ) ]
