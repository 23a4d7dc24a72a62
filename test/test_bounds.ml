module Q = Numeric.Q
module Config = Chc.Config
module Bounds = Chc.Bounds

let cfg ~n ~f ~d ~eps =
  Config.make ~n ~f ~d ~eps ~lo:Q.zero ~hi:Q.one

let test_tightness () =
  (* t_end is the smallest positive t with (1-1/n)^t·sqrt(Ω²) < ε:
     check the inequality at t_end and its failure at t_end - 1. *)
  List.iter
    (fun (n, f, d, eps) ->
       let c = cfg ~n ~f ~d ~eps in
       let t = Bounds.t_end c in
       Alcotest.(check bool) "t_end >= 1" true (t >= 1);
       let ratio2 = Q.square (Q.of_ints (n - 1) n) in
       let lhs2 at = Q.mul (Q.pow ratio2 at) (Bounds.omega2_bound c) in
       let eps2 = Q.square eps in
       Alcotest.(check bool) "satisfied at t_end" true (Q.lt (lhs2 t) eps2);
       if t > 1 then
         Alcotest.(check bool) "violated at t_end - 1" false
           (Q.lt (lhs2 (t - 1)) eps2))
    [ (5, 1, 2, Q.of_ints 1 10);
      (9, 2, 2, Q.of_ints 1 100);
      (4, 1, 1, Q.of_ints 1 2);
      (13, 3, 2, Q.of_ints 1 7);
      (6, 1, 3, Q.one) ]

let test_monotonic_in_eps () =
  let t_at eps = Bounds.t_end (cfg ~n:5 ~f:1 ~d:2 ~eps) in
  Alcotest.(check bool) "smaller eps, more rounds" true
    (t_at (Q.of_ints 1 1000) > t_at (Q.of_ints 1 10));
  Alcotest.(check bool) "order preserved" true
    (t_at (Q.of_ints 1 100) >= t_at (Q.of_ints 1 10))

let test_omega_bound () =
  let c = cfg ~n:5 ~f:1 ~d:2 ~eps:Q.one in
  (* d·n²·max(U²,μ²) = 2·25·1 = 50 *)
  Alcotest.(check bool) "omega²" true
    (Q.equal (Bounds.omega2_bound c) (Q.of_int 50))

let test_config_validation () =
  Alcotest.check_raises "resilience bound"
    (Invalid_argument "Config.make: resilience requires n >= (d+2)f + 1")
    (fun () -> ignore (cfg ~n:4 ~f:1 ~d:2 ~eps:Q.one));
  Alcotest.check_raises "eps > 0"
    (Invalid_argument "Config.make: eps must be positive")
    (fun () -> ignore (cfg ~n:5 ~f:1 ~d:2 ~eps:Q.zero));
  (* n = (d+2)f + 1 exactly is allowed. *)
  ignore (cfg ~n:6 ~f:1 ~d:3 ~eps:Q.one);
  ignore (cfg ~n:5 ~f:1 ~d:2 ~eps:Q.one)

let test_contraction () =
  let c = cfg ~n:5 ~f:1 ~d:2 ~eps:Q.one in
  Alcotest.(check (float 1e-12)) "t=0" 1.0 (Bounds.contraction_at c 0);
  Alcotest.(check (float 1e-12)) "t=1" 0.8 (Bounds.contraction_at c 1);
  Alcotest.(check (float 1e-12)) "t=2" 0.64 (Bounds.contraction_at c 2)

(* The rational walk [Bounds.t_end] replaced, kept as its oracle:
   multiply Ω² by (1 - 1/n)² until it drops below ε². *)
let t_end_walk (c : Config.t) =
  let ratio2 = Q.square (Q.of_ints (c.Config.n - 1) c.Config.n) in
  let eps2 = Q.square c.Config.eps in
  let rec go t lhs2 =
    if t >= 1 && Q.lt lhs2 eps2 then t else go (t + 1) (Q.mul lhs2 ratio2)
  in
  go 0 (Bounds.omega2_bound c)

(* Every legal f = 1 shape with n in {4,5,6,7,9,12,20} and d in 1..4,
   eight ε from 1 down to 1/10^5, three ranges: 528 configs. *)
let grid =
  List.concat_map
    (fun n ->
       List.concat_map
         (fun d ->
            if n < d + 3 then []
            else
              List.concat_map
                (fun eps ->
                   List.map
                     (fun (lo, hi) ->
                        Config.make ~n ~f:1 ~d ~eps ~lo:(Q.of_int lo)
                          ~hi:(Q.of_int hi))
                     [ (0, 1); (-3, 2); (0, 1000) ])
                (List.map (Q.of_ints 1)
                   [ 1; 2; 3; 10; 100; 1000; 10_000; 100_000 ]))
         [ 1; 2; 3; 4 ])
    [ 4; 5; 6; 7; 9; 12; 20 ]

let describe (c : Config.t) =
  Printf.sprintf "n=%d d=%d eps=%s [%s, %s]" c.Config.n c.Config.d
    (Q.to_string c.Config.eps) (Q.to_string c.Config.lo)
    (Q.to_string c.Config.hi)

(* The integer t_end equals the walk under the exact kernel, and the
   walk itself agrees under both kernels: at n = 20 its products have
   denominators past 1,017 bits, where the filtered comparison once
   answered from an enclosure that missed the true value. *)
let test_grid_oracle () =
  Alcotest.(check int) "grid size" 528 (List.length grid);
  List.iter
    (fun c ->
       let exact = Numeric.Kernel.with_mode Numeric.Kernel.Exact in
       let filtered = Numeric.Kernel.with_mode Numeric.Kernel.Filtered in
       let oracle = exact (fun () -> t_end_walk c) in
       Alcotest.(check int) (describe c ^ ": filtered walk") oracle
         (filtered (fun () -> t_end_walk c));
       Alcotest.(check int) (describe c ^ ": t_end, exact") oracle
         (exact (fun () -> Bounds.t_end c));
       Alcotest.(check int) (describe c ^ ": t_end, filtered") oracle
         (filtered (fun () -> Bounds.t_end c)))
    grid

let suite =
  [ ( "bounds",
      [ Alcotest.test_case "t_end tightness" `Quick test_tightness;
        Alcotest.test_case "monotone in eps" `Quick test_monotonic_in_eps;
        Alcotest.test_case "omega bound" `Quick test_omega_bound;
        Alcotest.test_case "config validation" `Quick test_config_validation;
        Alcotest.test_case "contraction" `Quick test_contraction;
        Alcotest.test_case "t_end = rational walk on 528 configs" `Quick
          test_grid_oracle ] ) ]
