(* End-to-end tests of Algorithm CC: the three correctness properties
   of Theorem 2 (validity, ε-agreement, termination), the optimality
   certificate of Lemma 6 / Theorem 3, degenerate cases, and
   determinism. Agreement and containment checks are exact (rational);
   no tolerances are involved anywhere. *)

module Q = Numeric.Q
module Vec = Geometry.Vec
module Polytope = Geometry.Polytope
module Config = Chc.Config
module Cc = Chc.Cc
module Executor = Chc.Executor
module Scheduler = Runtime.Scheduler
module Crash = Runtime.Crash

let cfg ?(eps = Q.of_ints 1 4) ~n ~f ~d () =
  Config.make ~n ~f ~d ~eps ~lo:Q.zero ~hi:Q.one

let check_report (r : Executor.report) =
  Alcotest.(check bool) "termination" true r.Executor.terminated;
  Alcotest.(check bool) "validity" true r.Executor.valid;
  Alcotest.(check bool) "eps-agreement" true r.Executor.agreement_ok;
  Alcotest.(check bool) "optimality (I_Z containment)" true r.Executor.optimal

let test_basic_2d () =
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  check_report (Executor.run (Executor.default_spec ~config ~seed:11 ()))

let test_fault_free () =
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  (* f = 1 faults tolerated but nobody actually crashes. *)
  let spec = Executor.default_spec ~config ~seed:12 ~faulty:[] () in
  let r = Executor.run spec in
  check_report r;
  (* With no faulty process every process decides. *)
  Alcotest.(check bool) "all decided" true
    (Array.for_all (fun o -> o <> None) r.Executor.result.Cc.outputs)

let test_f_zero () =
  let config = cfg ~n:3 ~f:0 ~d:2 () in
  let r = Executor.run (Executor.default_spec ~config ~seed:13 ()) in
  check_report r;
  (* f = 0: the round-0 polytope is the full hull and stays the
     decision's upper bound; outputs must equal the hull of all inputs
     eventually contain I_Z = H(X_Z). *)
  Alcotest.(check bool) "iz exists" true (r.Executor.iz <> None)

let test_identical_inputs () =
  (* All processes share one input: the decision must be exactly that
     single point (degenerate case from Section 6). *)
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  let x = Vec.make [Q.half; Q.of_ints 1 3] in
  let spec =
    { (Executor.default_spec ~config ~seed:14 ()) with
      Executor.inputs = Array.make 5 x }
  in
  let r = Executor.run spec in
  check_report r;
  Array.iter
    (function
      | None -> ()
      | Some h ->
        Alcotest.(check bool) "single point" true (Polytope.is_point h);
        Alcotest.(check bool) "the shared input" true
          (Vec.equal (List.hd (Polytope.vertices h)) x))
    r.Executor.result.Cc.outputs

let test_1d () =
  let config = cfg ~n:4 ~f:1 ~d:1 ~eps:(Q.of_ints 1 50) () in
  check_report (Executor.run (Executor.default_spec ~config ~seed:15 ()))

let test_3d () =
  (* Generic-position rational inputs in d=3 make the exact Minkowski
     pruning very expensive (see DESIGN.md); a coarse input lattice
     keeps the polytopes small while still exercising the full 3-d
     pipeline (hrep intersection, nd L-combination, exact volumes,
     nd Hausdorff) over 13 genuine rounds. *)
  let config = cfg ~n:6 ~f:1 ~d:3 ~eps:Q.one () in
  let rng = Runtime.Rng.create 7 in
  let inputs = Executor.random_inputs ~config ~rng ~grid:4 () in
  let spec = { (Executor.default_spec ~config ~seed:16 ()) with
               Executor.inputs = inputs } in
  check_report (Executor.run spec)

let test_3d_cube () =
  (* Structured inputs: the corners of the unit cube. *)
  let config = cfg ~n:6 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) () in
  let inputs =
    [| Vec.of_ints [0;0;0]; Vec.of_ints [1;0;0]; Vec.of_ints [0;1;0];
       Vec.of_ints [0;0;1]; Vec.of_ints [1;1;0]; Vec.of_ints [1;1;1] |]
  in
  let spec = { (Executor.default_spec ~config ~seed:17 ()) with
               Executor.inputs = inputs } in
  let r = Executor.run spec in
  check_report r;
  (* The decided polytope may legitimately be lower-dimensional here
     (the round-0 intersection of corner subsets can be flat); exact
     3-d volume must still be computable and non-negative. *)
  match r.Executor.min_output_volume with
  | Some v -> Alcotest.(check bool) "3d volume computed" true (Q.sign v >= 0)
  | None -> Alcotest.fail "no 3d volume"

let test_tight_n () =
  (* n = (d+2)f + 1 exactly — the resilience frontier. *)
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  check_report (Executor.run (Executor.default_spec ~config ~seed:17 ()));
  let config = cfg ~n:7 ~f:2 ~d:1 () in
  check_report (Executor.run (Executor.default_spec ~config ~seed:18 ()))

let test_immediate_crashes () =
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  let spec = Executor.default_spec ~config ~seed:19 () in
  let crash = Array.make 5 Crash.Never in
  crash.(0) <- Crash.After_sends 0;
  check_report (Executor.run { spec with Executor.crash })

let test_lag_adversary () =
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  let spec =
    Executor.default_spec ~config ~seed:20
      ~scheduler:(Scheduler.lag_sources [4]) ()
  in
  check_report (Executor.run spec)

let test_determinism () =
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  let run () =
    let r = Executor.run (Executor.default_spec ~config ~seed:21 ()) in
    r.Executor.result.Cc.outputs
  in
  let o1 = run () and o2 = run () in
  Array.iteri
    (fun i a ->
       match a, o2.(i) with
       | None, None -> ()
       | Some p, Some q ->
         Alcotest.(check bool) "same polytope" true (Polytope.equal p q)
       | _ -> Alcotest.fail "determinism broken")
    o1

let test_output_contains_iz_strictly_useful () =
  (* The decided polytope is a genuine region (not always a point):
     with spread-out inputs and n well above the bound, the output
     volume is positive. *)
  let config = cfg ~n:7 ~f:1 ~d:2 () in
  let corners =
    [| Vec.of_ints [0; 0]; Vec.make [Q.one; Q.zero]; Vec.make [Q.zero; Q.one];
       Vec.make [Q.one; Q.one]; Vec.make [Q.half; Q.zero];
       Vec.make [Q.zero; Q.half]; Vec.make [Q.half; Q.one] |]
  in
  let spec =
    { (Executor.default_spec ~config ~seed:22 ()) with
      Executor.inputs = corners }
  in
  let r = Executor.run spec in
  check_report r;
  (match r.Executor.min_output_volume with
   | Some v -> Alcotest.(check bool) "positive volume" true (Q.sign v > 0)
   | None -> Alcotest.fail "no volume")

(* --- randomized sweeps ----------------------------------------------- *)

let sweep ~name ~count gen_params =
  Gen.prop ~count name
    (QCheck.make
       ~print:(fun (seed, n, f, d) ->
           Printf.sprintf "seed=%d n=%d f=%d d=%d" seed n f d)
       gen_params)
    (fun (seed, n, f, d) ->
       let config = cfg ~n ~f ~d () in
       let r = Executor.run (Executor.default_spec ~config ~seed ()) in
       r.Executor.terminated && r.Executor.valid && r.Executor.agreement_ok
       && r.Executor.optimal)

let prop_sweep_2d =
  sweep ~name:"E3/E4 sweep d=2" ~count:25
    QCheck.Gen.(
      let* seed = 0 -- 100000 in
      let* n = 5 -- 7 in
      return (seed, n, 1, 2))

let prop_sweep_1d =
  sweep ~name:"E3/E4 sweep d=1" ~count:25
    QCheck.Gen.(
      let* seed = 0 -- 100000 in
      let* n = 4 -- 8 in
      let f = (n - 1) / 3 in
      return (seed, n, f, 1))

let prop_schedulers =
  Gen.prop ~count:20 "properties hold under every scheduler"
    (QCheck.make
       ~print:(fun (seed, which) -> Printf.sprintf "seed=%d sched=%d" seed which)
       QCheck.Gen.(pair (0 -- 100000) (0 -- 3)))
    (fun (seed, which) ->
       let scheduler =
         match which with
         | 0 -> Scheduler.random_uniform
         | 1 -> Scheduler.round_robin
         | 2 -> Scheduler.lifo_bias
         | _ -> Scheduler.lag_sources [0]
       in
       let config = cfg ~n:5 ~f:1 ~d:2 () in
       let r = Executor.run (Executor.default_spec ~config ~seed ~scheduler ()) in
       r.Executor.terminated && r.Executor.valid && r.Executor.agreement_ok
       && r.Executor.optimal)

(* Executor.round_metrics' diameter against the full pairwise maximum
   over the round's witnesses. round_metrics drops equal witnesses
   before its pairwise loop: the maximum must not move, and a round
   whose witnesses all agree still reports 0, not "no diameter". *)
let test_round_diameter () =
  let config = cfg ~n:5 ~f:1 ~d:2 () in
  let witnesses = 3 in
  (* the expected diameter of round [t], and whether two of its
     witnesses are equal *)
  let brute (r : Executor.report) t =
    let polys =
      List.init config.Config.n Fun.id
      |> List.filter (fun i -> not (List.mem i r.Executor.faulty))
      |> List.filter_map (fun i ->
          List.assoc_opt t r.Executor.result.Cc.history.(i))
      |> List.filteri (fun idx _ -> idx < witnesses)
    in
    match polys with
    | [] | [ _ ] -> (None, false)
    | _ ->
      let d =
        List.fold_left
          (fun acc p ->
             List.fold_left
               (fun acc q -> Float.max acc (Polytope.hausdorff p q))
               acc polys)
          0.0 polys
      in
      (Some d, List.length (Polytope.distinct polys) < List.length polys)
  in
  (* checks every round and returns how many had equal witnesses *)
  let check name (r : Executor.report) =
    let rounds =
      Executor.round_metrics ~witnesses ~faulty:r.Executor.faulty
        r.Executor.result
    in
    Alcotest.(check bool) (name ^ ": has rounds") true (rounds <> []);
    List.fold_left
      (fun dups (m : Obs.Report.round) ->
         let expect, dup = brute r m.Obs.Report.round in
         Alcotest.(check (option (float 0.0)))
           (Printf.sprintf "%s: round %d" name m.Obs.Report.round)
           expect m.Obs.Report.diameter;
         if dup then dups + 1 else dups)
      0 rounds
  in
  let random = Executor.run (Executor.default_spec ~config ~seed:11 ()) in
  Alcotest.(check bool) "random inputs: some round has equal witnesses"
    true (check "random inputs" random > 0);
  let x = Vec.make [Q.half; Q.of_ints 1 3] in
  let same =
    Executor.run
      { (Executor.default_spec ~config ~seed:14 ()) with
        Executor.inputs = Array.make 5 x }
  in
  ignore (check "identical inputs" same : int);
  List.iter
    (fun (m : Obs.Report.round) ->
       Alcotest.(check (option (float 0.0)))
         (Printf.sprintf "identical inputs: round %d is 0" m.Obs.Report.round)
         (Some 0.0) m.Obs.Report.diameter)
    (Executor.round_metrics ~witnesses ~faulty:same.Executor.faulty
       same.Executor.result)

(* A pinned optimality-grading finding (EXPERIMENTS.md, E4). In both
   executions faulty process 0 finished round 0 with a stable view
   strictly inside every fault-free view and its round-1 broadcast
   reached a channel. Iz.compute takes Z over the fault-free views
   only (DESIGN S9), so the I_Z it grades is lost by the round-1
   averages and [optimal] reads false, though every fault-free h_i[0]
   contains it. Taken over the views of the processes whose round-1
   broadcast was sent (the V - F[1] of the paper's Claim 1), I_Z is
   inside every fault-free h_i[t]. The grader is left as it is; this
   test pins the mechanism until Section 6's Z is settled. *)
let test_optimality_finding () =
  List.iter
    (fun (label, (c : Chc.Cli.common)) ->
       let spec =
         match Chc.Cli.scenario_of_common c with
         | Ok spec -> spec
         | Error e -> Alcotest.fail e
       in
       let r = Executor.run spec in
       let res = r.Executor.result in
       let check what = Alcotest.(check bool) (label ^ ": " ^ what) true in
       let procs = List.init c.Chc.Cli.n Fun.id in
       let fault_free =
         List.filter (fun i -> not (List.mem i r.Executor.faulty)) procs
       in
       let view i = Option.value ~default:[] res.Cc.round0_views.(i) in
       let sent_round1 i = List.assoc_opt 1 res.Cc.sent_round.(i) = Some true in
       let within small big =
         List.for_all (fun (o, _) -> List.mem_assoc o big) small
       in
       Alcotest.(check (list int)) (label ^ ": faulty set") [ 0 ]
         r.Executor.faulty;
       check "the faulty view is strictly inside every fault-free view"
         (res.Cc.round0_views.(0) <> None
          && List.for_all
               (fun i ->
                  within (view 0) (view i)
                  && List.length (view 0) < List.length (view i))
               fault_free);
       check "the faulty process's round-1 broadcast was sent"
         (sent_round1 0);
       check "graded not optimal" (not r.Executor.optimal);
       (match r.Executor.iz with
        | None -> Alcotest.fail (label ^ ": graded I_Z is empty")
        | Some iz ->
          check "every fault-free h_i[0] contains the graded I_Z"
            (List.for_all
               (fun i ->
                  match List.assoc_opt 0 res.Cc.history.(i) with
                  | Some h0 -> Polytope.subset iz h0
                  | None -> false)
               fault_free));
       let senders = List.filter sent_round1 procs in
       let z =
         List.filter
           (fun (o, _) ->
              List.for_all (fun i -> List.mem_assoc o (view i)) senders)
           (view (List.hd senders))
       in
       let { Config.d; f; _ } = spec.Executor.config in
       check "Z over the round-1 senders holds more than f points"
         (List.length z > f);
       match Polytope.depth_region ~dim:d ~f (List.map snd z) with
       | None -> Alcotest.fail (label ^ ": I_Z over the senders is empty")
       | Some iz ->
         check "I_Z over the round-1 senders is in every fault-free h_i[t]"
           (List.for_all
              (fun i ->
                 List.for_all (fun (_, h) -> Polytope.subset iz h)
                   res.Cc.history.(i))
              fault_free))
    (let run ~n ~d ~scheduler ~seed =
       { Chc.Cli.n; f = 1; d; eps = "1/10"; lo = "0"; hi = "1"; seed;
         scheduler; naive = false; kernel = None; inputs = None;
         faulty = None }
     in
     [ ("n4-d1 random seed 6", run ~n:4 ~d:1 ~scheduler:"random" ~seed:6);
       ("n6-d3 lag:0,1 seed 2", run ~n:6 ~d:3 ~scheduler:"lag:0,1" ~seed:2) ])

let suite =
  [ ( "algorithm_cc",
      [ Alcotest.test_case "basic 2d" `Quick test_basic_2d;
        Alcotest.test_case "fault-free run" `Quick test_fault_free;
        Alcotest.test_case "f = 0" `Quick test_f_zero;
        Alcotest.test_case "identical inputs -> point" `Quick test_identical_inputs;
        Alcotest.test_case "1d" `Quick test_1d;
        Alcotest.test_case "3d" `Slow test_3d;
        Alcotest.test_case "3d cube corners" `Quick test_3d_cube;
        Alcotest.test_case "tight n" `Quick test_tight_n;
        Alcotest.test_case "immediate crashes" `Quick test_immediate_crashes;
        Alcotest.test_case "lag adversary" `Quick test_lag_adversary;
        Alcotest.test_case "determinism" `Quick test_determinism;
        Alcotest.test_case "positive-volume outputs" `Quick
          test_output_contains_iz_strictly_useful ]
      @ List.map Gen.qtest [ prop_sweep_2d; prop_sweep_1d; prop_schedulers ]
      @ [ Alcotest.test_case "round diameter = max over witness pairs" `Quick
            test_round_diameter;
          Alcotest.test_case "optimality finding: faulty round-1 view" `Quick
            test_optimality_finding ] ) ]
