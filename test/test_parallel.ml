(* Tests for the domain work pool: every combinator must agree with
   its sequential List equivalent (content AND order) for any pool
   size, exceptions must propagate to the caller, and full Algorithm
   CC executions must produce byte-identical transcripts whether the
   global pool has 1 domain or 4 — the determinism guarantee the
   experiment harness relies on. *)

module Pool = Parallel.Pool
module Q = Numeric.Q
module Polytope = Geometry.Polytope
module Executor = Chc.Executor
module Cc = Chc.Cc

let f x = (x * x) - (3 * x) + 1
let fm x = if x mod 3 = 0 then None else Some (x + 7)
let fc x = [x; -x; 2 * x]

(* Each case runs on a pool of its own, joined before the next case. *)
let combinator_props =
  List.concat_map
    (fun size ->
       let arb = QCheck.(list small_signed_int) in
       [ Gen.prop ~count:100
           (Printf.sprintf "parallel_map = List.map (pool size %d)" size)
           arb
           (fun xs ->
              Pool.with_pool ~size (fun pool ->
                  Pool.parallel_map pool f xs = List.map f xs));
         Gen.prop ~count:100
           (Printf.sprintf "parallel_filter_map = List.filter_map (pool size %d)"
              size)
           arb
           (fun xs ->
              Pool.with_pool ~size (fun pool ->
                  Pool.parallel_filter_map pool fm xs = List.filter_map fm xs));
         Gen.prop ~count:100
           (Printf.sprintf "parallel_concat_map = List.concat_map (pool size %d)"
              size)
           arb
           (fun xs ->
              Pool.with_pool ~size (fun pool ->
                  Pool.parallel_concat_map pool fc xs = List.concat_map fc xs)) ])
    [1; 2; 4]

let test_exception_propagates () =
  Pool.with_pool ~size:4 @@ fun pool ->
  Alcotest.check_raises "worker exception re-raised in caller" Exit
    (fun () ->
       ignore
         (Pool.parallel_map pool
            (fun x -> if x = 13 then raise Exit else x)
            (List.init 40 Fun.id)));
  (* The pool survives a failed batch. *)
  Alcotest.(check (list int)) "pool usable after exception"
    (List.init 10 f)
    (Pool.parallel_map pool f (List.init 10 Fun.id))

let test_nested () =
  Pool.with_pool ~size:4 @@ fun pool ->
  let expected =
    List.map (fun i -> List.map (fun j -> f (i + j)) [0; 1; 2]) (List.init 8 Fun.id)
  in
  Alcotest.(check (list (list int))) "nested combinators run sequentially inside workers"
    expected
    (Pool.parallel_map pool
       (fun i -> Pool.parallel_map pool (fun j -> f (i + j)) [0; 1; 2])
       (List.init 8 Fun.id))

(* ------------------------------------------------------------------ *)
(* Determinism: the full protocol transcript — every h_i[t] and every
   output polytope — serialized to a string, must not depend on the
   pool size. *)

let transcript (r : Cc.result) =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun i o ->
       Buffer.add_string b
         (Printf.sprintf "out %d %s\n" i
            (match o with None -> "-" | Some p -> Polytope.to_string p)))
    r.Cc.outputs;
  Array.iteri
    (fun i h ->
       List.iter
         (fun (t, p) ->
            Buffer.add_string b
              (Printf.sprintf "h %d %d %s\n" i t (Polytope.to_string p)))
         h)
    r.Cc.history;
  Buffer.contents b

let transcript_with ~size spec =
  let saved = Pool.global_size () in
  Pool.set_global_size size;
  Fun.protect ~finally:(fun () -> Pool.set_global_size saved)
    (fun () -> transcript (Executor.run spec).Executor.result)

let check_pool_invariant config ~seed =
  let spec = Executor.default_spec ~config ~seed () in
  Alcotest.(check string) "1-domain and 4-domain transcripts identical"
    (transcript_with ~size:1 spec)
    (transcript_with ~size:4 spec)

let test_cc_transcript_d2 () =
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:2 ~eps:(Q.of_ints 1 4) ~lo:Q.zero ~hi:Q.one
  in
  List.iter (fun seed -> check_pool_invariant config ~seed) [3; 17]

let test_cc_transcript_d3 () =
  let config =
    Chc.Config.make ~n:6 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  check_pool_invariant config ~seed:42

(* ------------------------------------------------------------------ *)
(* Geometry runs on its caller's domain: with a 2-domain global pool,
   d >= 4 hulls, a flat 3-d hull (whose facets are swept in the 2-d
   subspace), a 4-d intersection and the LP extreme-point pass
   dispatch no pool batch, and under an Exact scope no predicate
   reaches the interval filter on any domain. *)

let points4 ~seed k =
  let st = Random.State.make [| seed |] in
  List.init k (fun _ ->
      Geometry.Vec.of_ints (List.init 4 (fun _ -> Random.State.int st 41 - 20)))

let test_geometry_dispatches_nothing () =
  let module Hullnd = Geometry.Hullnd in
  let cases =
    [ ( "4-d of_points",
        fun () -> ignore (Polytope.of_points ~dim:4 (points4 ~seed:1 14)) );
      ( "flat 3-d of_points",
        fun () ->
          (* z = x + y: a planar point set in 3-space *)
          let st = Random.State.make [| 2 |] in
          ignore
            (Polytope.of_points ~dim:3
               (List.init 12 (fun _ ->
                    let x = Random.State.int st 21 and y = Random.State.int st 21 in
                    Geometry.Vec.of_ints [ x; y; x + y ]))) );
      ( "4-d intersect",
        fun () ->
          ignore
            (Polytope.intersect
               [ Polytope.of_points ~dim:4 (points4 ~seed:3 6);
                 Polytope.of_points ~dim:4 (points4 ~seed:4 6) ]) );
      ( "4-d extreme_points_lp",
        fun () -> ignore (Hullnd.extreme_points_lp (points4 ~seed:5 14)) ) ]
  in
  let saved = Pool.global_size () in
  Pool.set_global_size 2;
  Fun.protect ~finally:(fun () -> Pool.set_global_size saved) @@ fun () ->
  List.iter
    (fun (name, run) ->
       let batches () = (Pool.stats (Pool.global ())).Pool.batches in
       let hits () = (Numeric.Kernel.totals ()).Numeric.Kernel.hits in
       let b0 = batches () and h0 = hits () in
       Numeric.Kernel.with_mode Numeric.Kernel.Exact run;
       Alcotest.(check int) (name ^ ": pool batches") b0 (batches ());
       Alcotest.(check int) (name ^ ": interval-filter hits under Exact") h0
         (hits ()))
    cases

(* Runs last in test_main: every worker domain that any pool spawned
   has been joined by the code that spawned it. *)
let live_workers () =
  List.fold_left
    (fun acc (s : Obs.Metrics.snapshot) ->
       match s with
       | { metric = "chc_pool_workers"; value = Gauge g; _ } -> int_of_float g
       | _ -> acc)
    (-1) (Obs.Metrics.snapshot_all ())

let workers_joined =
  [ ( "pool teardown",
      [ Alcotest.test_case "every worker domain is joined" `Quick (fun () ->
            Alcotest.(check int) "live pool workers" 0 (live_workers ())) ] ) ]

let suite =
  [ ( "parallel",
      [ Alcotest.test_case "exception propagation" `Quick
          test_exception_propagates;
        Alcotest.test_case "nested combinators" `Quick test_nested;
        Alcotest.test_case "cc transcript pool-size invariant (d=2)" `Quick
          test_cc_transcript_d2;
        Alcotest.test_case "cc transcript pool-size invariant (d=3)" `Slow
          test_cc_transcript_d3 ]
      @ List.map Gen.qtest combinator_props
      @ [ Alcotest.test_case "geometry dispatches no pool work" `Quick
            test_geometry_dispatches_nothing ] ) ]
