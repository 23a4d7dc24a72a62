module Q = Numeric.Q
module Vec = Geometry.Vec
module P = Geometry.Polytope

let v2 x y = Vec.of_ints [x; y]
let qt = Alcotest.testable Q.pp Q.equal
let pt = Alcotest.testable P.pp P.equal

let square a b =
  P.of_points ~dim:2 [v2 a a; v2 b a; v2 b b; v2 a b]

let test_equal_canonical () =
  let p1 = P.of_points ~dim:2 [v2 0 0; v2 2 0; v2 2 2; v2 0 2; v2 1 1] in
  let p2 = P.of_points ~dim:2 [v2 2 2; v2 0 2; v2 0 0; v2 1 0; v2 2 0] in
  Alcotest.check pt "same set, same canonical form" p1 p2

let test_subset () =
  Alcotest.(check bool) "nested" true (P.subset (square 1 2) (square 0 3));
  Alcotest.(check bool) "not nested" false (P.subset (square 0 3) (square 1 2));
  Alcotest.(check bool) "self" true (P.subset (square 0 3) (square 0 3))

let test_average_identity () =
  (* For a convex set, (1/2)P ⊕ (1/2)P = P. *)
  let p = P.of_points ~dim:2 [v2 0 0; v2 4 0; v2 1 3] in
  Alcotest.check pt "self-average" p (P.average [p; p])

let test_average_of_points () =
  (* L of singletons is the singleton of the average. *)
  let a = P.singleton (v2 0 0) and b = P.singleton (v2 2 4) in
  Alcotest.check pt "midpoint" (P.singleton (v2 1 2)) (P.average [a; b])

let test_lincomb_weights_validation () =
  let p = square 0 1 in
  Alcotest.check_raises "weights must sum to 1"
    (Invalid_argument "Polytope.linear_combination: weights must sum to 1")
    (fun () -> ignore (P.linear_combination [(Q.half, p); (Q.half, p); (Q.half, p)]));
  Alcotest.check_raises "no negative weights"
    (Invalid_argument "Polytope.linear_combination: negative weight")
    (fun () ->
       ignore (P.linear_combination [(Q.of_int 2, p); (Q.minus_one, p)]))

let test_volume () =
  Alcotest.(check (option (Alcotest.testable Q.pp Q.equal))) "square"
    (Some (Q.of_int 9)) (P.volume (square 0 3));
  let seg = P.of_points ~dim:1 [Vec.of_ints [2]; Vec.of_ints [7]] in
  Alcotest.(check (option qt)) "interval length" (Some (Q.of_int 5)) (P.volume seg);
  let p4 = P.of_points ~dim:4 [Vec.of_ints [0;0;0;0]; Vec.of_ints [1;0;0;0]] in
  Alcotest.(check (option qt)) "4d unsupported" None (P.volume p4)

let test_intersect_empty () =
  Alcotest.(check bool) "disjoint" true
    (P.intersect [square 0 1; square 5 6] = None);
  (match P.intersect [square 0 2; square 2 4] with
   | Some p -> Alcotest.(check bool) "corner touch is a point" true (P.is_point p)
   | None -> Alcotest.fail "touching squares intersect")

let test_support () =
  let p = square 0 3 in
  let value, arg = P.support p (v2 1 1) in
  Alcotest.check qt "support value" (Q.of_int 6) value;
  Alcotest.(check bool) "arg is the far corner" true (Vec.equal arg (v2 3 3))

let test_steiner_inside () =
  let p = P.of_points ~dim:2 [v2 0 0; v2 7 1; v2 3 5] in
  Alcotest.(check bool) "steiner inside" true (P.contains p (P.steiner_point p));
  let seg = P.of_points ~dim:1 [Vec.of_ints [0]; Vec.of_ints [4]] in
  Alcotest.(check bool) "1d midpoint" true
    (Vec.equal (P.steiner_point seg) (Vec.of_ints [2]))

(* --- the L operator merges equal terms -------------------------------- *)

let counter metric labels =
  List.fold_left
    (fun acc s ->
       match s with
       | { Obs.Metrics.metric = m; labels = l; value = Obs.Metrics.Counter v }
         when m = metric && l = labels -> acc + v
       | _ -> acc)
    0 (Obs.Metrics.snapshot_all ())

let lop result = counter "chc_lop_total" [ ("result", result) ]

let cube3 =
  P.of_points ~dim:3
    (List.concat_map
       (fun x ->
          List.concat_map
            (fun y -> List.map (fun z -> Vec.of_ints [ x; y; z ]) [ 0; 2 ])
            [ 0; 2 ])
       [ 0; 2 ])

(* Inputs that agree are answered with the input itself: no scaling,
   no hull and no Minkowski pass. Caches are bypassed so a hit cannot
   stand in for the skipped work. *)
let test_agreeing_round_no_geometry () =
  let merged0 = lop "merged" and sums0 = lop "minkowski" in
  let h =
    Parallel.Memo.with_bypass (fun () ->
        P.average [ cube3; cube3; cube3; cube3; cube3 ])
  in
  Alcotest.(check bool) "the input itself comes back" true (h == cube3);
  Alcotest.(check int) "counted as merged" (merged0 + 1) (lop "merged");
  Alcotest.(check int) "no Minkowski sum" sums0 (lop "minkowski")

let test_merge_counters () =
  let merged0 = lop "merged" and sums0 = lop "minkowski" in
  let p = square 0 2 and q = square 1 3 in
  let r =
    P.linear_combination
      [ (Q.of_ints 1 4, p); (Q.zero, q); (Q.of_ints 1 4, q); (Q.half, p) ]
  in
  Alcotest.check pt "3/4 p + 1/4 q" (P.linear_combination
                                        [ (Q.of_ints 3 4, p); (Q.of_ints 1 4, q) ])
    r;
  Alcotest.(check int) "two Minkowski sums" (sums0 + 2) (lop "minkowski");
  (* a zero weight drops its term, leaving one *)
  Alcotest.check pt "1 p + 0 q" p (P.linear_combination [ (Q.one, p); (Q.zero, q) ]);
  Alcotest.(check int) "merged to one term" (merged0 + 1) (lop "merged")

(* In this crash-free FIFO run every process ends round 0 with the same
   view, so every L evaluation from round 1 on merges to one term; each
   of the n processes evaluates L once in each of its t_end rounds. *)
let test_fifo_execution_merges () =
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:2 ~eps:(Q.of_ints 1 10) ~lo:Q.zero ~hi:Q.one
  in
  let spec =
    Chc.Executor.default_spec ~config ~seed:3 ~faulty:[]
      ~scheduler:Runtime.Scheduler.fifo ()
  in
  let merged0 = lop "merged" and sums0 = lop "minkowski" in
  let r = Chc.Executor.run spec in
  let t_end = r.Chc.Executor.result.Chc.Cc.t_end in
  Alcotest.(check bool) "agreement" true r.Chc.Executor.agreement_ok;
  Alcotest.(check int) "every round merged" (5 * t_end) (lop "merged" - merged0);
  Alcotest.(check int) "no Minkowski sum" 0 (lop "minkowski" - sums0)

(* --- round 0: depth halfspaces and the per-execution table ----------- *)

(* Views of n - f to n points for n from (d+2)f+1 upward, on grids of
   1-4 steps per axis (duplicates, collinear and coplanar views, and
   lower-dimensional views that take the subset-hull fallback) and on
   the workloads' 1000-step grid. *)
let arb_view ~dim ~f =
  let open QCheck.Gen in
  let gen =
    let* steps = oneofl [ 1; 2; 3; 4; 1000 ] in
    let lo = ((dim + 2) * f) + 1 in
    let* n = lo -- (lo + 2) in
    let* m = (n - f) -- n in
    list_size (return m)
      (map Vec.make
         (list_size (return dim) (map (fun k -> Q.of_ints k steps) (0 -- steps))))
  in
  QCheck.make ~print:Gen.print_points gen

let depth_region_props =
  List.map
    (fun (dim, f, count) ->
       Gen.prop ~count
         (Printf.sprintf "depth_region = subset-hull oracle (d=%d, f=%d)" dim f)
         (arb_view ~dim ~f)
         (fun pts ->
            Option.equal P.equal (P.depth_region ~dim ~f pts)
              (P.subset_hull_region ~dim ~f pts)))
    [ (1, 1, 300); (1, 2, 300); (2, 1, 300); (2, 2, 150); (3, 1, 60);
      (3, 2, 4) ]

let round0 result = counter "chc_round0_total" [ ("result", result) ]

let crash_free_spec ?scheduler ~n ~d seed =
  let config =
    Chc.Config.make ~n ~f:1 ~d ~eps:(Q.of_ints 1 10) ~lo:Q.zero ~hi:Q.one
  in
  Chc.Executor.default_spec ~config ~seed ~faulty:[]
    ~scheduler:(Option.value scheduler ~default:Runtime.Scheduler.fifo) ()

let h0_of (r : Chc.Executor.report) i =
  List.assoc 0 r.Chc.Executor.result.Chc.Cc.history.(i)

(* Crash-free FIFO: every process ends round 0 with all n inputs, so
   one computes h[0] and the other n-1 take the very same value. *)
let test_round0_shared () =
  let computed0 = round0 "computed" and shared0 = round0 "shared" in
  let r = Chc.Executor.run (crash_free_spec ~n:5 ~d:2 3) in
  Alcotest.(check int) "one computed" 1 (round0 "computed" - computed0);
  Alcotest.(check int) "four shared" 4 (round0 "shared" - shared0);
  let h0 = h0_of r 0 in
  for i = 1 to 4 do
    Alcotest.(check bool)
      (Printf.sprintf "process %d holds process 0's h[0]" i)
      true (h0_of r i == h0)
  done;
  Alcotest.(check bool) "I_Z is that h[0]" true
    (match r.Chc.Executor.iz with Some z -> z == h0 | None -> false);
  Alcotest.(check bool) "optimal" true r.Chc.Executor.optimal;
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "/metrics family with HELP" true
    (contains (Obs.Metrics.exposition_all ()) "# HELP chc_round0_total ");
  Alcotest.(check bool) "in the report" true
    (contains
       (Obs.Report.to_string (Obs.Report.capture ~sim:None ()))
       "chc_round0_total{result=\"shared\"}")

(* Under a lagging scheduler, views differ: each distinct point multiset
   is computed once, and processes that agree share. *)
let test_round0_views_differ () =
  let computed0 = round0 "computed" and shared0 = round0 "shared" in
  let r =
    Chc.Executor.run
      (crash_free_spec ~n:6 ~d:2
         ~scheduler:(Runtime.Scheduler.lag_sources [ 0; 1 ]) 5)
  in
  let keys =
    Array.map
      (Option.map (fun v -> List.sort Vec.compare (List.map snd v)))
      r.Chc.Executor.result.Chc.Cc.round0_views
  in
  let views = List.filter_map Fun.id (Array.to_list keys) in
  let distinct_views =
    List.length (List.sort_uniq (List.compare Vec.compare) views)
  in
  let computed = round0 "computed" - computed0 in
  Alcotest.(check bool) "views differ" true (distinct_views > 1);
  Alcotest.(check int) "one computation per distinct view" distinct_views
    computed;
  Alcotest.(check int) "the rest shared" (List.length views - computed)
    (round0 "shared" - shared0);
  Array.iteri
    (fun i ki ->
       Array.iteri
         (fun j kj ->
            match ki, kj with
            | Some a, Some b when i < j && List.equal Vec.equal a b ->
              Alcotest.(check bool)
                (Printf.sprintf "processes %d and %d share h[0]" i j)
                true (h0_of r i == h0_of r j)
            | _ -> ())
         keys)
    keys;
  Alcotest.(check bool) "terminated" true r.Chc.Executor.terminated

let corpus_spec (n, f, d, sched, round0, recover, seed) =
  let config =
    Chc.Config.make ~n ~f ~d ~eps:(Q.of_ints 1 4) ~lo:Q.zero ~hi:Q.one
  in
  let scheduler =
    match Runtime.Scheduler.of_spec sched with
    | Ok s -> s
    | Error e -> failwith e
  in
  let spec = Chc.Executor.default_spec ~config ~seed ~scheduler ~round0 () in
  if recover then Chc.Cli.recoverize ~delay:8 ~keep:1 spec else spec

(* One execution's observable outputs, byte for byte: the transcript,
   every process's decision and round history, its WAL, and the
   grading verdicts. *)
let execution_bytes case =
  let trace = Obs.Trace.create () in
  let r = Chc.Executor.run ~trace (corpus_spec case) in
  let b = Buffer.create 4096 in
  let line s = Buffer.add_string b s; Buffer.add_char b '\n' in
  let opt f = function None -> "-" | Some x -> f x in
  Buffer.add_string b (Obs.Trace.to_jsonl trace);
  let res = r.Chc.Executor.result in
  Array.iteri
    (fun i hist ->
       line (Printf.sprintf "process %d decided %s" i
               (opt P.to_string res.Chc.Cc.outputs.(i)));
       List.iter (fun (t, h) -> line (Printf.sprintf "h[%d] = %s" t (P.to_string h))) hist;
       List.iter (fun e -> line (Chc.Recovery.event_to_string e)) res.Chc.Cc.wal_log.(i))
    res.Chc.Cc.history;
  line
    (Printf.sprintf "terminated=%b valid=%b/%b agreement=%s/%b optimal=%b stable=%b"
       r.Chc.Executor.terminated r.Chc.Executor.valid
       r.Chc.Executor.valid_all_inputs
       (opt Q.to_string r.Chc.Executor.agreement2)
       r.Chc.Executor.agreement_ok r.Chc.Executor.optimal
       r.Chc.Executor.decision_stable);
  line
    (Printf.sprintf "iz=%s volumes=%s/%s" (opt P.to_string r.Chc.Executor.iz)
       (opt Q.to_string r.Chc.Executor.min_output_volume)
       (opt Q.to_string r.Chc.Executor.iz_volume));
  Buffer.contents b

(* MD5 of [execution_bytes] for a pinned corpus over d = 1..3, the
   random, fifo, round-robin and lag:0,1 schedulers, naive round 0 and
   crash-recovery, as produced by the subset-hull round 0 that
   [depth_region] replaced. Round 0 computes the same sets in the same
   canonical forms, so every byte must stay put. *)
let pinned_corpus =
  [ ((4, 1, 1, "random", `Stable_vector, false, 1),
      "d0df617addbc52343afba8387e051781");
    ((7, 2, 1, "round-robin", `Naive, false, 2),
      "8d66069dbc3311ab00edb80a64e7cbdc");
    ((4, 1, 1, "lag:0,1", `Stable_vector, true, 10),
      "4cc393058cc18ffcb8f8ecbb2e31d177");
    ((5, 1, 2, "fifo", `Stable_vector, false, 3),
      "5a77c07f45a52fa4922222f48aa89f77");
    ((6, 1, 2, "lag:0,1", `Stable_vector, false, 4),
      "91cee6f273648a798038e742e13f9a19");
    ((9, 2, 2, "random", `Stable_vector, true, 5),
      "8435c500c16239f293084fe4db44cb5d");
    ((6, 1, 2, "round-robin", `Naive, false, 6),
      "a673bb9386b6f577017c3d6a59de7210");
    ((6, 1, 2, "lag:0,1", `Naive, true, 12),
      "3020efe46d98e0def3515bad1a591bd7");
    ((6, 1, 3, "random", `Stable_vector, false, 7),
      "d6413de2aef5de9c02a45fbb1ef6606e");
    ((7, 1, 3, "lag:0,1", `Stable_vector, true, 8),
      "334cdc43fd9820d8b4b027c9b2921f67");
    ((6, 1, 3, "fifo", `Naive, false, 9),
      "36094607c2c2a1e91c89487afc87404f");
    ((7, 1, 3, "round-robin", `Stable_vector, false, 11),
      "28514905432c04ae4863b90e3989a569") ]

let test_pinned_corpus () =
  List.iter
    (fun ((n, f, d, sched, _, recover, seed) as case, digest) ->
       Alcotest.(check string)
         (Printf.sprintf "n=%d f=%d d=%d %s%s seed %d" n f d sched
            (if recover then " recover" else "") seed)
         digest
         (Digest.to_hex (Digest.string (execution_bytes case))))
    pinned_corpus

(* The same digests under the rebuild engine, caches bypassed: the
   exact construction alone, the engine's test oracle, must reproduce
   every byte the incremental engine does. *)
let test_pinned_corpus_rebuild () =
  Parallel.Memo.with_bypass @@ fun () ->
  Geometry.Poly_engine.with_mode Geometry.Poly_engine.Rebuild
    test_pinned_corpus

(* The fuzzer's round-0 leg passes over the same corpus, and its
   verdict kind survives the artifact codec. *)
let test_round0_equivalence_oracle () =
  let o = Fuzz.Oracle.Round0_equivalence in
  (match Fuzz.Oracle.of_json (Fuzz.Oracle.to_json o) with
   | Ok o' ->
     Alcotest.(check string) "codec roundtrip" (Fuzz.Oracle.name o)
       (Fuzz.Oracle.name o')
   | Error e -> Alcotest.fail ("oracle codec: " ^ e));
  List.iter
    (fun (case, _) ->
       match Fuzz.Oracle.check o (corpus_spec case) with
       | Fuzz.Oracle.Pass -> ()
       | Fuzz.Oracle.Fail msg -> Alcotest.fail msg)
    pinned_corpus

(* --- properties ------------------------------------------------------ *)

let arb_poly dim =
  QCheck.make
    ~print:(fun p -> P.to_string p)
    (QCheck.Gen.map
       (fun pts -> P.of_points ~dim pts)
       (Gen.gen_points ~min_size:1 ~max_size:7 dim))

(* The L operator without merging, from hulls alone: fold the terms
   left to right, each Minkowski step the hull of all pairwise vertex
   sums. *)
let lincomb_oracle ~dim terms =
  match List.map (fun (c, p) -> List.map (Vec.scale c) (P.vertices p)) terms with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun acc vs ->
         P.of_points ~dim
           (List.concat_map (fun u -> List.map (Vec.add u) vs) (P.vertices acc)))
      (P.of_points ~dim first) rest

(* A few distinct polytopes, repeated: 2-5 picks from 1-3 polytopes. *)
let gen_repeated_polys ~dim ~max_size =
  let open QCheck.Gen in
  let* k = 1 -- 3 in
  let* polys =
    list_size (return k)
      (map (P.of_points ~dim) (Gen.gen_points ~min_size:1 ~max_size dim))
  in
  let* m = 2 -- 5 in
  let* picks = list_size (return m) (0 -- (k - 1)) in
  return (List.map (List.nth polys) picks)

let print_polys ps = String.concat " , " (List.map P.to_string ps)

(* The repeated picks as terms with small integer weights (zero
   allowed), normalized to sum to 1. *)
let arb_repeated_terms ~dim ~max_size =
  let open QCheck.Gen in
  let gen =
    let* picked = gen_repeated_polys ~dim ~max_size in
    let m = List.length picked in
    let* weights = list_size (return m) (0 -- 3) in
    let weights = if List.for_all (( = ) 0) weights then 1 :: List.tl weights else weights in
    let total = List.fold_left ( + ) 0 weights in
    return (List.map2 (fun p w -> (Q.of_ints w total, p)) picked weights)
  in
  QCheck.make
    ~print:(fun terms ->
        String.concat " + "
          (List.map (fun (c, p) -> Q.to_string c ^ "*" ^ P.to_string p) terms))
    gen

let merge_props =
  List.map
    (fun (dim, max_size, count) ->
       Gen.prop ~count
         (Printf.sprintf "L with repeated terms = unmerged oracle (d=%d)" dim)
         (arb_repeated_terms ~dim ~max_size)
         (fun terms ->
            P.equal (P.linear_combination terms) (lincomb_oracle ~dim terms)))
    [ (1, 4, 200); (2, 5, 200); (3, 4, 40) ]
  @ [ Gen.prop ~count:100 "3d subset = per-vertex LP membership"
        (QCheck.pair (arb_poly 3) (arb_poly 3))
        (fun (p, q) ->
           (* small point sets are often flat: the H-representation then
              carries affine-hull equalities *)
           let lp a b = List.for_all (P.contains b) (P.vertices a) in
           let hull_pq = P.of_points ~dim:3 (P.vertices p @ P.vertices q) in
           P.subset p q = lp p q
           && P.subset p hull_pq && lp p hull_pq
           && P.subset q hull_pq
           && P.subset hull_pq q = lp hull_pq q);
      Gen.prop "intersect ignores repeated polytopes"
        (QCheck.pair (arb_poly 2) (arb_poly 2))
        (fun (p, q) ->
           Option.equal P.equal (P.intersect [ p; q; p; q ]) (P.intersect [ p; q ]));
      Gen.prop "intersect of copies is the polytope" (arb_poly 2)
        (fun p -> Option.equal P.equal (P.intersect [ p; p ]) (Some p)) ]

(* [average] groups equal inputs with integer counts instead of
   building k weights of 1/k: the same set, reached through the same
   Minkowski chain, so the L-operator counters move alike. *)
let average_props =
  List.concat_map
    (fun (dim, max_size, count) ->
       let arb =
         QCheck.make ~print:print_polys (gen_repeated_polys ~dim ~max_size)
       in
       [ Gen.prop ~count
           (Printf.sprintf "average = uniform linear_combination (d=%d)" dim)
           arb
           (fun polys ->
              let w = Q.of_ints 1 (List.length polys) in
              let merged0 = lop "merged" and sums0 = lop "minkowski" in
              let avg = P.average polys in
              let merged1 = lop "merged" and sums1 = lop "minkowski" in
              let lc = P.linear_combination (List.map (fun p -> (w, p)) polys) in
              P.equal avg lc
              && merged1 - merged0 = lop "merged" - merged1
              && sums1 - sums0 = lop "minkowski" - sums1);
         Gen.prop ~count
           (Printf.sprintf "average of agreeing inputs is the first (d=%d)"
              dim)
           arb
           (fun polys ->
              (* every input after the first is an equal copy *)
              let p = List.hd polys in
              let copy () = P.of_points ~dim (P.vertices p) in
              P.average (p :: List.map (fun _ -> copy ()) polys) == p) ])
    [ (1, 4, 200); (2, 5, 200); (3, 4, 40) ]

let props =
  [ Gen.prop "average of two copies is identity" (arb_poly 2)
      (fun p -> P.equal p (P.average [p; p]));
    Gen.prop "hausdorff2 zero iff equal" (QCheck.pair (arb_poly 2) (arb_poly 2))
      (fun (p, q) -> Q.is_zero (P.hausdorff2 p q) = P.equal p q);
    Gen.prop "hausdorff symmetric" (QCheck.pair (arb_poly 2) (arb_poly 2))
      (fun (p, q) -> Q.equal (P.hausdorff2 p q) (P.hausdorff2 q p));
    Gen.prop "hausdorff triangle inequality"
      (QCheck.triple (arb_poly 2) (arb_poly 2) (arb_poly 2))
      (fun (a, b, c) ->
         P.hausdorff a c <= P.hausdorff a b +. P.hausdorff b c +. 1e-9);
    Gen.prop "intersection is a subset of both"
      (QCheck.pair (arb_poly 2) (arb_poly 2))
      (fun (p, q) ->
         match P.intersect [p; q] with
         | None -> true
         | Some r -> P.subset r p && P.subset r q);
    Gen.prop "intersection volume monotone"
      (QCheck.pair (arb_poly 2) (arb_poly 2))
      (fun (p, q) ->
         match P.intersect [p; q], P.volume p with
         | Some r, Some vp ->
           (match P.volume r with
            | Some vr -> Q.leq vr vp
            | None -> false)
         | _ -> true);
    Gen.prop "L is translation covariant"
      (QCheck.triple (arb_poly 2) (arb_poly 2) (Gen.arb_vec 2))
      (fun (p, q, t) ->
         (* average (p + t) q = (average p q) + t/2 *)
         let lhs = P.average [P.translate t p; q] in
         let rhs = P.translate (Vec.scale Q.half t) (P.average [p; q]) in
         P.equal lhs rhs);
    Gen.prop "average subset of hull of union"
      (QCheck.pair (arb_poly 2) (arb_poly 2))
      (fun (p, q) ->
         let hull_union =
           P.of_points ~dim:2 (P.vertices p @ P.vertices q)
         in
         P.subset (P.average [p; q]) hull_union);
    Gen.prop "steiner point inside" (arb_poly 2)
      (fun p -> P.contains p (P.steiner_point p));
    Gen.prop "centroid inside" (arb_poly 2)
      (fun p -> P.contains p (P.centroid p));
    Gen.prop ~count:60 "3d averages keep subset relation with hull union"
      (QCheck.pair (arb_poly 3) (arb_poly 3))
      (fun (p, q) ->
         let hull_union = P.of_points ~dim:3 (P.vertices p @ P.vertices q) in
         P.subset (P.average [p; q]) hull_union);
    Gen.prop ~count:60 "1d behaves like interval arithmetic"
      (QCheck.pair (arb_poly 1) (arb_poly 1))
      (fun (p, q) ->
         let bounds poly =
           let b = (P.bounding_box poly).(0) in
           b
         in
         let (plo, phi) = bounds p and (qlo, qhi) = bounds q in
         let avg = P.average [p; q] in
         let (alo, ahi) = bounds avg in
         Q.equal alo (Q.div (Q.add plo qlo) Q.two)
         && Q.equal ahi (Q.div (Q.add phi qhi) Q.two));
  ]

let suite =
  [ ( "polytope",
      [ Alcotest.test_case "canonical equality" `Quick test_equal_canonical;
        Alcotest.test_case "subset" `Quick test_subset;
        Alcotest.test_case "self-average" `Quick test_average_identity;
        Alcotest.test_case "average of points" `Quick test_average_of_points;
        Alcotest.test_case "weight validation" `Quick test_lincomb_weights_validation;
        Alcotest.test_case "volume" `Quick test_volume;
        Alcotest.test_case "intersect empty/touching" `Quick test_intersect_empty;
        Alcotest.test_case "support" `Quick test_support;
        Alcotest.test_case "steiner" `Quick test_steiner_inside;
        Alcotest.test_case "agreeing round does no geometry" `Quick
          test_agreeing_round_no_geometry;
        Alcotest.test_case "merge counters" `Quick test_merge_counters;
        Alcotest.test_case "FIFO execution merges every round" `Quick
          test_fifo_execution_merges;
        Alcotest.test_case "equal views share one h[0]" `Quick
          test_round0_shared;
        Alcotest.test_case "differing views computed once each" `Quick
          test_round0_views_differ;
        Alcotest.test_case "pinned corpus byte for byte" `Slow
          test_pinned_corpus;
        Alcotest.test_case "round0-equivalence oracle" `Slow
          test_round0_equivalence_oracle ]
      @ List.map Gen.qtest
          (props @ merge_props @ depth_region_props @ average_props)
      @ [ Alcotest.test_case "pinned corpus under the rebuild engine" `Slow
            test_pinned_corpus_rebuild ] ) ]
