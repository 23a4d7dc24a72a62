(* The incremental polytope engine (Geometry.Poly_engine) against the
   rebuild oracle: every geometric quantity the protocol consumes —
   extreme points, facet duals, intersections, volumes, support
   values, Hausdorff distances — must be identical under both engines,
   on random rationals and on adversarial near-degenerate inputs
   (±1/2^200 perturbations as in test_filter) engineered to defeat the
   float-guided fast paths so the certification gauntlet and exact
   fallbacks are what keeps the answers equal.

   The end-to-end half mirrors test_filter's transcript invariance: a
   full checked d=3 execution must produce byte-identical transcripts
   and equal decision polytopes under both engines. *)

module Q = Numeric.Q
module Vec = Geometry.Vec
module PE = Geometry.Poly_engine
module Hullnd = Geometry.Hullnd
module Polytope = Geometry.Polytope

let qt =
  Alcotest.testable
    (fun ppf q -> Format.pp_print_string ppf (Q.to_string q))
    Q.equal

(* The rebuild leg is the oracle. *)
let rebuild f = PE.with_mode PE.Rebuild f

let incremental f = PE.with_mode PE.Incremental f

(* 1/2^200: invisible to doubles, so perturbed coordinates are
   indistinguishable from unperturbed ones in the float seed — only
   exact certification can keep the engines in agreement. *)
let tiny = Q.pow Q.half 200

let gen_adv_coord =
  let open QCheck.Gen in
  let* base = Gen.gen_small_q in
  oneofl [ base; Q.add base tiny; Q.sub base tiny; Q.zero ]

let gen_adv_vec =
  QCheck.Gen.map Array.of_list
    (QCheck.Gen.list_size (QCheck.Gen.return 3) gen_adv_coord)

let gen_adv_points =
  let open QCheck.Gen in
  let* n = 4 -- 9 in
  list_size (return n) gen_adv_vec

let arb_adv_points = QCheck.make ~print:Gen.print_points gen_adv_points

let arb_adv_two =
  QCheck.make
    ~print:(fun (a, b) -> Gen.print_points a ^ " | " ^ Gen.print_points b)
    QCheck.Gen.(pair gen_adv_points gen_adv_points)

let arb_adv_dir =
  QCheck.make
    ~print:(fun (pts, d) -> Gen.print_points pts ^ " dir " ^ Vec.to_string d)
    QCheck.Gen.(pair gen_adv_points gen_adv_vec)

let same_verts a b =
  List.equal Vec.equal (List.sort Vec.compare a) (List.sort Vec.compare b)

let same_facets a b =
  List.equal
    (fun x y -> PE.compare_constraint x y = 0)
    (List.sort PE.compare_constraint a)
    (List.sort PE.compare_constraint b)

(* Memo tables are bypassed inside the cross-engine properties so the
   incremental leg cannot be served values the rebuild leg cached (or
   vice versa) — each leg computes from scratch. *)
let props =
  [ Gen.prop ~count:40 "extreme points: incremental = rebuild" arb_adv_points
      (fun pts ->
         Parallel.Memo.with_bypass (fun () ->
             same_verts
               (rebuild (fun () -> Hullnd.extreme_points pts))
               (incremental (fun () -> Hullnd.extreme_points pts))));
    Gen.prop ~count:40 "dual facets: incremental = rebuild" arb_adv_points
      (fun pts ->
         Parallel.Memo.with_bypass (fun () ->
             let dr = rebuild (fun () -> Hullnd.dual_3d pts) in
             let di = incremental (fun () -> Hullnd.dual_3d pts) in
             match dr, di with
             | None, None -> true
             | Some dr, Some di ->
               same_verts dr.PE.pts di.PE.pts
               && same_facets dr.PE.facets di.PE.facets
               && Numeric.Bigint.equal dr.PE.scale di.PE.scale
             | _ -> false));
    Gen.prop ~count:25 "volume: incremental = rebuild" arb_adv_points
      (fun pts ->
         Parallel.Memo.with_bypass (fun () ->
             let p () = Polytope.volume (Polytope.of_points ~dim:3 pts) in
             Option.equal Q.equal (rebuild p) (incremental p)));
    Gen.prop ~count:25 "intersect: incremental = rebuild" arb_adv_two
      (fun (pa, pb) ->
         Parallel.Memo.with_bypass (fun () ->
             let p () =
               Polytope.intersect
                 [ Polytope.of_points ~dim:3 pa;
                   Polytope.of_points ~dim:3 pb ]
             in
             Option.equal Polytope.equal (rebuild p) (incremental p)));
    Gen.prop ~count:25 "hausdorff2: incremental = rebuild" arb_adv_two
      (fun (pa, pb) ->
         Parallel.Memo.with_bypass (fun () ->
             let p () =
               Polytope.hausdorff2
                 (Polytope.of_points ~dim:3 pa)
                 (Polytope.of_points ~dim:3 pb)
             in
             Q.equal (rebuild p) (incremental p))) ]

(* Polytope.support evaluates over the vertex list the engine built, so
   it must attain the maximum of dir·x over the raw input points, at
   one of the polytope's vertices, under either engine. *)
let support_prop =
  Gen.prop ~count:40 "support = max over the points" arb_adv_dir
    (fun (pts, dir) ->
       let best =
         List.fold_left
           (fun acc v -> Q.max acc (Vec.dot dir v))
           (Vec.dot dir (List.hd pts)) pts
       in
       let attains () =
         let p = Polytope.of_points ~dim:3 pts in
         let s, x = Polytope.support p dir in
         Q.equal s best
         && Q.equal (Vec.dot dir x) s
         && List.exists (Vec.equal x) (Polytope.vertices p)
       in
       Parallel.Memo.with_bypass (fun () ->
           rebuild attains && incremental attains))

(* --- units -------------------------------------------------------------- *)

(* The certification gauntlet has teeth: a correct closed oriented
   surface passes; drop a facet (open surface) or flip an orientation
   and it must refuse, which is what forces the exact rebuild. *)
let test_certify_teeth () =
  let pts =
    [| Vec.of_ints [ 0; 0; 0 ]; Vec.of_ints [ 1; 0; 0 ];
       Vec.of_ints [ 0; 1; 0 ]; Vec.of_ints [ 0; 0; 1 ] |]
  in
  let closed = [| (0, 2, 1); (0, 1, 3); (0, 3, 2); (1, 2, 3) |] in
  (match PE.Dev.certify pts closed with
   | Some planes ->
     Alcotest.(check int) "tetrahedron has four facet planes" 4
       (List.length planes)
   | None -> Alcotest.fail "closed oriented tetrahedron must certify");
  (match PE.Dev.certify pts (Array.sub closed 0 3) with
   | None -> ()
   | Some _ -> Alcotest.fail "open surface must be rejected");
  let flipped = [| (0, 1, 2); (0, 1, 3); (0, 3, 2); (1, 2, 3) |] in
  match PE.Dev.certify pts flipped with
  | None -> ()
  | Some _ -> Alcotest.fail "mis-oriented surface must be rejected"

(* Transcript invariance: same scenario, both engines, memo bypassed —
   byte-identical event streams and equal decisions. *)
let test_transcript_invariance () =
  let config =
    Chc.Config.make ~n:6 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Chc.Executor.default_spec ~config ~seed:42 () in
  let run_under engine =
    Parallel.Memo.with_bypass (fun () ->
        engine (fun () ->
            let trace = Obs.Trace.create () in
            let r = Chc.Executor.run ~trace spec in
            (r, Obs.Trace.to_jsonl trace)))
  in
  let rr, jr = run_under rebuild in
  let ri, ji = run_under incremental in
  Alcotest.(check bool) "rebuild run healthy" true
    (rr.Chc.Executor.terminated && rr.Chc.Executor.valid
     && rr.Chc.Executor.agreement_ok && rr.Chc.Executor.optimal);
  Alcotest.(check string) "byte-identical transcripts" jr ji;
  Alcotest.(check int) "same t_end" rr.Chc.Executor.result.Chc.Cc.t_end
    ri.Chc.Executor.result.Chc.Cc.t_end;
  Array.iteri
    (fun i o ->
       let same =
         match (o, ri.Chc.Executor.result.Chc.Cc.outputs.(i)) with
         | None, None -> true
         | Some p, Some p' -> Geometry.Polytope.equal p p'
         | _ -> false
       in
       Alcotest.(check bool)
         (Printf.sprintf "process %d decides identically" i)
         true same)
    rr.Chc.Executor.result.Chc.Cc.outputs

(* The differential oracle itself: codec roundtrip and a passing grade
   on a healthy d=3 scenario. *)
let test_oracle_engine_equivalence () =
  let o = Fuzz.Oracle.Engine_equivalence in
  (match Fuzz.Oracle.of_json (Fuzz.Oracle.to_json o) with
   | Ok o' -> Alcotest.(check string) "codec roundtrip" (Fuzz.Oracle.name o)
                (Fuzz.Oracle.name o')
   | Error e -> Alcotest.fail ("oracle codec: " ^ e));
  let config =
    Chc.Config.make ~n:6 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Chc.Executor.default_spec ~config ~seed:7 () in
  match Fuzz.Oracle.check o spec with
  | Fuzz.Oracle.Pass -> ()
  | Fuzz.Oracle.Fail msg -> Alcotest.fail ("engine divergence: " ^ msg)

(* The engine mode is only ever the calling domain's [with_mode]
   override: Incremental outside any, restored on return and on an
   exception, and not inherited by a domain spawned inside it.
   Rebuild mode is visible to the engine: [vertices_3d] declines, so
   callers run the exact enumeration. *)
let test_with_mode_scope () =
  let mode =
    Alcotest.testable
      (fun ppf m ->
         Format.pp_print_string ppf
           (match m with PE.Rebuild -> "rebuild" | PE.Incremental -> "incremental"))
      ( = )
  in
  let unit_cube =
    List.concat_map
      (fun i ->
         let e = Vec.make (List.init 3 (fun j -> if i = j then Q.one else Q.zero)) in
         [ (e, Q.one); (Vec.neg e, Q.zero) ])
      [ 0; 1; 2 ]
  in
  let cube_vertices () =
    Option.map (fun (vs, _) -> List.length vs) (PE.vertices_3d ~ineqs:unit_cube)
  in
  Alcotest.check mode "default" PE.Incremental (PE.mode ());
  Alcotest.(check (option int)) "incremental enumerates the cube" (Some 8)
    (cube_vertices ());
  PE.with_mode PE.Rebuild (fun () ->
      Alcotest.check mode "inside" PE.Rebuild (PE.mode ());
      Alcotest.(check (option int)) "rebuild declines" None (cube_vertices ());
      PE.with_mode PE.Incremental (fun () ->
          Alcotest.check mode "nested" PE.Incremental (PE.mode ()));
      Alcotest.check mode "nested override restored" PE.Rebuild (PE.mode ());
      Alcotest.check mode "spawned domain" PE.Incremental
        (Domain.join (Domain.spawn PE.mode)));
  Alcotest.check mode "restored on return" PE.Incremental (PE.mode ());
  (match PE.with_mode PE.Rebuild (fun () -> failwith "boom") with
   | () -> Alcotest.fail "with_mode must re-raise"
   | exception Failure _ -> ());
  Alcotest.check mode "restored on exception" PE.Incremental (PE.mode ())

(* A dual depends on its point set alone. P's dual is built in one
   fresh domain, and in another after the dual of a 6-point subset Q:
   planes, scale, scaled points and covering triangles must agree.
   Integer coordinates keep the scale at 1, where an engine that
   restarted beneath-beyond from Q's soup would build P's soup from
   it. Memo tables are bypassed, so nothing can be served twice. *)
let history_free_prop =
  Gen.prop ~count:100 "dual is history-free"
    (Gen.arb_int_points ~min_size:8 ~max_size:8 3)
    (fun pts ->
       let p = Hullnd.dedupe_points pts in
       let q = Hullnd.dedupe_points (List.filteri (fun i _ -> i < 6) pts) in
       let in_fresh_domain f =
         Domain.join (Domain.spawn (fun () -> Parallel.Memo.with_bypass f))
       in
       let alone = in_fresh_domain (fun () -> Hullnd.dual_3d p) in
       let after_q =
         in_fresh_domain (fun () ->
             ignore (Hullnd.dual_3d q : PE.dual option);
             Hullnd.dual_3d p)
       in
       let covering d = Option.bind d.PE.shape PE.covering in
       match (alone, after_q) with
       | None, None -> true
       | Some a, Some b ->
         List.equal
           (fun x y -> PE.compare_constraint x y = 0)
           a.PE.facets b.PE.facets
         && Numeric.Bigint.equal a.PE.scale b.PE.scale
         && List.equal Vec.equal a.PE.spts b.PE.spts
         && covering a = covering b
       | _ -> false)

(* --- the carried dual ------------------------------------------------ *)

(* Random d=3 point sets for the soup volume: 4-30 base points on the
   1000-grid or with small denominators, then points on the exact
   hull's facets and edges (centroids of three facet points, points a
   third of the way along a segment two facets share), then repeats
   of base points. *)
let gen_grid_q =
  QCheck.Gen.map (fun i -> Q.of_ints i 1000) QCheck.Gen.(0 -- 1000)

let gen_volume_case =
  let open QCheck.Gen in
  let* n = 4 -- 30 in
  let* coord = oneofl [ gen_grid_q; Gen.gen_small_q ] in
  let* base =
    list_size (return n) (map Array.of_list (list_size (return 3) coord))
  in
  let* picks = list_size (0 -- 4) (0 -- 1000) in
  let* dups = list_size (0 -- 3) (0 -- (n - 1)) in
  return (base, picks, dups)

let print_volume_case (base, picks, dups) =
  Printf.sprintf "%s picks [%s] dups [%s]" (Gen.print_points base)
    (String.concat ";" (List.map string_of_int picks))
    (String.concat ";" (List.map string_of_int dups))

let arb_volume_case = QCheck.make ~print:print_volume_case gen_volume_case

(* [base] plus the boundary points [picks] select and the repeats
   [dups] name. *)
let with_boundary_points (base, picks, dups) =
  let h =
    Parallel.Memo.with_bypass (fun () ->
        rebuild (fun () -> Hullnd.of_points ~dim:3 base))
  in
  let facets = Array.of_list h.Hullnd.ineqs in
  let pts = Hullnd.dedupe_points base in
  let tight (a, b) = List.filter (fun p -> Q.equal (Vec.dot a p) b) pts in
  let on_boundary k =
    let ((a, b) as facet) = facets.(k mod Array.length facets) in
    let t = tight facet in
    let on_facet =
      match t with x :: y :: z :: _ -> [ Vec.average [ x; y; z ] ] | _ -> []
    in
    let shared u v (a', b') =
      (not (Vec.equal a a' && Q.equal b b'))
      && Q.equal (Vec.dot a' u) b' && Q.equal (Vec.dot a' v) b'
    in
    let on_edge =
      List.concat_map
        (fun u ->
           List.filter_map
             (fun v ->
                if Vec.compare u v < 0 && Array.exists (shared u v) facets then
                  Some (Vec.lincomb [ (Q.of_ints 1 3, u); (Q.of_ints 2 3, v) ])
                else None)
             t)
        t
    in
    on_facet @ (match on_edge with e :: _ -> [ e ] | [] -> [])
  in
  let extra =
    if h.Hullnd.eqs <> [] || Array.length facets = 0 then []
    else List.concat_map on_boundary picks
  in
  base @ extra @ List.map (List.nth base) dups

(* The facet-fan oracle: Volume3d.volume on the vertex list, under the
   rebuild engine with every cache bypassed. *)
let fan_volume p =
  Parallel.Memo.with_bypass (fun () ->
      rebuild (fun () -> Geometry.Volume3d.volume (Polytope.vertices p)))

let soup_volume_prop =
  Gen.prop ~count:30 "carried-dual volume = facet-fan oracle" arb_volume_case
    (fun ((base, picks, dups) as case) ->
       let fresh f = Parallel.Memo.with_bypass (fun () -> incremental f) in
       let agrees p =
         Option.equal Q.equal (fresh (fun () -> Polytope.volume p))
           (Some (fan_volume p))
       in
       let hull =
         fresh (fun () -> Polytope.of_points ~dim:3 (with_boundary_points case))
       in
       (* depth_region on a prefix: large f = 1 views can exceed the
          float intersection's constraint cap, and the exact vertex
          enumeration behind it is cubic in the constraint count *)
       let view =
         with_boundary_points
           (List.filteri (fun i _ -> i < 8) base, picks,
            List.filter (fun i -> i < 8) dups)
       in
       agrees hull
       && (List.length view <= 1
           ||
           match
             fresh (fun () -> Polytope.depth_region ~dim:3 ~f:1 view)
           with
           | None -> true
           | Some r -> agrees r))

let tet_points =
  Array.map Vec.of_ints
    [| [ 0; 0; 0 ]; [ 4; 0; 0 ]; [ 0; 4; 0 ]; [ 0; 0; 4 ];
       [ 2; 0; 0 ]; [ 0; 2; 0 ]; [ 0; 0; 2 ]; [ 2; 2; 0 ]; [ 2; 0; 2 ];
       [ 0; 2; 2 ] |]

(* The midpoint of corners [a] and [b] of [tet_points]' tetrahedron. *)
let tet_mid a b =
  match (min a b, max a b) with
  | 0, 1 -> 4 | 0, 2 -> 5 | 0, 3 -> 6 | 1, 2 -> 7 | 1, 3 -> 8 | _ -> 9

(* Corner order counter-clockwise from outside: the centroid (1,1,1)
   lies below the triangle's plane. *)
let outward (a, b, c) =
  let p = tet_points in
  let n = PE.cross3 (Vec.sub p.(b) p.(a)) (Vec.sub p.(c) p.(a)) in
  if Q.sign (Vec.dot n (Vec.sub (Vec.of_ints [ 1; 1; 1 ]) p.(a))) > 0 then
    (a, c, b)
  else (a, b, c)

(* A certified soup may cover the boundary more than once: here the
   tetrahedron's four faces plus the same faces split at their edge
   midpoints, a closed outward surface with no repeated directed edge.
   Its triangle sum reads twice the volume; the covering check must
   refuse it, so the volume comes from the facet fans. *)
let test_double_cover () =
  let faces = [ (0, 1, 2); (0, 1, 3); (0, 2, 3); (1, 2, 3) ] in
  let once = List.map outward faces in
  let split (a, b, c) =
    let ab = tet_mid a b and bc = tet_mid b c and ca = tet_mid c a in
    List.map outward [ (a, ab, ca); (b, bc, ab); (c, ca, bc); (ab, bc, ca) ]
  in
  let twice = once @ List.concat_map split faces in
  let volume = Geometry.Volume3d.volume (Array.to_list tet_points) in
  Alcotest.check qt "tetrahedron volume" (Q.of_ints 32 3) volume;
  let dual tris =
    match PE.Dev.dual_of_soup tet_points (Array.of_list tris) with
    | Some d -> d
    | None -> Alcotest.fail "a closed outward soup must certify"
  in
  let covers d = Option.is_some (Option.bind d.PE.shape PE.covering) in
  let single = dual once and double = dual twice in
  Alcotest.(check bool) "four faces cover once" true (covers single);
  Alcotest.check qt "single cover: soup volume" volume
    (Geometry.Volume3d.of_dual single);
  let six_soup =
    List.fold_left
      (fun acc (a, b, c) ->
         let p = tet_points in
         Q.add acc (Vec.dot p.(a) (PE.cross3 p.(b) p.(c))))
      Q.zero twice
  in
  Alcotest.check qt "the double soup sums to twice the volume"
    (Q.mul_int volume 12) six_soup;
  Alcotest.(check bool) "covering check refuses the double cover" false
    (covers double);
  Alcotest.check qt "double cover: facet-fan volume" volume
    (Geometry.Volume3d.of_dual double)

(* A polytope decoded from the wire has no dual under the rebuild
   engine; the engine-built original carries the one vertices_3d
   certified. Value, volume and containment must not tell them
   apart. *)
let test_decoded_twin () =
  let view =
    List.map Vec.of_ints
      [ [ 0; 0; 0 ]; [ 9; 1; 0 ]; [ 1; 8; 1 ]; [ 0; 1; 9 ]; [ 7; 7; 2 ];
        [ 6; 1; 7 ]; [ 2; 6; 6 ]; [ 4; 4; 4 ] ]
  in
  let built =
    incremental (fun () ->
        Parallel.Memo.with_bypass (fun () ->
            Option.get (Polytope.depth_region ~dim:3 ~f:1 view)))
  in
  let decoded =
    rebuild (fun () ->
        Codec.Wire.polytope_of_string (Codec.Wire.polytope_to_string built))
  in
  Alcotest.(check bool) "decoded = built" true (Polytope.equal built decoded);
  Alcotest.(check (option qt)) "same volume" (Polytope.volume built)
    (Polytope.volume decoded);
  let hull = Polytope.of_points ~dim:3 view in
  let centre = Polytope.singleton (Polytope.centroid built) in
  let half =
    Polytope.linear_combination [ (Q.half, built); (Q.half, centre) ]
  in
  let shifted = Polytope.translate (Vec.of_ints [ 1; 0; 0 ]) built in
  List.iter
    (fun (label, x, inside) ->
       Alcotest.(check bool) (label ^ " in built") inside
         (Polytope.subset x built);
       Alcotest.(check bool) (label ^ " in decoded") inside
         (Polytope.subset x decoded);
       Alcotest.(check bool) ("built in " ^ label)
         (Polytope.subset built x) (Polytope.subset decoded x))
    [ ("centre", centre, true); ("half", half, true);
      ("shifted", shifted, false); ("hull", hull, false) ]

let counter metric =
  List.fold_left
    (fun acc s ->
       match s with
       | { Obs.Metrics.metric = m; value = Obs.Metrics.Counter v; _ }
         when m = metric -> acc + v
       | _ -> acc)
    0 (Obs.Metrics.snapshot_all ())

(* 3-d hull builds (float and exact) of one graded execution, caches
   cleared first. *)
let cold_hull_builds ~label spec =
  Parallel.Memo.clear_all ();
  let b0 = counter "chc_poly_hull_total" in
  let r = Chc.Executor.run spec in
  Alcotest.(check bool) (label ^ " healthy") true
    (r.Chc.Executor.terminated && r.Chc.Executor.valid);
  counter "chc_poly_hull_total" - b0

(* Hull builds per graded n7-f1-d3 execution. The decision is round
   0's h[0], which carries the dual vertices_3d certified, and the
   input hulls carry theirs, so grading builds no hull again: a
   consumer that re-derives a carried dual shows up here (a [subset]
   that ignores q's dual reads 4.10).

   The lag half counts the builds of 36 d=3 runs where the L operator
   sums polytopes (n = 6, 7 × random, lag:0,1, lag:2 × seeds 1-6,
   ε = 1/10). A Minkowski sum keeps the dual it was built with, and
   the minkowski table answers a ⊕ b and b ⊕ a alike: a sum that
   drops its dual reads 136 here, a key that depends on the pair's
   order 118, and this engine 106. The counts repeat exactly from run
   to run. *)
let test_hull_build_ratchet () =
  let config =
    Chc.Config.make ~n:7 ~f:1 ~d:3 ~eps:(Q.of_ints 1 100) ~lo:Q.zero ~hi:Q.one
  in
  let seeds k = List.init k (fun i -> i + 1) in
  let builds =
    List.fold_left
      (fun acc seed ->
         acc
         + cold_hull_builds ~label:(Printf.sprintf "seed %d" seed)
             (Chc.Executor.default_spec ~config ~seed ()))
      0 (seeds 10)
  in
  let per = float_of_int builds /. 10. in
  if per > 2.6 then
    Alcotest.failf "%.2f 3-d hull builds per execution (ratchet: 2.6)" per;
  let lag_builds =
    List.fold_left
      (fun acc (n, sched, seed) ->
         let config =
           Chc.Config.make ~n ~f:1 ~d:3 ~eps:(Q.of_ints 1 10) ~lo:Q.zero
             ~hi:Q.one
         in
         let scheduler = Result.get_ok (Runtime.Scheduler.of_spec sched) in
         acc
         + cold_hull_builds
             ~label:(Printf.sprintf "n%d %s seed %d" n sched seed)
             (Chc.Executor.default_spec ~config ~seed ~scheduler ()))
      0
      (List.concat_map
         (fun n ->
            List.concat_map
              (fun sched -> List.map (fun seed -> (n, sched, seed)) (seeds 6))
              [ "random"; "lag:0,1"; "lag:2" ])
         [ 6; 7 ])
  in
  if lag_builds > 112 then
    Alcotest.failf "%d 3-d hull builds over the 36 lag runs (ratchet: 112)"
      lag_builds

let suite =
  [ ( "poly_engine",
      [ Alcotest.test_case "certification teeth" `Quick test_certify_teeth;
        Alcotest.test_case "transcript invariance d=3" `Quick
          test_transcript_invariance;
        Alcotest.test_case "engine-equivalence oracle" `Quick
          test_oracle_engine_equivalence ]
      @ List.map Gen.qtest props
      @ [ Alcotest.test_case "with_mode is scoped and domain-local" `Quick
            test_with_mode_scope;
          Gen.qtest support_prop;
          Gen.qtest history_free_prop;
          Gen.qtest soup_volume_prop;
          Alcotest.test_case "double cover falls back to facet fans" `Quick
            test_double_cover;
          Alcotest.test_case "decoded twin answers alike" `Quick
            test_decoded_twin;
          Alcotest.test_case "hull builds per execution ratchet" `Quick
            test_hull_build_ratchet ] ) ]
