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

(* The rebuild leg is the oracle; the incremental leg runs under a
   fresh handle so no warm-start state leaks across trials. *)
let rebuild f = PE.with_mode PE.Rebuild f

let incremental f =
  PE.with_mode PE.Incremental (fun () ->
      PE.with_handle (PE.create_handle ()) f)

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
    Option.map List.length (PE.vertices_3d ~ineqs:unit_cube)
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
          Gen.qtest support_prop ] ) ]
