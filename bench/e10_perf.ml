(* E10 — Implementation performance (bechamel micro-benchmarks).

   Wall-clock cost of the geometric primitives and of full executions,
   plus two ablations that justify the fast paths:
   - the 2-d Minkowski linear edge-merge vs quadratic pairwise-sum;
   - the d=3 L-operator (weighted Minkowski average) under the pre-PR
     brute-force pipeline (all-subsets facet sweep + per-point LP
     pruning) vs the incremental beneath-beyond kernel, with and
     without the structural memo tables.

   All arithmetic is exact rationals, so these numbers characterize
   the exact-arithmetic cost profile, not float geometry. Results are
   also emitted to BENCH_E10.json (ns/op per benchmark) so speedups
   can be tracked across revisions. *)

open Bechamel
open Toolkit

module Q = Numeric.Q
module Vec = Geometry.Vec
module Hull2d = Geometry.Hull2d
module Hullnd = Geometry.Hullnd
module Polytope = Geometry.Polytope
module Rng = Runtime.Rng

let mk_points rng m =
  List.init m (fun _ ->
      Vec.make [Q.of_ints (Rng.int rng 2001 - 1000) 997;
                Q.of_ints (Rng.int rng 2001 - 1000) 991])

let mk_points3 rng m =
  List.init m (fun _ ->
      Vec.make [Q.of_ints (Rng.int rng 2001 - 1000) 997;
                Q.of_ints (Rng.int rng 2001 - 1000) 991;
                Q.of_ints (Rng.int rng 2001 - 1000) 983])

(* Run [f] with the memo tables switched off, so the entry measures
   algorithmic cost rather than cache hits. *)
let nocache f () =
  Parallel.Memo.set_enabled false;
  Fun.protect ~finally:(fun () -> Parallel.Memo.set_enabled true) f

(* The d=3 L-operator exactly as computed before this PR: scale each
   polytope, fold binary Minkowski sums, and canonicalize each
   intermediate with the LP-pruning extreme-point filter. *)
let average3_lp verts_list =
  let w = Q.inv (Q.of_int (List.length verts_list)) in
  let scaled = List.map (List.map (Vec.scale w)) verts_list in
  match scaled with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun acc vs ->
         Hullnd.extreme_points_lp
           (List.concat_map (fun u -> List.map (Vec.add u) vs) acc))
      (Hullnd.extreme_points_lp first) rest

(* Same fold through the incremental beneath-beyond kernel. *)
let average3_incremental verts_list =
  let w = Q.inv (Q.of_int (List.length verts_list)) in
  let scaled = List.map (List.map (Vec.scale w)) verts_list in
  match scaled with
  | [] -> assert false
  | first :: rest ->
    List.fold_left
      (fun acc vs ->
         Hullnd.extreme_points
           (List.concat_map (fun u -> List.map (Vec.add u) vs) acc))
      (Hullnd.extreme_points first) rest

let tests () =
  let rng = Rng.create 2014 in
  let pts100 = mk_points rng 100 in
  let polyA = Hull2d.hull (mk_points rng 40) in
  let polyB = Hull2d.hull (mk_points rng 40) in
  let pA = Polytope.of_points ~dim:2 (mk_points rng 30) in
  let pB = Polytope.of_points ~dim:2 (mk_points rng 30) in
  let config =
    Chc.Config.make ~n:5 ~f:1 ~d:2 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Chc.Executor.default_spec ~config ~seed:5 () in
  let config3 =
    Chc.Config.make ~n:6 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let spec3 = Chc.Executor.default_spec ~config:config3 ~seed:42 () in
  let config7 =
    Chc.Config.make ~n:7 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let spec7 = Chc.Executor.default_spec ~config:config7 ~seed:42 () in
  (* d=3 L-operator instance: three hulls of 8 points each, the shape
     round t of Algorithm CC averages. *)
  let polys3 =
    List.init 3 (fun _ -> Polytope.of_points ~dim:3 (mk_points3 rng 8))
  in
  let hulls3 = List.map Polytope.vertices polys3 in
  let pts3 = mk_points3 rng 12 in
  (* Warm the structural memo tables for the full-execution entries:
     bechamel's fast quota fits only a couple of n6-d3 runs, so without
     a warmup the estimate is dominated by the one cold run and swings
     ~5x between --fast and full mode — useless for the ratchet. The
     cold-cache cost profile is E13's job; here we track warm
     steady-state. *)
  ignore (Chc.Executor.run spec);
  ignore (Chc.Executor.run spec3);
  [ Test.make ~name:"hull2d/monotone-chain-100pts"
      (Staged.stage (fun () -> ignore (Hull2d.hull pts100)));
    Test.make ~name:"minkowski/edge-merge"
      (Staged.stage (fun () -> ignore (Hull2d.minkowski_sum polyA polyB)));
    Test.make ~name:"minkowski/pairwise-naive"
      (Staged.stage (fun () ->
           ignore
             (Hull2d.hull
                (List.concat_map (fun a -> List.map (Vec.add a) polyB) polyA))));
    Test.make ~name:"polytope/intersect-2d"
      (Staged.stage (fun () -> ignore (Polytope.intersect [pA; pB])));
    Test.make ~name:"polytope/hausdorff2-exact"
      (Staged.stage (fun () -> ignore (Polytope.hausdorff2 pA pB)));
    Test.make ~name:"lp/membership-30pts"
      (Staged.stage
         (let q = Vec.make [Q.of_ints 1 7; Q.of_ints 2 7] in
          fun () ->
            ignore (Geometry.Lp.in_convex_hull (Polytope.vertices pA) q)));
    Test.make ~name:"hullnd/facets-brute-3d"
      (Staged.stage
         (nocache (fun () -> ignore (Hullnd.enumerate_facets_brute ~dim:3 pts3))));
    Test.make ~name:"hullnd/facets-incremental-3d"
      (Staged.stage
         (nocache (fun () -> ignore (Hullnd.facets_incremental_3d pts3))));
    Test.make ~name:"l3/brute-baseline"
      (Staged.stage (nocache (fun () -> ignore (average3_lp hulls3))));
    Test.make ~name:"l3/incremental"
      (Staged.stage (nocache (fun () -> ignore (average3_incremental hulls3))));
    Test.make ~name:"l3/incremental-cached"
      (Staged.stage (fun () -> ignore (Polytope.average polys3)));
    Test.make ~name:"cc/full-execution-n5-d2"
      (Staged.stage (fun () -> ignore (Chc.Executor.run spec)));
    Test.make ~name:"cc/full-execution-n6-d3"
      (Staged.stage (fun () -> ignore (Chc.Executor.run spec3)));
    (* The hardest committed shape, measured COLD (memo tables
       flushed every run) under the default kernel, so the ratchet
       prices the geometry rather than memo hits. *)
    Test.make ~name:"cc/full-execution-n7-d3"
      (Staged.stage (fun () ->
           Parallel.Memo.clear_all ();
           ignore (Chc.Executor.run spec7))) ]

(* One profiled n=6/f=1/d=3 execution: the span profiler attributes the
   end-to-end wall-clock to protocol phases (round 0 vs rounds) and to
   the geometry/memo/wire layers underneath, complementing the
   per-primitive microbenchmarks above. *)
let profile_phases () =
  let config3 =
    Chc.Config.make ~n:6 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let spec3 = Chc.Executor.default_spec ~config:config3 ~seed:42 () in
  Obs.Prof.reset ();
  Obs.Prof.set_enabled true;
  ignore (Chc.Executor.run spec3);
  Obs.Prof.set_enabled false;
  let summary = Obs.Prof.summary () in
  Obs.Prof.reset ();
  summary

let json_escape s =
  String.concat ""
    (List.map
       (fun c ->
          match c with
          | '"' -> "\\\"" | '\\' -> "\\\\"
          | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let emit_json rows phases =
  match
    Obs.Sink.write_file ~path:"BENCH_E10.json" (fun oc ->
        output_string oc
          "{\n  \"experiment\": \"e10\",\n  \"unit\": \"ns/op\",\n  \"results\": [\n";
        let n = List.length rows in
        List.iteri
          (fun i (name, ns) ->
             Printf.fprintf oc "    {\"name\": \"%s\", \"ns_per_op\": %s}%s\n"
               (json_escape name)
               (if Float.is_nan ns then "null" else Printf.sprintf "%.1f" ns)
               (if i = n - 1 then "" else ","))
          rows;
        output_string oc "  ],\n  \"profile_phases\": [\n";
        let m = List.length phases in
        List.iteri
          (fun i (name, (s : Obs.Prof.stat)) ->
             Printf.fprintf oc
               "    {\"name\": \"%s\", \"calls\": %d, \"total_ns\": %.0f}%s\n"
               (json_escape name) s.Obs.Prof.calls s.Obs.Prof.total_ns
               (if i = m - 1 then "" else ","))
          phases;
        output_string oc "  ]\n}\n")
  with
  | Ok () ->
    Printf.printf "  wrote BENCH_E10.json (%d entries, %d phases)\n"
      (List.length rows) (List.length phases)
  | Error msg -> Printf.printf "  BENCH_E10.json NOT written: %s\n" msg

(* The perf ratchet. When main passes [--baseline BENCH_E10.json]
   (the committed numbers), every end-to-end execution and hullnd
   kernel entry of this run is compared against it and the whole bench
   run fails on a regression beyond [Util.bench_tolerance] (default
   2.5x; CHC_BENCH_TOLERANCE overrides it for noisy runners). Only the
   heavyweight entries are ratcheted — the sub-microsecond ones are
   too noisy at the fast quota to gate a build on.

   The committed file is this module's own [emit_json] output, one
   entry per line, so a line-oriented scan suffices; Codec.Json is
   int-only by design and ns_per_op is fractional. *)
let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ratcheted name =
  contains ~sub:"full-execution" name || contains ~sub:"hullnd/" name

let parse_baseline path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      let entries = ref [] in
      (try
         while true do
           let line = input_line ic in
           match
             Scanf.sscanf line " {\"name\": %S, \"ns_per_op\": %f"
               (fun name ns -> (name, ns))
           with
           | entry -> entries := entry :: !entries
           | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
         done
       with End_of_file -> ());
      List.rev !entries)

let check_baseline measured =
  match Util.baseline with
  | None -> ()
  | Some path ->
    let committed = parse_baseline path in
    let tol = Util.bench_tolerance in
    let failures = ref [] in
    let rows =
      List.filter_map
        (fun (name, committed_ns) ->
           if not (ratcheted name && committed_ns > 0.0) then None
           else
             match List.assoc_opt name measured with
             | Some fresh when not (Float.is_nan fresh) ->
               let ratio = fresh /. committed_ns in
               if ratio > tol then failures := (name, ratio) :: !failures;
               Some
                 [ name;
                   Printf.sprintf "%.2f ms" (committed_ns /. 1e6);
                   Printf.sprintf "%.2f ms" (fresh /. 1e6);
                   Printf.sprintf "%.2fx%s" ratio
                     (if ratio > tol then "  REGRESSION" else "") ]
             | _ -> Some [name; Util.f3 committed_ns; "not measured"; "-"])
        committed
    in
    Util.print_table
      ~title:
        (Printf.sprintf "E10: perf ratchet vs %s (tolerance %.2fx)" path tol)
      ~header:["entry"; "committed"; "this run"; "ratio"]
      ~widths:[36; 10; 12; 18]
      rows;
    (match !failures with
     | [] -> ()
     | fs ->
       failwith
         (Printf.sprintf
            "e10 ratchet: %d entr%s regressed past %.2fx of the committed \
             baseline (%s) — investigate, or re-bless BENCH_E10.json if the \
             slowdown is intended"
            (List.length fs)
            (if List.length fs = 1 then "y" else "ies")
            tol path))

let run () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200
      ~quota:(Time.second (if Util.fast then 0.25 else 1.0))
      ~kde:None ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"chc" ~fmt:"%s %s" (tests ()))
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let measured = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
       let ns =
         match Analyze.OLS.estimates ols_result with
         | Some (est :: _) -> est
         | _ -> nan
       in
       measured := (name, ns) :: !measured)
    results;
  let measured = List.sort compare !measured in
  let rows =
    List.map
      (fun (name, ns) ->
         let cell =
           if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
           else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
           else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
           else Printf.sprintf "%.0f ns" ns
         in
         [name; cell])
      measured
  in
  Util.print_table
    ~title:"E10: exact-arithmetic cost profile (bechamel, monotonic clock)"
    ~header:["operation"; "time/run"]
    ~widths:[36; 10]
    rows;
  let phases = profile_phases () in
  Util.print_table
    ~title:"E10: profiled phase breakdown, one n=6 f=1 d=3 execution (spans)"
    ~header:["span"; "calls"; "total ms"]
    ~widths:[24; 7; 9]
    (List.map
       (fun (name, (s : Obs.Prof.stat)) ->
          [ name; string_of_int s.Obs.Prof.calls;
            Printf.sprintf "%.2f" (s.Obs.Prof.total_ns /. 1e6) ])
       phases);
  emit_json measured phases;
  (match
     ( List.assoc_opt "chc l3/brute-baseline" measured,
       List.assoc_opt "chc l3/incremental" measured )
   with
   | Some b, Some i when i > 0.0 && not (Float.is_nan b) ->
     Printf.printf "  d=3 L-operator speedup (brute/incremental): %.1fx\n" (b /. i)
   | _ -> ());
  check_baseline measured
