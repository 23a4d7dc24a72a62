(* A single fast d=3 execution with every Theorem-2/Theorem-3 check —
   the CI smoke test for the d>=3 geometry kernel (see the bench-smoke
   alias in bench/dune). Fails loudly so a broken hot path cannot slip
   through a green build.

   The same checked run doubles as the kernel-equivalence gate: the
   filtered interval kernel must be an observationally perfect
   stand-in for exact rationals — byte-identical execution transcripts
   and equal decision polytopes. The polytope-engine gate holds the
   incremental engine, the only production path, to the same bar
   against the from-scratch rebuild, which survives as its test
   oracle and certification fallback. *)

module Q = Numeric.Q
module Executor = Chc.Executor

let run () =
  let config =
    Chc.Config.make ~n:6 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Executor.default_spec ~config ~seed:42 () in
  let trace = Obs.Trace.create () in
  let r = Executor.run ~trace spec in
  Printf.printf
    "  smoke3d (n=6 f=1 d=3): terminated=%b valid=%b eps-agree=%b optimal=%b\n"
    r.Executor.terminated r.Executor.valid r.Executor.agreement_ok
    r.Executor.optimal;
  (* The kernel-counter half of the observability layer: per-round
     message/byte/vertex rows (diameters skipped — exact d=3 Hausdorff
     per round would dominate the smoke budget), cache hit rates and
     pool utilization, so a CI log shows what the kernel actually
     did. *)
  Obs.Report.print stdout (Executor.observe ~trace r);
  if not
      (r.Executor.terminated && r.Executor.valid && r.Executor.agreement_ok
       && r.Executor.optimal)
  then failwith "smoke3d: d=3 execution lost a Theorem-2/Theorem-3 property";
  (* Kernel equivalence. Memo tables are bypassed so a result cached
     by one kernel can't be served to the other and mask a
     divergence. *)
  let run_under m =
    Parallel.Memo.with_bypass (fun () ->
        let trace = Obs.Trace.create () in
        let r = Executor.run ~trace { spec with Chc.Scenario.kernel = Some m } in
        (r, Obs.Trace.to_jsonl trace))
  in
  Numeric.Kernel.reset_stats ();
  let exact, exact_tr = run_under Numeric.Kernel.Exact in
  let filtered, filtered_tr = run_under Numeric.Kernel.Filtered in
  let outputs (r : Executor.report) = r.Executor.result.Chc.Cc.outputs in
  if not (String.equal exact_tr filtered_tr) then
    failwith
      "smoke3d: filtered-kernel transcript differs from exact (trace bytes)";
  Array.iteri
    (fun i o ->
       match (o, (outputs filtered).(i)) with
       | None, None -> ()
       | Some p, Some p' when Geometry.Polytope.equal p p' -> ()
       | _ ->
         failwith
           (Printf.sprintf
              "smoke3d: kernel divergence — process %d decided different \
               polytopes under exact vs filtered" i))
    (outputs exact);
  let { Numeric.Kernel.hits; fallbacks } = Numeric.Kernel.totals () in
  Printf.printf
    "  kernel equivalence: exact = filtered (transcript %d bytes, filter \
     hits=%d fallbacks=%d)\n"
    (String.length exact_tr) hits fallbacks;
  (* Engine equivalence: the incremental engine's certified fast paths
     must be observationally invisible — executor reports and traces
     byte-identical to the rebuild oracle. *)
  let run_engine mode =
    Parallel.Memo.with_bypass (fun () ->
        Geometry.Poly_engine.with_mode mode (fun () ->
            let trace = Obs.Trace.create () in
            let r = Executor.run ~trace spec in
            (r, Obs.Trace.to_jsonl trace)))
  in
  let reb, reb_tr = run_engine Geometry.Poly_engine.Rebuild in
  let inc, inc_tr = run_engine Geometry.Poly_engine.Incremental in
  if not (String.equal reb_tr inc_tr) then
    failwith
      "smoke3d: incremental-engine transcript differs from rebuild (trace \
       bytes)";
  let verdict (r : Executor.report) =
    ( r.Executor.terminated, r.Executor.valid, r.Executor.agreement_ok,
      r.Executor.optimal, r.Executor.decision_stable,
      r.Executor.result.Chc.Cc.t_end )
  in
  (* The volumes too: the incremental engine reads them off the soup
     its decision carries, the rebuild engine off facet fans. *)
  let same_q field = Option.equal Q.equal (field reb) (field inc) in
  if verdict reb <> verdict inc
     || not (same_q (fun r -> r.Executor.agreement2))
     || not (same_q (fun r -> r.Executor.min_output_volume))
     || not (same_q (fun r -> r.Executor.iz_volume))
  then failwith "smoke3d: engine divergence — executor reports differ";
  Array.iteri
    (fun i o ->
       match (o, (outputs inc).(i)) with
       | None, None -> ()
       | Some p, Some p' when Geometry.Polytope.equal p p' -> ()
       | _ ->
         failwith
           (Printf.sprintf
              "smoke3d: engine divergence — process %d decided different \
               polytopes under rebuild vs incremental" i))
    (outputs reb);
  Printf.printf
    "  engine equivalence: rebuild = incremental (transcript %d bytes)\n"
    (String.length reb_tr)
