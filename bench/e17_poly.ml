(* E17 — the incremental polytope engine vs the from-scratch rebuild.

   The incremental engine builds d=3 hulls and intersections on
   float-guided paths that exact checks certify (beneath–beyond from
   a float seed, pair-line clipping), and a d=3 polytope carries the
   certified dual it was built with, instead of rebuilding every
   polytope exactly. This experiment prices exactly that ablation on
   the protocol's hardest committed shape — the n=7/f=1/d=3 full
   execution that e10 ratchets — by running the identical scenario
   under [Poly_engine.with_mode Rebuild] and [Incremental].
   Rebuild is not a runtime option: it survives as the engine's test
   oracle and certification fallback, and this ablation is one of
   the places that still runs it.

   Methodology mirrors e16: runs are interleaved (rebuild/incremental,
   [rounds] times), COLD (memo tables flushed before every execution,
   so the speedup measured is the engine's certified fast paths and
   carried duals, not a memo artifact), under the default
   kernel — the same conditions as the e10 cc/full-execution-n7-d3
   entry. Each engine keeps its best wall clock.

   The ratchet: incremental must stay at least CHC_E17_MIN_SPEEDUP
   (default 1.6x) faster than rebuild. The rebuild leg is the old
   engine verbatim, so this floor is the PR's perf win enforced
   against its own baseline on whatever machine CI runs. *)

module Q = Numeric.Q
module PE = Geometry.Poly_engine

let min_speedup =
  match Sys.getenv_opt "CHC_E17_MIN_SPEEDUP" with
  | Some s -> (try float_of_string s with Failure _ -> 1.6)
  | None -> 1.6

let label = function PE.Rebuild -> "rebuild" | PE.Incremental -> "incremental"

let run () =
  let config =
    Chc.Config.make ~n:7 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Chc.Executor.default_spec ~config ~seed:42 () in
  let run_once mode =
    Parallel.Memo.clear_all ();
    PE.with_mode mode @@ fun () ->
    let t0 = Unix.gettimeofday () in
    let r = Chc.Executor.run spec in
    let dt = Unix.gettimeofday () -. t0 in
    if not (r.Chc.Executor.terminated && r.Chc.Executor.valid
            && r.Chc.Executor.agreement_ok && r.Chc.Executor.optimal)
    then begin
      Printf.printf "  E17 FAILED: Theorem 2 violation under %s engine\n"
        (label mode);
      exit 1
    end;
    dt
  in
  (* untimed warmup: grid/pool first-touch costs must not land on
     whichever engine runs first *)
  ignore (run_once PE.Incremental : float);
  let rounds = if Util.fast then 3 else 5 in
  let engines = [ PE.Rebuild; PE.Incremental ] in
  let runs =
    List.concat
      (List.init rounds (fun _ ->
           List.map (fun m -> (m, run_once m)) engines))
  in
  let best m =
    List.fold_left
      (fun acc (m', dt) -> if m' = m && dt < acc then dt else acc)
      infinity runs
  in
  let reb = best PE.Rebuild in
  let inc = best PE.Incremental in
  let speedup = reb /. inc in
  Util.print_table
    ~title:
      (Printf.sprintf
         "E17: polytope engine ablation, cc/full-execution-n7-d3 (best of %d \
          cold runs)"
         rounds)
    ~header:[ "engine"; "ms/exec"; "speedup" ] ~widths:[ 12; 10; 8 ]
    [ [ "rebuild"; Util.f3 (reb *. 1e3); "1.00" ];
      [ "incremental"; Util.f3 (inc *. 1e3); Printf.sprintf "%.2f" speedup ] ];
  (* Engine telemetry for the run log: the chc_poly_* counters say how
     the incremental wins were realized (float-certified hulls and
     intersections) and that nothing fell back. *)
  let counters =
    List.filter_map
      (fun s ->
         match s.Obs.Metrics.value with
         | Obs.Metrics.Counter v
           when String.length s.Obs.Metrics.metric >= 9
             && String.sub s.Obs.Metrics.metric 0 9 = "chc_poly_" ->
           let l =
             String.concat ","
               (List.map (fun (k, v) -> k ^ "=" ^ v) s.Obs.Metrics.labels)
           in
           Some (Printf.sprintf "%s{%s}=%d" s.Obs.Metrics.metric l v)
         | _ -> None)
      (Obs.Metrics.snapshot_all ())
  in
  Printf.printf "  counters: %s\n" (String.concat " " counters);
  (match
     Obs.Sink.write_file ~path:"BENCH_E17.json" (fun oc ->
         Printf.fprintf oc
           "{\n  \"experiment\": \"e17\",\n  \"mode\": \"%s\",\n\
           \  \"shape\": {\"n\": 7, \"f\": 1, \"d\": 3},\n\
           \  \"rounds\": %d,\n  \"min_speedup\": %.2f,\n\
           \  \"rebuild_ms\": %.3f,\n  \"incremental_ms\": %.3f,\n\
           \  \"speedup\": %.2f\n}\n"
           (if Util.fast then "fast" else "full")
           rounds min_speedup (reb *. 1e3) (inc *. 1e3) speedup)
   with
   | Ok () -> print_endline "  wrote BENCH_E17.json"
   | Error msg -> Printf.printf "  BENCH_E17.json NOT written: %s\n" msg);
  if speedup < min_speedup then begin
    Printf.printf
      "  E17 FAILED: incremental %.1f ms only %.2fx faster than rebuild \
       %.1f ms (floor %.2fx; override CHC_E17_MIN_SPEEDUP)\n"
      (inc *. 1e3) speedup (reb *. 1e3) min_speedup;
    exit 1
  end;
  Printf.printf "  ratchet ok: incremental %.1f ms vs rebuild %.1f ms — \
                 %.2fx >= %.2fx floor\n"
    (inc *. 1e3) (reb *. 1e3) speedup min_speedup
