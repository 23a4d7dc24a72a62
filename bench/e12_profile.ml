(* E12 — Phase breakdown and causal critical paths vs scheduler
   strategy (n=6, f=1, d=3).

   Two complementary views of the same configuration under four
   adversaries:

   - the causal skeleton (Obs.Causal), computed from the deterministic
     trace: total scheduler steps, the longest critical message chain
     gating any decision, and the mean decide step — all in scheduler
     steps, so the columns are exact and pool-size invariant;

   - the wall-clock phase breakdown (Obs.Prof spans): how the
     execution's compute time splits between the round-0 Tverberg
     intersection and the per-round L-operator averaging, plus the
     share spent inside the geometry kernels.

   The contrast is the point of the experiment: adversaries reshuffle
   the causal columns (more steps, longer chains under lag) while the
   phase split stays a property of the geometry, not the schedule. *)

module Q = Numeric.Q
module Executor = Chc.Executor

let schedulers = [ "random"; "round-robin"; "lifo"; "lag" ]

let config () =
  Chc.Config.make ~n:6 ~f:1 ~d:3 ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one

let spec_for name =
  let faulty = [ 0 ] in
  match Chc.Cli.parse_scheduler ~faulty name with
  | Error msg -> failwith ("e12: " ^ msg)
  | Ok scheduler ->
    Executor.default_spec ~config:(config ()) ~seed:42 ~faulty ~scheduler ()

let total_of summary name =
  match List.assoc_opt name summary with
  | Some (s : Obs.Prof.stat) -> s.Obs.Prof.total_ns
  | None -> 0.0

let geometry_total summary =
  List.fold_left
    (fun acc (name, (s : Obs.Prof.stat)) ->
       if String.length name >= 9 && String.sub name 0 9 = "geometry."
          || String.length name >= 7 && String.sub name 0 7 = "hullnd."
       then acc +. s.Obs.Prof.total_ns
       else acc)
    0.0 summary

let run () =
  let rows =
    List.map
      (fun name ->
         let spec = spec_for name in
         (* Causal view: schedule-derived, deterministic. *)
         let trace = Obs.Trace.create () in
         ignore (Executor.run ~trace spec);
         let causal = Obs.Causal.analyze ~n:6 trace in
         let decided, decide_steps =
           Array.fold_left
             (fun (k, acc) (p : Obs.Causal.process) ->
                match p.Obs.Causal.decide_step with
                | Some s -> (k + 1, acc + s)
                | None -> (k, acc))
             (0, 0) causal.Obs.Causal.processes
         in
         let mean_decide =
           if decided = 0 then 0.0
           else float_of_int decide_steps /. float_of_int decided
         in
         (* Wall-clock view: one profiled re-execution. *)
         Obs.Prof.reset ();
         Obs.Prof.set_enabled true;
         ignore (Executor.run spec);
         Obs.Prof.set_enabled false;
         let summary = Obs.Prof.summary () in
         Obs.Prof.reset ();
         (* geom sums every geometry/hull span in the profiled window,
            including the report's verification geometry (correct hull,
            Hausdorff agreement, I_Z optimality) that runs after
            cc.execute returns — so it can exceed exec. Later rows
            run the same inputs, and only the minkowski table carries
            work from one row to the next. *)
         [ name;
           string_of_int causal.Obs.Causal.total_steps;
           string_of_int (Obs.Causal.max_chain_length causal);
           Printf.sprintf "%d/6" decided;
           Printf.sprintf "%.0f" mean_decide;
           Printf.sprintf "%.1f" (total_of summary "cc.round0" /. 1e6);
           Printf.sprintf "%.1f" (total_of summary "cc.round" /. 1e6);
           Printf.sprintf "%.1f" (total_of summary "cc.execute" /. 1e6);
           Printf.sprintf "%.1f" (geometry_total summary /. 1e6) ])
      schedulers
  in
  Util.print_table
    ~title:
      "E12: causal critical paths and phase breakdown vs adversary \
       (n=6 f=1 d=3, seed 42; steps/chain exact, ms wall-clock)"
    ~header:
      [ "scheduler"; "steps"; "max-chain"; "decided"; "mean-dec";
        "round0_ms"; "rounds_ms"; "exec_ms"; "geom+verify_ms" ]
    ~widths:[ 12; 6; 9; 7; 8; 9; 9; 8; 14 ]
    rows
