module Q = Numeric.Q
module Crash = Runtime.Crash
module Config = Chc.Config

type mix_item = { n : int; f : int; d : int; recover : bool }

let default_mix =
  [ { n = 4; f = 1; d = 1; recover = false };
    { n = 5; f = 1; d = 2; recover = false };
    { n = 6; f = 1; d = 2; recover = false };
    (* 3-d instances reach the polytope engine through round 0's
       intersection alone: crash-free under the daemon's fifo order,
       every process holds the same view, so h[0] is computed once
       and every later round merges to one L term and builds no hull.
       Grading builds the input hull. *)
    { n = 6; f = 1; d = 3; recover = false };
    { n = 6; f = 1; d = 2; recover = true } ]

let job ~rng ~id { n; f; d; recover } =
  let config =
    Config.make ~n ~f ~d ~eps:(Q.of_ints 1 100) ~lo:Q.zero ~hi:Q.one
  in
  let inputs = Chc.Scenario.random_inputs ~config ~rng () in
  let crash = Array.make n Crash.Never in
  if recover then
    crash.(0) <-
      Crash.Crash_recover { trigger = Crash.Receives 2; delay = 8; keep = 0 };
  { Server.id; config; inputs; crash; round0 = `Stable_vector }

type phase = {
  label : string;
  instances : int;
  wall_s : float;
  throughput_ips : float;
  latency_p50_s : float;
  latency_p99_s : float;
  latency_max_s : float;
  max_inflight : int;
  grade_failures : string list;
}

let percentile samples p =
  match List.sort compare samples with
  | [] -> 0.
  | sorted ->
    let len = List.length sorted in
    let rank =
      (* nearest-rank: smallest index whose cumulative share >= p *)
      Stdlib.min (len - 1)
        (Stdlib.max 0 (int_of_float (ceil (p *. float_of_int len)) - 1))
    in
    List.nth sorted rank

(* Shared phase skeleton: [refill] decides what to submit before each
   pump, given (submitted so far, completed so far); the loop runs
   until [total] outcomes have arrived. *)
let run_phase ?on_pump ~server ~label ~total ~refill () =
  (* The monotonic clock the server times latencies with, so a
     latency can never exceed the phase's wall time. *)
  let started = Obs.Prof.now_ns () in
  let latencies = ref [] in
  let failures = ref [] in
  let max_inflight = ref 0 in
  let submitted = ref 0 in
  let completed = ref 0 in
  while !completed < total do
    refill ~submitted ~completed:!completed;
    max_inflight := Stdlib.max !max_inflight (Server.inflight server);
    let outcomes = Server.pump server in
    List.iter
      (fun (o : Server.outcome) ->
         latencies := o.Server.latency_s :: !latencies;
         match Server.grade_count server o with
         | Ok () -> ()
         | Error msg ->
           failures :=
             Printf.sprintf "instance %d: %s" o.Server.job.Server.id msg
             :: !failures)
      outcomes;
    completed := !completed + List.length outcomes;
    (match on_pump with None -> () | Some f -> f ())
  done;
  let wall_s = Obs.Prof.seconds_since started in
  { label;
    instances = !completed;
    wall_s;
    throughput_ips =
      (if wall_s > 0. then float_of_int !completed /. wall_s else 0.);
    latency_p50_s = percentile !latencies 0.50;
    latency_p99_s = percentile !latencies 0.99;
    latency_max_s = List.fold_left Stdlib.max 0. !latencies;
    max_inflight = !max_inflight;
    grade_failures = List.rev !failures }

let closed_loop ?on_pump ~server ~rng ~mix ~label ~first_id ~concurrency
    ~total () =
  let mix = Array.of_list mix in
  let refill ~submitted ~completed:_ =
    while
      !submitted < total && Server.inflight server < concurrency
    do
      let id = first_id + !submitted in
      Server.submit server
        (job ~rng ~id mix.(!submitted mod Array.length mix));
      incr submitted
    done
  in
  run_phase ?on_pump ~server ~label ~total ~refill ()

let open_loop ?on_pump ~server ~rng ~mix ~label ~first_id ~per_pump ~pumps
    () =
  let mix = Array.of_list mix in
  let total = per_pump * pumps in
  let refill ~submitted ~completed:_ =
    (* [pumps] arrival bursts, then pure draining *)
    let burst = Stdlib.min per_pump (total - !submitted) in
    for k = 0 to burst - 1 do
      let id = first_id + !submitted + k in
      Server.submit server
        (job ~rng ~id mix.((!submitted + k) mod Array.length mix))
    done;
    submitted := !submitted + burst
  in
  run_phase ?on_pump ~server ~label ~total ~refill ()
