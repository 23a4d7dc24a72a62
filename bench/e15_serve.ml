(* E15 — serving-daemon throughput and decision latency.

   Drives the sharded multi-instance daemon (lib/serve) through three
   load phases and records BENCH_E15.json:

   - warmup:    a short mixed closed loop (shapes from
                Workload.default_mix, including crash-recovery
                instances) that also populates the caches;
   - sustained-64: the same n=6/f=1/d=2 shape at 64 in flight, the
                reference the 1000-in-flight phase is read against;
   - sustained: the headline closed loop — >= 1000 concurrent
                n=6/f=1/d=2 instances held in flight until the
                completion target, the throughput measurement;
   - open-loop: fixed arrivals per pump regardless of completions,
                the latency-under-arrival-pressure measurement.

   Every completed instance is graded against Theorem 2 on the spot;
   any violation fails the experiment (a throughput number over wrong
   decisions would be worthless). Fast mode shrinks the targets so
   the phase structure still runs in seconds. *)

module Server = Serve.Server
module Workload = Serve.Workload

let sustained_shape = { Workload.n = 6; f = 1; d = 2; recover = false }

let run () =
  let fast = Util.fast in
  let server = Server.create ~fuel:64 () in
  let rng = Runtime.Rng.create 2026 in
  let warmup =
    Workload.closed_loop ~server ~rng ~mix:Workload.default_mix
      ~label:"warmup" ~first_id:0
      ~concurrency:(if fast then 16 else 64)
      ~total:(if fast then 40 else 200)
      ()
  in
  let sustained_64 =
    Workload.closed_loop ~server ~rng ~mix:[ sustained_shape ]
      ~label:"sustained-64" ~first_id:500_000
      ~concurrency:(if fast then 16 else 64)
      ~total:(if fast then 32 else 320)
      ()
  in
  let sustained =
    Workload.closed_loop ~server ~rng ~mix:[ sustained_shape ]
      ~label:"sustained" ~first_id:1_000_000
      ~concurrency:(if fast then 50 else 1000)
      ~total:(if fast then 60 else 1100)
      ()
  in
  let open_loop =
    Workload.open_loop ~server ~rng ~mix:Workload.default_mix
      ~label:"open-loop" ~first_id:2_000_000
      ~per_pump:(if fast then 2 else 5)
      ~pumps:(if fast then 10 else 40)
      ()
  in
  let phases = [ warmup; sustained_64; sustained; open_loop ] in
  Util.print_table ~title:"E15: serving daemon (closed/open loop)"
    ~header:
      [ "phase"; "instances"; "wall_s"; "inst/s"; "p50_ms"; "p99_ms";
        "max_ms"; "inflight<="; "violations" ]
    ~widths:[ 12; 9; 8; 8; 8; 8; 8; 10; 10 ]
    (List.map
       (fun (p : Workload.phase) ->
          [ p.Workload.label;
            string_of_int p.Workload.instances;
            Util.f3 p.Workload.wall_s;
            Printf.sprintf "%.1f" p.Workload.throughput_ips;
            Printf.sprintf "%.1f" (p.Workload.latency_p50_s *. 1e3);
            Printf.sprintf "%.1f" (p.Workload.latency_p99_s *. 1e3);
            Printf.sprintf "%.1f" (p.Workload.latency_max_s *. 1e3);
            string_of_int p.Workload.max_inflight;
            string_of_int (List.length p.Workload.grade_failures) ])
       phases);
  List.iter
    (fun (p : Workload.phase) ->
       List.iter
         (fun msg -> Printf.printf "  GRADE FAIL [%s] %s\n" p.Workload.label msg)
         p.Workload.grade_failures)
    phases;
  (* The committed artifact records a full-mode run; fast mode still
     writes one so the pipeline is exercised either way. *)
  (match
     Obs.Sink.write_file ~path:"BENCH_E15.json" (fun oc ->
         Printf.fprintf oc
           "{\n  \"experiment\": \"e15\",\n  \"mode\": \"%s\",\n\
           \  \"shards\": %d,\n  \"sustained_shape\": \
            {\"n\": 6, \"f\": 1, \"d\": 2},\n  \"phases\": [\n"
           (if fast then "fast" else "full")
           (Server.shards server);
         let last = List.length phases - 1 in
         List.iteri
           (fun i (p : Workload.phase) ->
              Printf.fprintf oc
                "    {\"label\": \"%s\", \"instances\": %d, \"wall_s\": \
                 %.3f, \"throughput_ips\": %.2f, \"latency_p50_ms\": %.2f, \
                 \"latency_p99_ms\": %.2f, \"latency_max_ms\": %.2f, \
                 \"max_inflight\": %d, \"grade_failures\": %d}%s\n"
                p.Workload.label p.Workload.instances p.Workload.wall_s
                p.Workload.throughput_ips
                (p.Workload.latency_p50_s *. 1e3)
                (p.Workload.latency_p99_s *. 1e3)
                (p.Workload.latency_max_s *. 1e3)
                p.Workload.max_inflight
                (List.length p.Workload.grade_failures)
                (if i = last then "" else ","))
           phases;
         output_string oc "  ]\n}\n")
   with
   | Ok () -> Printf.printf "  wrote BENCH_E15.json (%d phases)\n" (List.length phases)
   | Error msg -> Printf.printf "  BENCH_E15.json NOT written: %s\n" msg);
  let violations =
    List.concat_map (fun p -> p.Workload.grade_failures) phases
  in
  if violations <> [] then begin
    Printf.printf "  E15 FAILED: %d Theorem 2 violation(s) under load\n"
      (List.length violations);
    exit 1
  end
