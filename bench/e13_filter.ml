(* E13 — Kernel ablation: exact rationals vs the certified
   float-interval filter, across full executions of Algorithm CC.

   For each (n, d) the same scenario is executed twice — once per
   CHC_KERNEL mode. The structural memo tables stay enabled (that is
   the production hot path) but are flushed before every measured run,
   so each starts from cold caches and a value computed under one
   kernel is never served to the other's run. The filter's counters
   give the fraction of predicates the interval filter certified and
   the fraction that fell back to exact arithmetic. Results land in
   BENCH_E13.json. *)

module Q = Numeric.Q
module K = Numeric.Kernel

type entry = {
  n : int;
  d : int;
  exact_ms : float;
  filtered_ms : float;
  hits : int;            (* filtered run: interval hits *)
  fallbacks : int;       (* filtered run: exact fallbacks *)
  preds : (string * K.stat) list;  (** per-predicate, filtered run *)
}

let time_exec spec mode =
  K.with_mode mode (fun () ->
      let reps = if Util.fast then 1 else 3 in
      let best = ref infinity in
      for _ = 1 to reps do
        Parallel.Memo.clear_all ();
        let t0 = Unix.gettimeofday () in
        ignore (Chc.Executor.run spec);
        best := Float.min !best (1000.0 *. (Unix.gettimeofday () -. t0))
      done;
      !best)

let measure (n, d) =
  let config =
    Chc.Config.make ~n ~f:1 ~d ~eps:(Q.of_ints 1 2) ~lo:Q.zero ~hi:Q.one
  in
  let spec = Chc.Executor.default_spec ~config ~seed:42 () in
  let exact_ms = time_exec spec K.Exact in
  K.reset_stats ();
  let filtered_ms = time_exec spec K.Filtered in
  let { K.hits; fallbacks } = K.totals () in
  let preds =
    List.filter (fun (_, s) -> s.K.hits + s.K.fallbacks > 0) (K.stats ())
  in
  { n; d; exact_ms; filtered_ms; hits; fallbacks; preds }

let fb_rate e =
  let total = e.hits + e.fallbacks in
  if total = 0 then 0.0 else float_of_int e.fallbacks /. float_of_int total

let speedup base ms = if ms > 0.0 then base /. ms else 0.0

let emit_json entries =
  match
    Obs.Sink.write_file ~path:"BENCH_E13.json" (fun oc ->
        output_string oc
          "{\n  \"experiment\": \"e13\",\n  \"unit\": \"ms/execution\",\n\
          \  \"results\": [\n";
        let last = List.length entries - 1 in
        List.iteri
          (fun i e ->
             Printf.fprintf oc
               "    {\"name\": \"full-execution-n%d-d%d\", \"exact_ms\": \
                %.2f, \"filtered_ms\": %.2f, \"filtered_speedup\": %.3f, \
                \"filter_hits\": %d, \"filter_fallbacks\": %d, \
                \"fallback_rate\": %.4f, \"preds\": [%s]}%s\n"
               e.n e.d e.exact_ms e.filtered_ms
               (speedup e.exact_ms e.filtered_ms)
               e.hits e.fallbacks (fb_rate e)
               (String.concat ", "
                  (List.map
                     (fun (p, (s : K.stat)) ->
                        Printf.sprintf
                          "{\"pred\": \"%s\", \"hits\": %d, \
                           \"fallbacks\": %d}"
                          p s.K.hits s.K.fallbacks)
                     e.preds))
               (if i = last then "" else ","))
          entries;
        output_string oc "  ]\n}\n")
  with
  | Ok () ->
    Printf.printf "  wrote BENCH_E13.json (%d entries)\n" (List.length entries)
  | Error msg -> Printf.printf "  BENCH_E13.json NOT written: %s\n" msg

let run () =
  (* n >= (d+2)f + 1, so d=3 starts at n=6. *)
  let entries = List.map measure [ (5, 2); (6, 2); (6, 3); (7, 3) ] in
  Util.print_table
    ~title:"E13: exact vs filtered kernels (cold caches per run)"
    ~header:
      [ "scenario"; "exact ms"; "filt ms"; "speedup"; "filt hits"; "fb rate" ]
    ~widths:[22; 9; 9; 8; 10; 8]
    (List.map
       (fun e ->
          [ Printf.sprintf "n=%d f=1 d=%d seed=42" e.n e.d;
            Printf.sprintf "%.1f" e.exact_ms;
            Printf.sprintf "%.1f" e.filtered_ms;
            Printf.sprintf "%.2f" (speedup e.exact_ms e.filtered_ms);
            Printf.sprintf "%d" e.hits;
            Printf.sprintf "%.1f%%" (100.0 *. fb_rate e) ])
       entries);
  emit_json entries
