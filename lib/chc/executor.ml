module Q = Numeric.Q
module Vec = Geometry.Vec
module Polytope = Geometry.Polytope
module Rng = Runtime.Rng
module Crash = Runtime.Crash

type spec = Scenario.t = {
  config : Config.t;
  inputs : Vec.t array;
  crash : Crash.plan array;
  scheduler : Runtime.Scheduler.t;
  seed : int;
  round0 : Cc.round0_mode;
  prefix : (int * int) list;
  kernel : Numeric.Kernel.mode option;
  wal : Runtime.Wal.config option;
}

type report = {
  spec : spec;
  result : Cc.result;
  faulty : int list;
  recovered : int list;
  decision_stable : bool;
  correct_hull : Polytope.t;
  terminated : bool;
  valid : bool;
  valid_all_inputs : bool;
  agreement2 : Q.t option;
  agreement_ok : bool;
  iz : Polytope.t option;
  optimal : bool;
  min_output_volume : Q.t option;
  iz_volume : Q.t option;
}

let random_inputs = Scenario.random_inputs

let default_spec ~config ~seed ?faulty ?scheduler ?round0 ?max_budget
    ?ensure_crash () =
  Scenario.default ~config ~seed ?faulty ?scheduler ?round0 ?max_budget
    ?ensure_crash ()

let min_opt acc v =
  match acc with
  | None -> Some v
  | Some a -> Some (Q.min a v)

(* Per-round protocol metrics, read off a finished execution. One
   history entry = one round-t broadcast payload, so [messages] and
   [wire_bytes] reproduce exactly the accounting E5 used to do by
   hand; [diameter] reproduces E1's witness-capped max pairwise
   Hausdorff. *)
let round_metrics ?witnesses ~faulty (result : Cc.result) =
  let entries_at t =
    Array.to_list result.Cc.history
    |> List.filter_map (fun h -> List.assoc_opt t h)
  in
  let witness_polys_at t =
    match witnesses with
    | None -> []
    | Some k ->
      Array.to_list result.Cc.history
      |> List.mapi (fun i h -> (i, h))
      |> List.filter_map (fun (i, h) ->
          if List.mem i faulty then None else List.assoc_opt t h)
      |> List.filteri (fun idx _ -> idx < k)
  in
  List.filter_map
    (fun t ->
       match entries_at t with
       | [] -> None
       | entries ->
         let messages = List.length entries in
         let wire_bytes =
           List.fold_left
             (fun acc h -> acc + Codec.Wire.polytope_size h)
             0 entries
         in
         let max_vertices =
           List.fold_left
             (fun acc h -> Stdlib.max acc (List.length (Polytope.vertices h)))
             0 entries
         in
         let diameter =
           let rec pairs acc = function
             | [] -> acc
             | p :: rest ->
               pairs
                 (List.fold_left
                    (fun acc q -> Stdlib.max acc (Polytope.hausdorff p q))
                    acc rest)
                 rest
           in
           match witness_polys_at t with
           | [] | [ _ ] -> None
           | polys ->
             (* equal witnesses are 0 apart, so the distinct ones have
                the same largest pairwise distance *)
             Some (pairs 0.0 (Polytope.distinct polys))
         in
         Some
           { Obs.Report.round = t; messages; wire_bytes; max_vertices;
             diameter })
    (List.init (result.Cc.t_end + 1) Fun.id)

let sim_of_metrics (m : Runtime.Sim.metrics) : Obs.Report.sim =
  { Obs.Report.sent = m.Runtime.Sim.sent;
    dropped = m.Runtime.Sim.dropped;
    delivered = m.Runtime.Sim.delivered;
    dead_lettered = m.Runtime.Sim.dead_lettered;
    recoveries = m.Runtime.Sim.recoveries;
    steps = m.Runtime.Sim.steps }

let observe ?trace ?witnesses report =
  let rounds = round_metrics ?witnesses ~faulty:report.faulty report.result in
  Obs.Report.capture
    ~sim:(Some (sim_of_metrics report.result.Cc.metrics))
    ~rounds
    ?trace_events:(Option.map Obs.Trace.length trace)
    ()

let run_graded ?trace spec =
  let { config; inputs; crash; scheduler; seed; round0; prefix; kernel = _;
        wal } =
    spec
  in
  let result =
    Cc.execute ?trace ~prefix ~round0 ?wal ~config ~inputs ~crash ~scheduler
      ~seed ()
  in
  let n = config.Config.n in
  let faulty = Cc.fault_set crash in
  (* The Iz / optimality checks below keep the plan-based faulty set —
     the containment argument is about which inputs the adversary
     controls, and a recovered process's input was never
     adversarial. *)
  let recovered =
    List.filter (fun i -> result.Cc.recovered.(i)) (List.init n Fun.id)
  in
  let graded =
    Grade.graded ~n ~faulty ~recovered:(fun i -> result.Cc.recovered.(i))
  in
  let decision_stable = result.Cc.redecided = [] in
  let grade name f =
    if Obs.Prof.enabled () then Obs.Prof.with_span ("grade." ^ name) f
    else f ()
  in
  let correct_hull = grade "hulls" @@ fun () -> Grade.hull config inputs graded in
  let ff_outputs =
    List.filter_map (fun i -> result.Cc.outputs.(i)) graded
  in
  let terminated = List.length ff_outputs = List.length graded in
  (* processes that agree decide equal polytopes: grade each once *)
  let distinct_outputs = Polytope.distinct ff_outputs in
  let valid =
    grade "validity" @@ fun () ->
    Grade.first_invalid ~hull:correct_hull distinct_outputs = None
  in
  let all_hull = Polytope.of_points ~dim:config.Config.d (Array.to_list inputs) in
  let valid_all_inputs =
    grade "validity" @@ fun () ->
    Grade.first_invalid ~hull:all_hull distinct_outputs = None
  in
  let agreement2 =
    grade "agreement" @@ fun () ->
    match ff_outputs with
    | [] | [_] -> None
    | _ -> Some (Grade.max_hausdorff2 distinct_outputs)
  in
  let agreement_ok =
    match agreement2 with
    | None -> terminated
    | Some a2 -> Grade.agrees config a2
  in
  let iz = grade "iz" @@ fun () -> Iz.compute ~config ~faulty ~result in
  let optimal =
    grade "iz" @@ fun () -> Iz.contained_in_all_rounds ~iz ~faulty ~result
  in
  let min_output_volume =
    grade "volume" @@ fun () ->
    List.fold_left
      (fun acc h ->
         match Polytope.volume h with
         | Some v -> min_opt acc v
         | None -> acc)
      None distinct_outputs
  in
  let iz_volume =
    grade "volume" @@ fun () ->
    match iz, distinct_outputs with
    | Some z, [ h ] when Polytope.equal z h -> min_output_volume
    | _ -> Option.bind iz Polytope.volume
  in
  { spec; result; faulty; recovered; decision_stable; correct_hull;
    terminated; valid; valid_all_inputs; agreement2; agreement_ok; iz;
    optimal; min_output_volume; iz_volume }

(* A scenario with a pinned kernel executes (and grades) under it;
   otherwise the ambient default applies. *)
let run ?trace spec =
  match spec.kernel with
  | Some m -> Numeric.Kernel.with_mode m (fun () -> run_graded ?trace spec)
  | None -> run_graded ?trace spec
