module Q = Numeric.Q
module Json = Codec.Json

type t =
  | Paper_properties
  | Agreement_within of Q.t
  | Kernel_equivalence
  | Engine_equivalence
  | Round0_equivalence

type verdict =
  | Pass
  | Fail of string

let name = function
  | Paper_properties -> "paper-properties"
  | Agreement_within eps -> Printf.sprintf "agreement-within:%s" (Q.to_string eps)
  | Kernel_equivalence -> "kernel-equivalence"
  | Engine_equivalence -> "engine-equivalence"
  | Round0_equivalence -> "round0-equivalence"

let to_json = function
  | Paper_properties -> Json.Obj [ ("kind", Json.Str "paper-properties") ]
  | Agreement_within eps ->
    Json.Obj
      [ ("kind", Json.Str "agreement-within");
        ("eps", Json.Str (Q.to_string eps)) ]
  | Kernel_equivalence -> Json.Obj [ ("kind", Json.Str "kernel-equivalence") ]
  | Engine_equivalence -> Json.Obj [ ("kind", Json.Str "engine-equivalence") ]
  | Round0_equivalence -> Json.Obj [ ("kind", Json.Str "round0-equivalence") ]

let ( let* ) r f = Result.bind r f

let of_json j =
  let* kind = Json.str_field "kind" j in
  match kind with
  | "paper-properties" -> Ok Paper_properties
  | "agreement-within" ->
    let* s = Json.str_field "eps" j in
    (match Q.of_string s with
     | eps when Q.gt eps Q.zero -> Ok (Agreement_within eps)
     | _ -> Error "agreement-within: eps must be positive"
     | exception (Invalid_argument _ | Failure _) ->
       Error (Printf.sprintf "agreement-within: %S is not a rational" s))
  | "kernel-equivalence" -> Ok Kernel_equivalence
  | "engine-equivalence" -> Ok Engine_equivalence
  | "round0-equivalence" -> Ok Round0_equivalence
  | k -> Error (Printf.sprintf "unknown oracle kind %S" k)

(* Every graded process's h[0] against the subset-hull oracle on its
   recorded view, recomputed once per distinct view with the memo
   tables bypassed so no cached hull stands in for the oracle's own. *)
let round0_divergence (report : Chc.Executor.report) =
  let result = report.Chc.Executor.result in
  let { Chc.Config.d; f; _ } =
    report.Chc.Executor.spec.Chc.Scenario.config
  in
  let oracle_memo = ref [] in
  let oracle_h0 pts =
    match
      List.find_opt (fun (k, _) -> List.equal Geometry.Vec.equal k pts)
        !oracle_memo
    with
    | Some (_, h) -> h
    | None ->
      let h =
        Parallel.Memo.with_bypass (fun () ->
            Geometry.Polytope.subset_hull_region ~dim:d ~f pts)
      in
      oracle_memo := (pts, h) :: !oracle_memo;
      h
  in
  let n = Array.length result.Chc.Cc.round0_views in
  let graded =
    List.filter
      (fun i ->
         (not (List.mem i report.Chc.Executor.faulty))
         || List.mem i report.Chc.Executor.recovered)
      (List.init n Fun.id)
  in
  List.find_map
    (fun i ->
       match
         result.Chc.Cc.round0_views.(i), List.assoc_opt 0 result.Chc.Cc.history.(i)
       with
       | Some view, Some h0 ->
         let pts = List.sort Geometry.Vec.compare (List.map snd view) in
         if Option.equal Geometry.Polytope.equal (Some h0) (oracle_h0 pts)
         then None
         else
           Some
             (Printf.sprintf
                "round0-divergence: process %d's h[0] differs from the \
                 subset-hull oracle on its view"
                i)
       | _ -> None)
    graded

(* Grading failures are themselves findings: an execution that blows
   the step limit is a liveness violation, and any other exception is
   an engine bug the fuzzer should surface rather than swallow. *)
let grade oracle (report : Chc.Executor.report) =
  match oracle with
  | Round0_equivalence ->
    (match round0_divergence report with None -> Pass | Some msg -> Fail msg)
  | Kernel_equivalence | Engine_equivalence ->
    (* Graded from two runs, not one report — see [check]. *)
    invalid_arg "Oracle.grade: differential oracles are graded by check"
  | Paper_properties ->
    if not report.Chc.Executor.terminated then
      Fail "termination: a fault-free process never decided"
    else if not report.Chc.Executor.valid then
      Fail "validity: an output leaves the hull of correct inputs"
    else if not report.Chc.Executor.decision_stable then
      Fail "durability: a recovered process changed its externalized decision"
    else if not report.Chc.Executor.agreement_ok then
      Fail
        (Printf.sprintf "agreement: d_H^2 = %s >= eps^2"
           (match report.Chc.Executor.agreement2 with
            | Some a2 -> Q.to_string a2
            | None -> "?"))
    else if not report.Chc.Executor.optimal then
      Fail "optimality: I_Z not contained in some h_i[t]"
    else Pass
  | Agreement_within eps ->
    if not report.Chc.Executor.terminated then
      Fail "termination: a fault-free process never decided"
    else
      (match report.Chc.Executor.agreement2 with
       | None -> Pass
       | Some a2 ->
         if Q.lt a2 (Q.square eps) then Pass
         else
           Fail
             (Printf.sprintf "agreement: d_H^2 = %s >= %s^2" (Q.to_string a2)
                (Q.to_string eps)))

(* Shared comparison for the differential oracles: two runs of the
   same scenario diverge iff the termination round, any per-process
   decided polytope, or one of the graded volumes differs. Equal
   decisions can still be measured apart: the incremental engine reads
   a carried dual's volume off its soup, the rebuild engine off facet
   fans. *)
let decision_divergence ~tag ~base_name ~other_name
    (base : Chc.Executor.report) (other : Chc.Executor.report) =
  let bo = base.Chc.Executor.result.Chc.Cc.outputs in
  let tb = base.Chc.Executor.result.Chc.Cc.t_end in
  let oo = other.Chc.Executor.result.Chc.Cc.outputs in
  let to_ = other.Chc.Executor.result.Chc.Cc.t_end in
  if tb <> to_ then
    Some
      (Printf.sprintf "%s: t_end %d under %s vs %d under %s" tag tb base_name
         to_ other_name)
  else begin
    let diverging = ref None in
    Array.iteri
      (fun i (a : Geometry.Polytope.t option) ->
         if !diverging = None then
           match a, oo.(i) with
           | None, None -> ()
           | Some p, Some q when Geometry.Polytope.equal p q -> ()
           | _ -> diverging := Some i)
      bo;
    let volume what (field : Chc.Executor.report -> Q.t option) =
      let show = Option.fold ~none:"none" ~some:Q.to_string in
      if Option.equal Q.equal (field base) (field other) then None
      else
        Some
          (Printf.sprintf "%s: %s %s under %s vs %s under %s" tag what
             (show (field base)) base_name (show (field other)) other_name)
    in
    match !diverging with
    | Some i ->
      Some
        (Printf.sprintf "%s: process %d decided differently under %s vs %s"
           tag i base_name other_name)
    | None ->
      (match
         volume "min output volume" (fun r -> r.Chc.Executor.min_output_volume)
       with
       | Some _ as d -> d
       | None -> volume "I_Z volume" (fun r -> r.Chc.Executor.iz_volume))
  end

(* Differential grading: the same scenario executed under both
   kernels, memo tables bypassed so one kernel's run cannot serve
   values the other cached (a cross-kernel hit would hide exactly the
   divergence this oracle exists to catch). The exact run is the
   oracle; the filtered run must match it on what the protocol
   decides: the per-process output polytopes and the termination
   round. *)
let grade_kernel_equivalence ?trace scenario =
  let run_under ?trace m =
    Parallel.Memo.with_bypass (fun () ->
        Chc.Executor.run ?trace
          { scenario with Chc.Scenario.kernel = Some m })
  in
  (* Only the exact (oracle) run records into [trace]: both runs share
     the schedule, and appending a second transcript would corrupt the
     pinned-schedule view the shrinker reads back. *)
  let exact = run_under ?trace Numeric.Kernel.Exact in
  let filtered = run_under Numeric.Kernel.Filtered in
  match
    decision_divergence ~tag:"kernel-divergence" ~base_name:"exact"
      ~other_name:"filtered" exact filtered
  with
  | None -> Pass
  | Some msg -> Fail msg

(* Differential grading of the polytope engines: the same scenario
   executed with the from-scratch rebuild engine (the oracle) and with
   the incremental engine, memo tables bypassed so neither run can
   serve a polytope the other built. Any difference in the decided
   polytopes or the termination round convicts the incremental
   engine's float-guided paths or their certification. *)
let grade_engine_equivalence ?trace scenario =
  let rebuild =
    Parallel.Memo.with_bypass (fun () ->
        Geometry.Poly_engine.with_mode Geometry.Poly_engine.Rebuild
          (fun () -> Chc.Executor.run ?trace scenario))
  in
  let incr =
    Parallel.Memo.with_bypass (fun () ->
        Geometry.Poly_engine.with_mode Geometry.Poly_engine.Incremental
          (fun () -> Chc.Executor.run scenario))
  in
  match
    decision_divergence ~tag:"engine-divergence" ~base_name:"rebuild"
      ~other_name:"incremental" rebuild incr
  with
  | None -> Pass
  | Some msg -> Fail msg

let check ?trace oracle scenario =
  match
    match oracle with
    | Kernel_equivalence -> grade_kernel_equivalence ?trace scenario
    | Engine_equivalence -> grade_engine_equivalence ?trace scenario
    | _ -> grade oracle (Chc.Executor.run ?trace scenario)
  with
  | verdict -> verdict
  | exception Runtime.Sim.Step_limit_exceeded ->
    Fail "step-limit: execution exceeded the simulator step bound"
  | exception exn -> Fail (Printf.sprintf "engine: %s" (Printexc.to_string exn))
