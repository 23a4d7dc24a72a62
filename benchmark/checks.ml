(* Output checks the benchmark applies to every answer before it reports
   a number. A wrong answer fails the run however fast it came back. *)

module Polytope = Geometry.Polytope
module Server = Serve.Server

(* A served Decision must lie inside the convex hull of its job's inputs.
   Served jobs are crash-free, so every input is a correct input. *)
let decision (job : Server.job) output =
  let d = job.Server.config.Chc.Config.d in
  if Polytope.dim output <> d then
    Error
      (Printf.sprintf "instance %d: decision has dimension %d, want %d"
         job.Server.id (Polytope.dim output) d)
  else if
    Polytope.subset output
      (Polytope.of_points ~dim:d (Array.to_list job.Server.inputs))
  then Ok ()
  else
    Error
      (Printf.sprintf "instance %d: decision outside the hull of its inputs"
         job.Server.id)

(* The sampled re-execution check: the daemon's decision must equal the
   one an in-process server computes for the same job (both run each
   instance over a deterministic FIFO loopback). *)
let reexecute (job : Server.job) output =
  let reference = Server.create ~shards:1 () in
  Server.submit reference job;
  match Server.drain reference with
  | [ o ] ->
    (match Server.response_of_outcome o with
     | Serve.Frame.Decision { output = expected; _ }
       when Polytope.equal expected output -> Ok ()
     | Serve.Frame.Decision _ ->
       Error
         (Printf.sprintf "instance %d: decision differs from an in-process \
                          re-execution" job.Server.id)
     | Serve.Frame.Rejected { reason; _ } ->
       Error
         (Printf.sprintf "instance %d: in-process re-execution rejected: %s"
            job.Server.id reason))
  | _ ->
    Error
      (Printf.sprintf "instance %d: in-process re-execution did not finish"
         job.Server.id)

(* Every Theorem 2/3 property the executor grades, plus decision
   stability; the first one violated names the failure. *)
let execution (r : Chc.Executor.report) =
  let open Chc.Executor in
  match
    List.find_opt
      (fun (_, ok) -> not ok)
      [ ("termination", r.terminated); ("validity", r.valid);
        ("agreement", r.agreement_ok); ("optimality", r.optimal);
        ("decision stability", r.decision_stable) ]
  with
  | None -> Ok ()
  | Some (prop, _) ->
    Error (Printf.sprintf "seed %d: %s violated" r.spec.seed prop)
