module Q = Numeric.Q
module Sim = Runtime.Sim
module Transport = Runtime.Transport

(* Algorithm CC, as the composition of [n] sans-IO {!Instance}s with
   the {!Runtime.Sim} transport. All protocol logic lives in
   {!Instance}; this module is the driver: [system] wires instance
   effects to simulator endpoints and crash hooks to instance crashes
   (for the executor and the serving daemon alike), and [execute]
   assembles the execution report. *)

type round0_mode = Instance.round0_mode

type result = {
  t_end : int;
  outputs : Geometry.Polytope.t option array;
  round0_views : (int * Geometry.Vec.t) list option array;
  history : (int * Geometry.Polytope.t) list array;
  senders : (int * int list) list array;
  sent_round : (int * bool) list array;
  crashed : bool array;
  recovered : bool array;
  redecided : int list;
  wal_log : Recovery.event list array;
  sends_attempted : int array;
  receives_seen : int array;
  metrics : Runtime.Sim.metrics;
}

let fault_set crash =
  Array.to_list crash
  |> List.mapi (fun i plan -> (i, plan))
  |> List.filter_map (fun (i, plan) ->
      match plan with
      | Runtime.Crash.Never -> None
      | Runtime.Crash.After_sends _ | Runtime.Crash.After_receives _
      | Runtime.Crash.Crash_recover _ -> Some i)

let is_recover_plan = function
  | Runtime.Crash.Crash_recover _ -> true
  | Runtime.Crash.Never | Runtime.Crash.After_sends _
  | Runtime.Crash.After_receives _ -> false

let round0_polytope = Instance.round0_polytope

let system ?trace ?prefix ~io ~kickoff ~crash ~scheduler ~seed insts =
  let n = Array.length insts in
  (* one io per process, built on its first effects *)
  let ios = Array.make n None in
  let run_effects (ep : Instance.msg Transport.ep) effs =
    let me = ep.Transport.me in
    let io =
      match ios.(me) with
      | Some io -> io
      | None ->
        let io = io ep in
        ios.(me) <- Some io;
        io
    in
    Instance.interpret insts.(me) io effs
  in
  (* every process runs the same handlers: the endpoint names the
     instance *)
  let handlers =
    { Transport.on_start =
        (fun ep -> run_effects ep (kickoff insts.(ep.Transport.me)));
      on_receive =
        (fun ep ~src msg ->
           run_effects ep (Instance.handle insts.(ep.Transport.me) ~src msg)) }
  in
  let on_crash i ~keep = Instance.crash insts.(i) ~keep in
  let on_recover (ep : Instance.msg Transport.ep) =
    run_effects ep (Instance.recover insts.(ep.Transport.me))
  in
  Sim.create ?trace ?prefix ~on_crash ~on_recover ~n ~seed ~scheduler ~crash
    ~make:(fun _ -> handlers) ()

let execute ?trace ?(prefix = []) ?(round0 = `Stable_vector) ?wal ~config
    ~inputs ~crash ~scheduler ~seed () =
  let { Config.n; _ } = config in
  if Array.length inputs <> n then invalid_arg "Cc.execute: need n inputs";
  (* per-input validation happens in [Instance.create] *)
  if Array.length crash <> n then invalid_arg "Cc.execute: need n crash plans";
  Obs.Prof.with_span "cc.execute" @@ fun () ->
  (* Durability is armed by an explicit WAL config or by any
     crash-recovery plan; without either the WAL layer stays entirely
     out of the hot path. *)
  let recovery_on = wal <> None || Array.exists is_recover_plan crash in
  let wal_spec =
    if recovery_on then
      Some (Option.value wal ~default:Runtime.Wal.default_config)
    else None
  in
  let spec = Instance.spec ~round0 ?wal:wal_spec config in
  let insts = Array.init n (fun i -> Instance.create spec ~me:i ~input:inputs.(i)) in
  let emit =
    match trace with None -> fun _ -> () | Some tr -> Obs.Trace.emit tr
  in
  let io (ep : Instance.msg Transport.ep) =
    Instance.io ~send:ep.Transport.send
      ~broadcast:(fun m -> ep.Transport.broadcast m)
      ~sends:ep.Transport.sends ~emit ()
  in
  let sys =
    system ?trace ~prefix ~io ~kickoff:Instance.start ~crash ~scheduler ~seed
      insts
  in
  Sim.run sys;

  { t_end = spec.Instance.t_end;
    outputs = Array.map Instance.poll_decision insts;
    round0_views = Array.map Instance.view insts;
    history = Array.map Instance.history insts;
    senders = Array.map Instance.senders insts;
    sent_round = Array.map Instance.sent_round insts;
    crashed = Array.init n (Sim.crashed sys);
    recovered = Array.init n (Sim.recovered_of sys);
    redecided =
      List.filter (fun i -> Instance.redecided insts.(i)) (List.init n Fun.id);
    wal_log = Array.map Instance.wal_entries insts;
    sends_attempted = Array.init n (Sim.sends_of sys);
    receives_seen = Array.init n (Sim.receives_of sys);
    metrics = Sim.metrics sys }
