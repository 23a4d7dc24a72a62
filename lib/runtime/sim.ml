type pid = Transport.pid

type 'msg t = {
  n : int;
  trace : Obs.Trace.t option;
  rng : Rng.t;
  scheduler : Scheduler.t;
  pick : Scheduler.pick_fn;
  channels : (int * 'msg) Queue.t array array; (* channels.(src).(dst) *)
  chans : Scheduler.channel array array;  (* chans.(src).(dst), built once *)
  crash_plan : Crash.plan array;  (* private copy: recovery disarms plans *)
  crashed : bool array;
  recovered : bool array;         (* crashed at least once, then revived *)
  recover_at : int option array;  (* pending revival: due step *)
  on_crash : (pid -> keep:int -> unit) option;
  on_recover : ('msg Transport.ep -> unit) option;
  sends_attempted : int array;
  receives_seen : int array;
  mutable eps : 'msg Transport.ep array;  (* one per process, built once *)
  mutable prefix : (int * int) list;  (* forced (src, dst) schedule head *)
  mutable handlers : 'msg Transport.handlers array;
  mutable seq : int;
  mutable sent : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable dead_lettered : int;
  mutable recoveries : int;
  mutable steps : int;
  mutable started : bool;
}

let n t = t.n

let trace_emit t ev =
  match t.trace with
  | None -> ()
  | Some tr -> Obs.Trace.emit tr (ev ())

let crashed t i = t.crashed.(i)
let recovered_of t i = t.recovered.(i)
let sends_of t i = t.sends_attempted.(i)
let receives_of t i = t.receives_seen.(i)

(* A crash fires: mark the process down, and if the plan is a
   recovering one, schedule the revival and hand the disk-prefix
   adversary's [keep] to the durability layer. *)
let fire_crash t i ~recover =
  t.crashed.(i) <- true;
  trace_emit t
    (fun () -> Obs.Trace.Crash { pid = i; sends = t.sends_attempted.(i) });
  if Obs.Log.enabled Obs.Log.Info then
    Obs.Log.info "crash"
      [ ("pid", Obs.Log.I i);
        ("sends", Obs.Log.I t.sends_attempted.(i));
        ("recovers", Obs.Log.B (recover <> None)) ];
  match recover with
  | None -> ()
  | Some (delay, keep) ->
    t.recover_at.(i) <- Some (t.steps + delay);
    (match t.on_crash with None -> () | Some f -> f i ~keep)

(* A send consumes one unit of the sender's budget whether or not it is
   ultimately dropped: the budget marks the crash *point*, and every
   send at or after that point is lost. *)
let send t src dst msg =
  if dst < 0 || dst >= t.n then invalid_arg "Sim.send: bad destination"
  else if t.crashed.(src) then begin
    t.dropped <- t.dropped + 1;
    trace_emit t (fun () -> Obs.Trace.Drop { src })
  end
  else begin
    match t.crash_plan.(src) with
    | Crash.After_sends budget when t.sends_attempted.(src) >= budget ->
      fire_crash t src ~recover:None;
      t.dropped <- t.dropped + 1;
      trace_emit t (fun () -> Obs.Trace.Drop { src })
    | Crash.Crash_recover { trigger = Crash.Sends budget; delay; keep }
      when t.sends_attempted.(src) >= budget ->
      fire_crash t src ~recover:(Some (delay, keep));
      t.dropped <- t.dropped + 1;
      trace_emit t (fun () -> Obs.Trace.Drop { src })
    | Crash.After_sends _ | Crash.After_receives _ | Crash.Never
    | Crash.Crash_recover _ ->
      t.sends_attempted.(src) <- t.sends_attempted.(src) + 1;
      t.seq <- t.seq + 1;
      t.sent <- t.sent + 1;
      (match t.trace with
       | None -> ()
       | Some tr ->
         Obs.Trace.emit tr (Obs.Trace.Send { src; dst; seq = t.seq }));
      Queue.push (t.seq, msg) t.channels.(src).(dst)
  end

let broadcast t src ?(include_self = false) msg =
  for k = 1 to t.n - 1 do
    send t src ((src + k) mod t.n) msg
  done;
  if include_self then send t src src msg

(* The endpoint capability handed to handlers and hooks: closes over
   (t, i) so a handler can only act as its own process. *)
let make_ep t i : _ Transport.ep =
  { Transport.me = i;
    n = t.n;
    send = (fun dst msg -> send t i dst msg);
    broadcast = (fun ?include_self msg -> broadcast t i ?include_self msg);
    sends = (fun () -> t.sends_attempted.(i)) }

let create ?trace ?(prefix = []) ?on_crash ?on_recover ~n ~seed ~scheduler
    ~crash ~make () =
  if Array.length crash <> n then invalid_arg "Sim.create: crash plan size";
  let t =
    { n;
      trace;
      rng = Rng.create seed;
      scheduler;
      pick = Scheduler.instantiate scheduler;
      channels = Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ()));
      chans =
        Array.init n (fun src ->
            Array.init n (fun dst -> { Scheduler.src; dst }));
      crash_plan = Array.copy crash;
      crashed = Array.make n false;
      recovered = Array.make n false;
      recover_at = Array.make n None;
      on_crash;
      on_recover;
      sends_attempted = Array.make n 0;
      receives_seen = Array.make n 0;
      eps = [||];
      prefix;
      handlers = [||];
      seq = 0;
      sent = 0;
      dropped = 0;
      delivered = 0;
      dead_lettered = 0;
      recoveries = 0;
      steps = 0;
      started = false }
  in
  t.eps <- Array.init n (make_ep t);
  t.handlers <- Array.init n make;
  (* Processes with a zero send budget are crashed from the outset
     (receive budgets only ever fire on a delivery). *)
  Array.iteri
    (fun i plan ->
       match plan with
       | Crash.After_sends 0 -> fire_crash t i ~recover:None
       | Crash.Crash_recover { trigger = Crash.Sends 0; delay; keep } ->
         fire_crash t i ~recover:(Some (delay, keep))
       | Crash.After_sends _ | Crash.After_receives _ | Crash.Never
       | Crash.Crash_recover _ -> ())
    crash;
  t

exception Step_limit_exceeded = Transport.Step_limit_exceeded

let nonempty_channels t =
  let acc = ref [] in
  for src = t.n - 1 downto 0 do
    for dst = t.n - 1 downto 0 do
      let q = t.channels.(src).(dst) in
      if not (Queue.is_empty q) then begin
        let (seq, _) = Queue.peek q in
        acc := (t.chans.(src).(dst), seq) :: !acc
      end
    done
  done;
  !acc

(* Consume forced-prefix entries until one names a currently non-empty
   channel; entries that no longer apply (the shrinker may have removed
   the messages they referred to) are skipped deterministically. *)
let rec prefix_choice t candidates =
  match t.prefix with
  | [] -> None
  | (src, dst) :: rest ->
    t.prefix <- rest;
    if List.exists
        (fun (c, _) -> c.Scheduler.src = src && c.Scheduler.dst = dst)
        candidates
    then Some { Scheduler.src; dst }
    else prefix_choice t candidates

let revive t i =
  t.recover_at.(i) <- None;
  t.crashed.(i) <- false;
  t.recovered.(i) <- true;
  t.recoveries <- t.recoveries + 1;
  (* one crash per plan: a revived process runs correctly from here on *)
  t.crash_plan.(i) <- Crash.Never;
  trace_emit t (fun () -> Obs.Trace.Recover { pid = i; step = t.steps });
  if Obs.Log.enabled Obs.Log.Info then
    Obs.Log.info "recover"
      [ ("pid", Obs.Log.I i); ("step", Obs.Log.I t.steps) ];
  match t.on_recover with None -> () | Some f -> f t.eps.(i)

(* Revive every pending recovery that has come due, in pid order (the
   loop is re-entered because a revival's rejoin sends may change the
   candidate set). *)
let revive_due t =
  for i = 0 to t.n - 1 do
    match t.recover_at.(i) with
    | Some due when due <= t.steps -> revive t i
    | Some _ | None -> ()
  done

(* When channels have drained but revivals are still pending, the
   simulated clock jumps: revive the earliest (smallest due step, then
   smallest pid). Revival is therefore guaranteed, however large the
   delay. *)
let earliest_pending t =
  let best = ref None in
  for i = t.n - 1 downto 0 do
    match t.recover_at.(i) with
    | Some due ->
      (match !best with
       | Some (bdue, _) when bdue <= due -> ()
       | _ -> best := Some (due, i))
    | None -> ()
  done;
  Option.map snd !best

let run ?(max_steps = 2_000_000) t =
  if not t.started then begin
    t.started <- true;
    for i = 0 to t.n - 1 do
      t.handlers.(i).Transport.on_start t.eps.(i)
    done
  end;
  let rec loop () =
    revive_due t;
    match nonempty_channels t with
    | [] ->
      (match earliest_pending t with
       | Some i ->
         revive t i;
         loop ()
       | None -> ())
    | candidates ->
      if t.steps >= max_steps then raise Step_limit_exceeded;
      t.steps <- t.steps + 1;
      let { Scheduler.src; dst } =
        match prefix_choice t candidates with
        | Some c -> c
        | None -> t.pick ~rng:t.rng ~step:t.steps ~candidates
      in
      let (seq, msg) = Queue.pop t.channels.(src).(dst) in
      if t.crashed.(dst) then begin
        t.dead_lettered <- t.dead_lettered + 1;
        trace_emit t
          (fun () -> Obs.Trace.Dead_letter { step = t.steps; src; dst; seq })
      end
      else begin
        match t.crash_plan.(dst) with
        | Crash.After_receives budget when t.receives_seen.(dst) >= budget ->
          (* The killing delivery: the process dies at this exact point
             of its view; the message itself is lost. *)
          fire_crash t dst ~recover:None;
          t.dead_lettered <- t.dead_lettered + 1;
          trace_emit t
            (fun () -> Obs.Trace.Dead_letter { step = t.steps; src; dst; seq })
        | Crash.Crash_recover { trigger = Crash.Receives budget; delay; keep }
          when t.receives_seen.(dst) >= budget ->
          fire_crash t dst ~recover:(Some (delay, keep));
          t.dead_lettered <- t.dead_lettered + 1;
          trace_emit t
            (fun () -> Obs.Trace.Dead_letter { step = t.steps; src; dst; seq })
        | Crash.After_receives _ | Crash.After_sends _ | Crash.Never
        | Crash.Crash_recover _ ->
          t.receives_seen.(dst) <- t.receives_seen.(dst) + 1;
          t.delivered <- t.delivered + 1;
          (match t.trace with
           | None -> ()
           | Some tr ->
             Obs.Trace.emit tr
               (Obs.Trace.Deliver { step = t.steps; src; dst; seq }));
          t.handlers.(dst).Transport.on_receive t.eps.(dst) ~src msg
      end;
      loop ()
  in
  loop ()

type metrics = Transport.metrics = {
  sent : int;
  dropped : int;
  delivered : int;
  dead_lettered : int;
  recoveries : int;
  steps : int;
}

let metrics (t : _ t) =
  { sent = t.sent;
    dropped = t.dropped;
    delivered = t.delivered;
    dead_lettered = t.dead_lettered;
    recoveries = t.recoveries;
    steps = t.steps }
