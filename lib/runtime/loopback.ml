type pid = Transport.pid

(* One global FIFO of in-flight messages.  Sequence numbers come from a
   single system-wide counter and sends append in seq order, so popping
   the front always delivers the globally oldest undelivered message —
   exactly the schedule [Sim] produces under [Scheduler.fifo] (the
   minimum head-seq across per-channel FIFOs is the global minimum).
   The conformance suite pins this equivalence byte-for-byte. *)
type 'msg t = {
  n : int;
  trace : Obs.Trace.t option;
  queue : (int * pid * pid * 'msg) Queue.t;  (* seq, src, dst, payload *)
  crash_plan : Crash.plan array;  (* private copy: recovery disarms plans *)
  crashed : bool array;
  recovered : bool array;
  recover_at : int option array;
  on_crash : (pid -> keep:int -> unit) option;
  on_recover : ('msg Transport.ep -> unit) option;
  sends_attempted : int array;
  receives_seen : int array;
  mutable eps : 'msg Transport.ep array;  (* one per process, built once *)
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

(* Identical budget semantics to [Sim.send]: a send consumes one unit
   whether or not it is ultimately dropped. *)
let send t src dst msg =
  if dst < 0 || dst >= t.n then invalid_arg "Loopback.send: bad destination"
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
      Queue.push (t.seq, src, dst, msg) t.queue
  end

let broadcast t src ?(include_self = false) msg =
  for k = 1 to t.n - 1 do
    send t src ((src + k) mod t.n) msg
  done;
  if include_self then send t src src msg

let make_ep t i : _ Transport.ep =
  { Transport.me = i;
    n = t.n;
    send = (fun dst msg -> send t i dst msg);
    broadcast = (fun ?include_self msg -> broadcast t i ?include_self msg);
    sends = (fun () -> t.sends_attempted.(i)) }

let create ?trace ?on_crash ?on_recover ?(crash = [||]) ~n ~make () =
  let crash = if crash = [||] then Array.make n Crash.Never else crash in
  if Array.length crash <> n then
    invalid_arg "Loopback.create: crash plan size";
  let t =
    { n;
      trace;
      queue = Queue.create ();
      crash_plan = Array.copy crash;
      crashed = Array.make n false;
      recovered = Array.make n false;
      recover_at = Array.make n None;
      on_crash;
      on_recover;
      sends_attempted = Array.make n 0;
      receives_seen = Array.make n 0;
      eps = [||];
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

let revive t i =
  t.recover_at.(i) <- None;
  t.crashed.(i) <- false;
  t.recovered.(i) <- true;
  t.recoveries <- t.recoveries + 1;
  t.crash_plan.(i) <- Crash.Never;
  trace_emit t (fun () -> Obs.Trace.Recover { pid = i; step = t.steps });
  if Obs.Log.enabled Obs.Log.Info then
    Obs.Log.info "recover"
      [ ("pid", Obs.Log.I i); ("step", Obs.Log.I t.steps) ];
  match t.on_recover with None -> () | Some f -> f t.eps.(i)

let revive_due t =
  for i = 0 to t.n - 1 do
    match t.recover_at.(i) with
    | Some due when due <= t.steps -> revive t i
    | Some _ | None -> ()
  done

(* Same tie-break as [Sim.earliest_pending]: smallest due step, ties to
   the highest pid (scan order n-1 downto 0, keep-first on equal due). *)
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

let start t =
  if not t.started then begin
    t.started <- true;
    for i = 0 to t.n - 1 do
      t.handlers.(i).Transport.on_start t.eps.(i)
    done
  end

let deliver_one t (seq, src, dst, msg) =
  t.steps <- t.steps + 1;
  if t.crashed.(dst) then begin
    t.dead_lettered <- t.dead_lettered + 1;
    trace_emit t
      (fun () -> Obs.Trace.Dead_letter { step = t.steps; src; dst; seq })
  end
  else begin
    match t.crash_plan.(dst) with
    | Crash.After_receives budget when t.receives_seen.(dst) >= budget ->
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
  end

(* One pump increment: deliver the oldest in-flight message, or jump
   the clock to the earliest pending revival when the queue is empty.
   Returns [false] only at true quiescence. *)
let step t =
  start t;
  revive_due t;
  if Queue.is_empty t.queue then
    match earliest_pending t with
    | Some i -> revive t i; true
    | None -> false
  else begin
    deliver_one t (Queue.pop t.queue);
    true
  end

let quiescent t =
  t.started && Queue.is_empty t.queue
  && Array.for_all (fun r -> r = None) t.recover_at

let run ?(max_steps = 2_000_000) t =
  start t;
  let rec loop () =
    revive_due t;
    if Queue.is_empty t.queue then
      match earliest_pending t with
      | Some i -> revive t i; loop ()
      | None -> ()
    else begin
      if t.steps >= max_steps then raise Transport.Step_limit_exceeded;
      deliver_one t (Queue.pop t.queue);
      loop ()
    end
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

let metrics (t : _ t) : metrics =
  { sent = t.sent;
    dropped = t.dropped;
    delivered = t.delivered;
    dead_lettered = t.dead_lettered;
    recoveries = t.recoveries;
    steps = t.steps }
