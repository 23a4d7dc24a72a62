type pid = Transport.pid

(* Per-channel queues and the scheduler that picks among their heads. *)
type 'msg channels = {
  queues : (int * 'msg) Queue.t array array;  (* queues.(src).(dst) *)
  chans : Scheduler.channel array array;  (* chans.(src).(dst), built once *)
  rng : Rng.t;
  pick : Scheduler.pick_fn;
  mutable prefix : (int * int) list;  (* forced (src, dst) schedule head *)
}

(* How in-flight messages wait. Sequence numbers come from one
   system-wide counter, so the oldest head across the per-channel FIFOs
   is the oldest message in flight: under [Scheduler.fifo] with nothing
   forced, one queue in send order delivers exactly what a scan for the
   minimum head would, at O(1) per event. Every other scheduler, and
   [fifo] replaying a prefix, waits per channel. *)
type 'msg inflight =
  | Global of (int * pid * pid * 'msg) Queue.t  (* seq, src, dst, payload *)
  | Channels of 'msg channels

type 'msg t = {
  n : int;
  trace : Obs.Trace.t option;
  inflight : 'msg inflight;
  crash_plan : Crash.plan array;  (* private copy: recovery disarms plans *)
  crashed : bool array;
  recovered : bool array;         (* crashed at least once, then revived *)
  recover_at : int option array;  (* pending revival: due step *)
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
      match t.inflight with
      | Global q -> Queue.push (t.seq, src, dst, msg) q
      | Channels c -> Queue.push (t.seq, msg) c.queues.(src).(dst)
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
  let inflight =
    if scheduler == Scheduler.fifo && prefix = [] then Global (Queue.create ())
    else
      Channels
        { queues =
            Array.init n (fun _ -> Array.init n (fun _ -> Queue.create ()));
          chans =
            Array.init n (fun src ->
                Array.init n (fun dst -> { Scheduler.src; dst }));
          rng = Rng.create seed;
          pick = Scheduler.instantiate scheduler;
          prefix }
  in
  let t =
    { n;
      trace;
      inflight;
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

exception Step_limit_exceeded

let nonempty_channels c =
  let n = Array.length c.queues in
  let acc = ref [] in
  for src = n - 1 downto 0 do
    for dst = n - 1 downto 0 do
      let q = c.queues.(src).(dst) in
      if not (Queue.is_empty q) then begin
        let (seq, _) = Queue.peek q in
        acc := (c.chans.(src).(dst), seq) :: !acc
      end
    done
  done;
  !acc

(* Consume forced-prefix entries until one names a currently non-empty
   channel; entries that no longer apply (the shrinker may have removed
   the messages they referred to) are skipped deterministically. *)
let rec prefix_choice c candidates =
  match c.prefix with
  | [] -> None
  | (src, dst) :: rest ->
    c.prefix <- rest;
    if List.exists
        (fun (ch, _) -> ch.Scheduler.src = src && ch.Scheduler.dst = dst)
        candidates
    then Some { Scheduler.src; dst }
    else prefix_choice c candidates

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

(* Revive every pending recovery that has come due, in pid order. *)
let revive_due t =
  for i = 0 to t.n - 1 do
    match t.recover_at.(i) with
    | Some due when due <= t.steps -> revive t i
    | Some _ | None -> ()
  done

(* When nothing is in flight but revivals are still pending, the
   simulated clock jumps: revive the earliest (smallest due step; ties
   go to the highest pid, since the scan runs n-1 downto 0 and keeps
   the first entry it finds). Revival is therefore guaranteed, however
   large the delay. Returns [false] only when no revival is pending. *)
let revive_earliest t =
  let best = ref None in
  for i = t.n - 1 downto 0 do
    match t.recover_at.(i) with
    | Some due ->
      (match !best with
       | Some (bdue, _) when bdue <= due -> ()
       | _ -> best := Some (due, i))
    | None -> ()
  done;
  match !best with
  | Some (_, i) -> revive t i; true
  | None -> false

let start t =
  if not t.started then begin
    t.started <- true;
    for i = 0 to t.n - 1 do
      t.handlers.(i).Transport.on_start t.eps.(i)
    done
  end

(* Hand the message popped at step [t.steps] to [dst], or dead-letter
   it if [dst] is down or dies at this delivery. *)
let deliver t ~seq ~src ~dst msg =
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
  end

(* One event: start the processes if not yet started, revive what has
   come due, then deliver one message, or revive the earliest pending
   process when nothing is in flight. [false] only at quiescence. *)
let advance t ~max_steps =
  start t;
  revive_due t;
  match t.inflight with
  | Global q ->
    if Queue.is_empty q then revive_earliest t
    else begin
      if t.steps >= max_steps then raise Step_limit_exceeded;
      t.steps <- t.steps + 1;
      let (seq, src, dst, msg) = Queue.pop q in
      deliver t ~seq ~src ~dst msg;
      true
    end
  | Channels c ->
    (match nonempty_channels c with
     | [] -> revive_earliest t
     | candidates ->
       if t.steps >= max_steps then raise Step_limit_exceeded;
       t.steps <- t.steps + 1;
       let { Scheduler.src; dst } =
         match prefix_choice c candidates with
         | Some ch -> ch
         | None -> c.pick ~rng:c.rng ~step:t.steps ~candidates
       in
       let (seq, msg) = Queue.pop c.queues.(src).(dst) in
       deliver t ~seq ~src ~dst msg;
       true)

let step t = advance t ~max_steps:max_int

let run ?(max_steps = 2_000_000) t =
  while advance t ~max_steps do () done

(* Every message that entered a channel is delivered or dead-lettered
   exactly once, so the counters tell whether any is still in flight. *)
let quiescent t =
  t.started
  && t.sent = t.delivered + t.dead_lettered
  && Array.for_all (fun r -> r = None) t.recover_at

type metrics = {
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
