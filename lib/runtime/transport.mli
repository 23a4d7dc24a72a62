(** The transport seam of the system model: the interface between a
    protocol state machine and whatever moves its messages.

    {!Sim} is the one implementation. The executor runs it under an
    adversarial scheduler; the serving daemon runs it under
    {!Scheduler.fifo}, where in-flight messages wait in one global
    queue. Handlers written against this vocabulary run unchanged under
    either:

    - {b channels} are reliable, exactly-once, FIFO per (src, dst)
      pair on a complete graph of [n] processes;
    - {b identity} is a dense [pid] in [0 .. n-1];
    - {b crashes} follow {!Crash.plan} budgets: a send at or past the
      budget is dropped (and every send after it), a delivery at or
      past a receive budget kills the process and loses the message;
    - {b recovery} ({!Crash.Crash_recover} plans) fires the [on_crash]
      hook at the crash point (carrying the disk-prefix adversary's
      [keep]) and [on_recover] at revival, with a live endpoint.

    Handlers interact with the world only through the {!ep} capability
    they are handed — never through the transport value itself. *)

type pid = int

type 'msg ep = {
  me : pid;
  n : int;
  send : pid -> 'msg -> unit;
      (** enqueue on the channel [me → dst]; silently dropped if the
          sender has crashed (or crashes at this send) *)
  broadcast : ?include_self:bool -> 'msg -> unit;
      (** unit sends to every process in rotating order starting at
          [me + 1], so a mid-broadcast crash reaches a contiguous
          block of recipients that differs per sender. [include_self]
          defaults to [false]. *)
  sends : unit -> int;
      (** sends by [me] that actually entered a channel so far —
          before/after deltas tell a caller whether a broadcast got at
          least one message out (the paper's ["sent a round-t
          message"] predicate) *)
}
(** The capability a transport hands to process handlers. *)

type 'msg handlers = {
  on_start : 'msg ep -> unit;      (** runs once per process, even for
                                       ones that crash immediately
                                       (their sends are dropped) *)
  on_receive : 'msg ep -> src:pid -> 'msg -> unit;
}
