module Wal = Runtime.Wal
module SV = Protocol.Stable_vector
module Rounds = Protocol.Rounds

type pid = Runtime.Transport.pid

type round0_mode = [ `Stable_vector | `Naive ]

type msg =
  | Sv of Geometry.Vec.t SV.msg
  | Input0 of Geometry.Vec.t
  | Round of int * Geometry.Polytope.t
  | Rejoin of int

(* The effect stream is interpreted strictly in order, and [Defer]ed
   protocol continuations are run lazily at their stream position.
   That laziness is load-bearing, not a style choice: a send can crash
   the sender mid-broadcast (the transport fires the crash hook
   synchronously), and in the closure-based predecessor of this module
   the code after a broadcast observed the crash through its [down]
   guards.  Deferring those continuations into the stream makes the
   sans-IO instance see the crash at exactly the same program point,
   which is what keeps traces and WAL truncation byte-identical. *)
type effect =
  | Send of pid * msg
  | Broadcast of msg
  | Trace of Obs.Trace.event
  | Wal_append of Recovery.event
  | Wal_sync
  | Tracked of { round : int; replace : bool; inner : effect list }
  | Defer of (unit -> unit)

type io = {
  send : pid -> msg -> unit;
  broadcast : msg -> unit;
  sends : unit -> int;
  emit : Obs.Trace.event -> unit;
  on_wal : Recovery.event -> unit;
  on_sync : unit -> unit;
}

let io ?(emit = fun _ -> ()) ?(on_wal = fun _ -> ()) ?(on_sync = fun () -> ())
    ~send ~broadcast ~sends () =
  { send; broadcast; sends; emit; on_wal; on_sync }

(* h[0] by sorted view points. Keys are compared with [Vec.equal]
   rather than hashed: [Q.t] carries a mutable enclosure cache, so
   polymorphic hashing is unstable, and an execution holds at most n
   views. *)
type round0_table = {
  mutable views : (Geometry.Vec.t list * Geometry.Polytope.t) list;
}

type spec = {
  config : Config.t;
  round0 : round0_mode;
  wal : Wal.config option;
  t_end : int;
  round0_table : round0_table;
}

(* The smart constructor computes [t_end] once for all n instances of
   an execution. *)
let spec ?(round0 = `Stable_vector) ?wal config =
  { config; round0; wal; t_end = Bounds.t_end config;
    round0_table = { views = [] } }

type t = {
  id : int;
  n : int;
  f : int;
  d : int;
  t_end : int;
  round0 : round0_mode;
  table : round0_table;
  input : Geometry.Vec.t;
  wal : Recovery.event Wal.t option;
  mutable sv : Geometry.Vec.t SV.state option;
  mutable rounds : Geometry.Polytope.t Rounds.t;
  mutable naive0 : Geometry.Vec.t Rounds.t;
  mutable current : int;       (* 0 while in round 0; t_end+1 once decided *)
  mutable h : Geometry.Polytope.t option;
  mutable view : (int * Geometry.Vec.t) list option;
  mutable hist : (int * Geometry.Polytope.t) list;     (* reverse order *)
  mutable snd_log : (int * int list) list;    (* reverse order *)
  mutable sent_log : (int * bool) list;       (* reverse order *)
  mutable down : bool;         (* crashed, revival pending *)
  mutable replaying : bool;    (* inside the recovery replay *)
  mutable max_emitted : int;   (* highest Round_enter round emitted *)
  mutable decide_emitted : bool;
  mutable first_output : Geometry.Polytope.t option;
  mutable output : Geometry.Polytope.t option;
  mutable redecided : bool;
  mutable buf : effect list;   (* current collection buffer, reversed *)
}

(* Line 5 of Algorithm CC: intersection over all multisets obtained by
   dropping f elements of X_i. Non-emptiness is Lemma 2 (Tverberg):
   any multiset of >= (d+1)f + 1 points admits the required common
   point, and |X_i| >= n - f >= (d+1)f + 1 by the resilience bound. *)
let round0_polytope ~dim ~f pts =
  Obs.Prof.with_span "cc.round0" @@ fun () ->
  match Geometry.Polytope.depth_region ~dim ~f pts with
  | Some h -> h
  | None -> failwith "Cc: round-0 intersection empty — Lemma 2 violated"

let round0_computed_c =
  Obs.Metrics.counter "chc_round0_total"
    ~help:"Round-0 polytopes h[0], by whether the process computed it or \
           took it from an earlier process of the same execution whose \
           view holds the same points"
    ~labels:[ ("result", "computed") ]

let round0_shared_c =
  Obs.Metrics.counter "chc_round0_total" ~labels:[ ("result", "shared") ]

let create spec ~me ~input =
  let { Config.n; f; d; _ } = spec.config in
  Config.validate_input spec.config input;
  let threshold = n - f in
  { id = me;
    n;
    f;
    d;
    t_end = spec.t_end;
    round0 = spec.round0;
    table = spec.round0_table;
    input;
    wal = Option.map Wal.create spec.wal;
    sv = None;
    rounds = Rounds.create ~threshold;
    naive0 = Rounds.create ~threshold;
    current = 0;
    h = None;
    view = None;
    hist = [];
    snd_log = [];
    sent_log = [];
    down = false;
    replaying = false;
    max_emitted = -1;
    decide_emitted = false;
    first_output = None;
    output = None;
    redecided = false;
    buf = [] }

(* --- effect collection ------------------------------------------------- *)

let push t e = t.buf <- e :: t.buf

(* Run [f], collecting everything it pushes into a fresh buffer (the
   previous buffer is restored afterwards, so collections nest). *)
let grab t f =
  let saved = t.buf in
  t.buf <- [];
  f ();
  let es = List.rev t.buf in
  t.buf <- saved;
  es

(* Tracked-broadcast feedback from the interpreter: did at least one
   copy escape onto a channel? (The paper's F[t] predicate.) *)
let sent_feedback t ~round ~replace ~ok =
  if replace then begin
    if ok then
      t.sent_log <- (round, true) :: List.remove_assoc round t.sent_log
  end
  else t.sent_log <- (round, ok) :: t.sent_log

let rec interpret t io = function
  | [] -> ()
  | e :: rest ->
    (match e with
     | Send (dst, m) -> io.send dst m
     | Broadcast m -> io.broadcast m
     | Trace ev -> io.emit ev
     | Wal_append ev -> io.on_wal ev
     | Wal_sync -> io.on_sync ()
     | Tracked { round; replace; inner } ->
       let before = io.sends () in
       interpret t io inner;
       sent_feedback t ~round ~replace ~ok:(io.sends () > before)
     | Defer f -> interpret t io (grab t f));
    interpret t io rest

(* --- durability -------------------------------------------------------- *)

(* The in-memory WAL is mutated at emission time (the protocol reads
   its length for checkpoint cadence and its surviving prefix at
   recovery); the [Wal_append]/[Wal_sync] effects are mirrors at the
   same stream position for an external durability sink. *)
let wal_append t ev =
  match t.wal with
  | Some w when not t.down && not t.replaying ->
    Wal.append w ev;
    push t (Wal_append ev)
  | _ -> ()

(* The write barrier: emitted before every externalization (send,
   decide) so replay can never roll a process back behind state the
   rest of the system has observed. Under [Unsound] this is a no-op
   — the injected bug the fuzz oracle must catch. *)
let wal_sync t =
  match t.wal with
  | Some w ->
    Wal.sync w;
    push t Wal_sync
  | None -> ()

(* --- protocol ----------------------------------------------------------- *)

(* Broadcast while recording whether any copy reached a channel —
   this drives the F[t] sets of the matrix analysis. During replay
   nothing is sent; the flag is conservatively recorded as [false]
   and repaired by the rejoin re-broadcast. *)
let broadcast_tracked t ~round msg =
  if t.replaying then t.sent_log <- (round, false) :: t.sent_log
  else begin
    if not t.down then wal_sync t;
    push t (Tracked { round; replace = false; inner = [ Broadcast msg ] })
  end

(* Stable-vector announces route through here: muted during replay,
   synced (write barrier) when live. *)
let sv_broadcast t m =
  if not t.down && not t.replaying then begin
    wal_sync t;
    push t (Broadcast (Sv m))
  end

let sv_emit t ev = push t (Trace ev)

let nverts h = List.length (Geometry.Polytope.vertices h)

let rec enter_round t r =
  if not t.down then begin
    t.current <- r;
    let h = Option.get t.h in
    if not (Rounds.mem t.rounds ~round:r ~src:t.id) then
      Rounds.add t.rounds ~round:r ~src:t.id h;
    broadcast_tracked t ~round:r (Round (r, h));
    (* the broadcast may crash us; re-check [down] at stream position *)
    push t (Defer (fun () -> try_advance t))
  end

and try_advance t =
  if (not t.down) && t.current >= 1 && t.current <= t.t_end
     && Rounds.ready t.rounds ~round:t.current
  then begin
    let y = Rounds.freeze t.rounds ~round:t.current in
    let h =
      Obs.Prof.with_span "cc.round" (fun () ->
          Geometry.Polytope.average (List.map snd y))
    in
    t.h <- Some h;
    t.hist <- (t.current, h) :: t.hist;
    t.snd_log <- (t.current, List.map fst y) :: t.snd_log;
    if (not t.replaying) && t.current > t.max_emitted then begin
      t.max_emitted <- t.current;
      push t (Trace (Obs.Trace.Round_enter
                       { pid = t.id; round = t.current; vertices = nverts h }))
    end;
    if t.current = t.t_end then begin
      if not t.replaying then wal_sync t;   (* decisions are durable *)
      (match t.first_output with
       | None -> t.first_output <- Some h
       | Some h0 ->
         if not (Geometry.Polytope.equal h0 h) then t.redecided <- true);
      t.output <- Some h;
      if (not t.replaying) && not t.decide_emitted then begin
        t.decide_emitted <- true;
        push t (Trace (Obs.Trace.Decide
                         { pid = t.id; round = t.t_end; vertices = nverts h }))
      end;
      t.current <- t.t_end + 1
    end
    else enter_round t (t.current + 1)
  end

(* h[0] is a function of the view's point multiset, and processes
   whose views agree (every process, in a crash-free run) get the
   physically same polytope, so later rounds and grading compare them
   by [==]. *)
let round0_h t pts =
  let key = List.sort Geometry.Vec.compare pts in
  let same (k, _) =
    List.compare_lengths k key = 0 && List.for_all2 Geometry.Vec.equal k key
  in
  match List.find_opt same t.table.views with
  | Some (_, h0) ->
    Obs.Metrics.incr round0_shared_c;
    h0
  | None ->
    let h0 = round0_polytope ~dim:t.d ~f:t.f key in
    Obs.Metrics.incr round0_computed_c;
    (* a process replaying a lossy WAL can finish round 0 again with a
       new view; the table keeps the first n *)
    if List.compare_length_with t.table.views t.n < 0 then
      t.table.views <- (key, h0) :: t.table.views;
    h0

let complete_round0 t entries =
  t.view <- Some entries;
  let h0 = round0_h t (List.map snd entries) in
  t.h <- Some h0;
  t.hist <- (0, h0) :: t.hist;
  if (not t.replaying) && t.max_emitted < 0 then begin
    t.max_emitted <- 0;
    push t
      (Trace (Obs.Trace.Round_enter { pid = t.id; round = 0; vertices = nverts h0 }))
  end;
  enter_round t 1

let check_stable t =
  if (not t.down) && t.current = 0 && t.view = None then begin
    match t.sv with
    | None -> ()
    | Some st ->
      (match SV.result st with
       | Some entries ->
         complete_round0 t
           (List.map (fun e -> (e.SV.origin, e.SV.value)) entries)
       | None -> ())
  end

let check_naive t =
  if (not t.down) && t.current = 0 && t.view = None
     && Rounds.ready t.naive0 ~round:0
  then complete_round0 t (Rounds.freeze t.naive0 ~round:0)

(* The state-bearing deliveries, one handler per message kind. The
   live path calls them directly; replay calls them on decoded WAL
   payloads. Rejoin re-broadcasts make duplicate (round, src) pairs
   benign, so arrivals are deduplicated here instead of letting
   [Rounds.add] treat them as harness bugs. *)
let on_view t ~src m =
  match t.sv with
  | Some st ->
    SV.on_receive st ~src m;
    (* the announce above may crash us mid-broadcast; round-0
       completion must observe that, so it runs at stream position *)
    push t (Defer (fun () -> check_stable t))
  | None -> ()

let on_input t ~src x =
  if not (Rounds.mem t.naive0 ~round:0 ~src) then begin
    Rounds.add t.naive0 ~round:0 ~src x;
    check_naive t
  end

(* Round numbers come off the wire or the disk. No correct process
   sends one outside 0..t_end, and dropping such a number before it
   reaches [Rounds] keeps a corrupted WAL from sizing the round
   table. *)
let in_range t r = r >= 0 && r <= t.t_end

let on_round t ~src r h =
  if in_range t r && not (Rounds.mem t.rounds ~round:r ~src) then begin
    Rounds.add t.rounds ~round:r ~src h;
    if r = t.current then try_advance t
  end

let replay_payload t ~src = function
  | Recovery.Sv_view entries -> on_view t ~src (SV.msg_of_entries entries)
  | Recovery.Input x -> on_input t ~src x
  | Recovery.Round_msg (r, h) -> on_round t ~src r h

let start_proc t =
  match t.round0 with
  | `Stable_vector ->
    let inner =
      grab t (fun () ->
          let st =
            SV.create ~emit:(sv_emit t) ~n:t.n ~f:t.f ~me:t.id ~value:t.input
              ~broadcast:(fun m -> sv_broadcast t m) ()
          in
          t.sv <- Some st)
    in
    push t (Tracked { round = 0; replace = false; inner });
    push t (Defer (fun () -> check_stable t))
  | `Naive ->
    if not (Rounds.mem t.naive0 ~round:0 ~src:t.id) then
      Rounds.add t.naive0 ~round:0 ~src:t.id t.input;
    broadcast_tracked t ~round:0 (Input0 t.input);
    push t (Defer (fun () -> check_naive t))

(* --- crash-recovery ----------------------------------------------------- *)

let snapshot_of t : Recovery.snapshot =
  { Recovery.current = t.current;
    h = t.h;
    view = t.view;
    hist = List.rev t.hist;
    snd_log = List.rev t.snd_log;
    sent_log = List.rev t.sent_log;
    rounds = Rounds.dump t.rounds;
    naive0 = Rounds.dump t.naive0;
    sv = Option.map SV.dump t.sv }

let restore_snapshot t (s : Recovery.snapshot) =
  let threshold = t.n - t.f in
  t.current <- s.Recovery.current;
  t.h <- s.Recovery.h;
  t.view <- s.Recovery.view;
  t.hist <- List.rev s.Recovery.hist;
  t.snd_log <- List.rev s.Recovery.snd_log;
  t.sent_log <- List.rev s.Recovery.sent_log;
  let bounded rounds = List.filter (fun (r, _, _) -> in_range t r) rounds in
  t.rounds <- Rounds.restore ~threshold (bounded s.Recovery.rounds);
  t.naive0 <- Rounds.restore ~threshold (bounded s.Recovery.naive0);
  t.sv <-
    Option.map
      (SV.restore ~emit:(sv_emit t) ~n:t.n ~f:t.f ~me:t.id
         ~broadcast:(fun m -> sv_broadcast t m))
      s.Recovery.sv

(* Checkpoint after the handler has fully run, so the snapshot is the
   state reached by applying every entry logged before it. *)
let maybe_checkpoint t =
  match t.wal with
  | Some w when not t.down && not t.replaying ->
    if Wal.length w > 0
       && Wal.length w mod (Wal.config w).Wal.checkpoint_every = 0
    then begin
      let ev = Recovery.Checkpoint (snapshot_of t) in
      Wal.append w ev;
      push t (Wal_append ev)
    end
  | _ -> ()

(* A live process answers a recovering one directly: its current
   round-0 knowledge plus every round message the rejoiner may have
   missed. Stateless — not logged; with n - f never-crashed
   processes at least n - f answers arrive, enough to re-reach every
   threshold. *)
let answer_rejoin t src r =
  if not t.down && not t.replaying then begin
    wal_sync t;
    (match t.round0 with
     | `Stable_vector ->
       (match t.sv with
        | Some st -> push t (Send (src, Sv (SV.current_msg st)))
        | None -> ())
     | `Naive -> push t (Send (src, Input0 t.input)));
    List.iter
      (fun (tm1, h) ->
         let r' = tm1 + 1 in
         if r' >= Stdlib.max r 1 && r' <= t.t_end then
           push t (Send (src, Round (r', h))))
      (List.rev t.hist)
  end

(* Re-externalize the current round and ask the world for what was
   missed. The re-broadcast repairs the conservative [false] the
   muted replay put in sent_log. *)
let rejoin t =
  if t.current = 0 then begin
    (match t.round0 with
     | `Stable_vector ->
       (match t.sv with
        | Some st ->
          let inner = grab t (fun () -> SV.reannounce st) in
          push t (Tracked { round = 0; replace = true; inner })
        | None -> ())
     | `Naive ->
       t.sent_log <- List.remove_assoc 0 t.sent_log;
       broadcast_tracked t ~round:0 (Input0 t.input));
    push t (Broadcast (Rejoin 0))
  end
  else if t.current <= t.t_end then begin
    (match List.assoc_opt (t.current - 1) t.hist with
     | Some v ->
       t.sent_log <- List.remove_assoc t.current t.sent_log;
       broadcast_tracked t ~round:t.current (Round (t.current, v))
     | None -> ());
    push t (Broadcast (Rejoin t.current))
  end
  (* else: decided before the crash and the replay re-reached the
     decision — stay live so others' rejoins still get answers. *)

(* Force replay-time effects on the spot: the original recovery replay
   is synchronous, so [Defer]red continuations (and [Tracked]
   feedback) must not leak to the driver. Replay emits no transport
   effects (sends are muted, the WAL guards are closed); protocol
   trace events — a stable-vector [Stable] fires even during replay —
   are re-pushed so the driver still emits them in order. *)
let force_replay t effs =
  let replay_io =
    { send = (fun _ _ -> assert false);
      broadcast = (fun _ -> assert false);
      sends = (fun () -> 0);
      emit = (fun ev -> push t (Trace ev));
      on_wal = (fun _ -> ());
      on_sync = (fun () -> ()) }
  in
  interpret t replay_io effs

(* --- driver-facing API -------------------------------------------------- *)

let start t = grab t (fun () -> if t.down then () else start_proc t)

let on_msg t ~src = function
  | Rejoin r -> answer_rejoin t src r
  | Sv m -> on_view t ~src m
  | Input0 x -> on_input t ~src x
  | Round (r, h) -> on_round t ~src r h

(* What a WAL records of a live message; rejoin requests are
   stateless and are not logged. *)
let payload_of = function
  | Rejoin _ -> None
  | Sv m -> Some (Recovery.Sv_view (SV.msg_entries m))
  | Input0 x -> Some (Recovery.Input x)
  | Round (r, h) -> Some (Recovery.Round_msg (r, h))

(* A live delivery. Only with a WAL armed is it logged before it is
   handled, and then the checkpoint cadence is judged after every
   consequence of it (including a mid-broadcast crash) has played
   out. *)
let handle t ~src msg =
  grab t (fun () ->
      if t.down then ()
      else
        match t.wal with
        | None -> on_msg t ~src msg
        | Some _ ->
          (match payload_of msg with
           | None -> on_msg t ~src msg
           | Some payload ->
             wal_append t (Recovery.Delivered { src; payload });
             on_msg t ~src msg;
             push t (Defer (fun () -> maybe_checkpoint t))))

let crash t ~keep =
  t.down <- true;
  match t.wal with Some w -> Wal.crash w ~keep | None -> ()

(* Revival: rebuild protocol state from the surviving WAL prefix —
   wholesale, since a dying handler may have mutated state past the
   crash point — then re-enter the protocol. *)
let recover t =
  grab t (fun () ->
      let w =
        match t.wal with
        | Some w -> w
        | None -> invalid_arg "Instance.recover: durability not armed"
      in
      Obs.Prof.with_span "cc.recover" @@ fun () ->
      Wal.reopen w;
      let threshold = t.n - t.f in
      t.sv <- None;
      t.rounds <- Rounds.create ~threshold;
      t.naive0 <- Rounds.create ~threshold;
      t.current <- 0;
      t.h <- None;
      t.view <- None;
      t.hist <- [];
      t.snd_log <- [];
      t.sent_log <- [];
      t.down <- false;
      t.replaying <- true;
      let snap, tail =
        List.fold_left
          (fun (snap, tail) ev ->
             match ev with
             | Recovery.Checkpoint s -> (Some s, [])
             | Recovery.Delivered _ -> (snap, ev :: tail))
          (None, []) (Wal.entries w)
      in
      (match snap with
       | Some s -> restore_snapshot t s
       | None -> force_replay t (grab t (fun () -> start_proc t)));
      List.iter
        (function
          | Recovery.Delivered { src; payload } ->
            force_replay t (grab t (fun () -> replay_payload t ~src payload))
          | Recovery.Checkpoint _ -> ())
        (List.rev tail);
      t.replaying <- false;
      rejoin t)

let restore t ~entries =
  (match t.wal with
   | None -> invalid_arg "Instance.restore: durability not armed"
   | Some w ->
     List.iter (Wal.append w) entries;
     (* whatever was reloaded from disk is durable by definition *)
     Wal.sync w);
  recover t

(* --- observers ---------------------------------------------------------- *)

let poll_decision t = t.output
let me t = t.id
let down t = t.down
let decided t = t.current > t.t_end
let t_end t = t.t_end
let current_round t = t.current
let view t = t.view
let history t = List.rev t.hist
let senders t = List.rev t.snd_log
let sent_round t = List.rev t.sent_log
let redecided t = t.redecided
let wal_entries t = match t.wal with Some w -> Wal.entries w | None -> []
