(** The fuzzing campaign — randomized adversary exploration, fanned out
    over the parallel domain pool.

    Each trial is a pure function of (space, campaign seed, trial
    index): generate a scenario ({!Gen}), execute and grade it
    ({!Oracle}). Trials run in batches over {!Parallel.Pool}; any
    failure is then shrunk sequentially ({!Shrink}) to a minimal
    counterexample and written to [out_dir] as a replayable
    {!Artifact} (plus the minimized run's {!Obs.Trace} transcript as
    [*.trace.jsonl]).

    With the same (space, oracle, seed, trials) and no time budget the
    campaign is deterministic — batch boundaries only group work; they
    never change which trials run or what each one does. *)

type budget = {
  trials : int;
  time_budget : float option;
      (** seconds on the monotonic clock ({!Obs.Prof.now_ns});
          checked between batches *)
}

type finding = {
  artifact : Artifact.t;
  path : string;                (** artifact JSON on disk *)
  trace_path : string option;   (** minimized run's transcript (JSONL) *)
  causal_path : string option;
      (** {!Obs.Causal} skeleton of the minimized run — per-process
          critical message chains in scheduler steps *)
}

type outcome = {
  trials_run : int;
  findings : finding list;  (** in trial order; empty = clean campaign *)
  elapsed : float;
}

val run :
  ?space:Gen.space ->
  ?oracle:Oracle.t ->
  ?differential:bool ->
  ?out_dir:string ->
  ?max_findings:int ->
  ?log:(string -> unit) ->
  seed:int ->
  budget ->
  outcome
(** Run a campaign. Registers the fuzzer's scheduler strategies
    (idempotent). [max_findings] (default 3) bounds how many failures
    are shrunk and written — further failures in the same batch are
    dropped and the campaign stops. [log] receives one-line progress
    messages (default: silent). [differential] (default [false])
    additionally grades every trial that passes the primary oracle
    with {!Oracle.Kernel_equivalence}, {!Oracle.Engine_equivalence}
    and {!Oracle.Round0_equivalence}; divergences are shrunk and saved
    like any other finding, with that oracle in the artifact. *)
