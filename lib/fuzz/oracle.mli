(** Property oracles — what the fuzzer grades an execution against.

    [Paper_properties] is the real thing: every property the paper
    proves (termination, validity, ε-agreement, optimality), exactly as
    {!Chc.Executor} certifies them. [Agreement_within] substitutes an
    explicit agreement threshold for the configured ε — its intended
    use is the {e canary}: grading the correct protocol against a
    deliberately too-strict threshold manufactures real, reproducible
    violations, which is how the test suite proves the campaign and the
    shrinker actually work end-to-end.

    The oracle travels inside the counterexample artifact, so
    [chc_sim replay] re-grades with the same check that flagged the
    run. *)

module Q = Numeric.Q

type t =
  | Paper_properties
      (** all four properties of the paper, graded exactly — over the
          fault-free {e and recovered} processes in crash-recovery
          mode, plus decision stability (no recovered process may
          change a decision it externalized before crashing) *)
  | Agreement_within of Q.t
      (** termination plus [d_H² < eps²] for the given [eps],
          ignoring the scenario's configured ε *)
  | Kernel_equivalence
      (** differential check of the filtered arithmetic kernel against
          the exact one: the scenario is executed under both
          ({!Numeric.Kernel.mode}), with memo tables bypassed so the
          runs are independent, and any difference in the decided
          polytopes, the termination round or the graded volumes
          ([min_output_volume], [iz_volume]) is a failure *)
  | Engine_equivalence
      (** differential check of the incremental polytope engine against
          the from-scratch rebuild engine
          ({!Geometry.Poly_engine.mode}): the scenario is executed
          under both, each leg with memo tables bypassed, and any
          difference in the decided polytopes, the termination round
          or the graded volumes is a failure: the incremental leg
          reads a carried dual's volume off its soup, the rebuild leg
          off facet fans *)
  | Round0_equivalence
      (** differential check of round 0: every graded process's
          recorded [h\[0\]] (built by
          {!Geometry.Polytope.depth_region}, or shared from a process
          with the same view) must equal
          {!Geometry.Polytope.subset_hull_region} recomputed from that
          process's recorded view, memo tables bypassed *)

type verdict = Pass | Fail of string
(** [Fail] carries a one-line human reason. Engine escapes are
    verdicts too: [Step_limit_exceeded] grades as a liveness failure
    and any other exception as an engine bug — the fuzzer surfaces
    both rather than crashing the campaign. *)

val name : t -> string

val to_json : t -> Codec.Json.t
val of_json : Codec.Json.t -> (t, string) result

val check : ?trace:Obs.Trace.t -> t -> Chc.Scenario.t -> verdict
(** Execute the scenario ({!Chc.Executor.run}) and grade it. *)
