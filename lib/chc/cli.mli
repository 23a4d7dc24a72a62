(** Validated parsing for the [chc_sim] command line.

    These helpers live in the library (rather than in [bin/]) so the
    test suite can pin the validation behaviour down: the original
    parsers used bare [int_of_string] / [Q.of_string], so a malformed
    [--faulty 0,x] escaped as a raw [Failure] backtrace instead of a
    cmdliner error. Everything here returns [result]; the binary maps
    [Error] onto cmdliner's error path. *)

val parse_ids : n:int -> f:int -> string -> (int list, string) result
(** Parse a comma-separated faulty-id list ([""] and stray commas are
    tolerated). Ids are validated against the process range
    [0..n-1], deduplicated and sorted; more than [f] distinct ids is
    an error (the model guarantees nothing beyond [f] faults). *)

val parse_q : string -> string -> (Numeric.Q.t, string) result
(** [parse_q label s]: decimal or rational [a/b]; [label] prefixes the
    error message. *)

val parse_kernel : string -> (Numeric.Kernel.mode, string) result
(** Parse a [--kernel exact|filtered] argument
    ({!Numeric.Kernel.parse} with the CLI error prefix). *)

val parse_point : d:int -> string -> (Geometry.Vec.t, string) result
(** Comma-separated coordinates, exactly [d] of them. *)

val parse_scheduler :
  faulty:int list -> string -> (Runtime.Scheduler.t, string) result
(** Resolve a [--scheduler name\[:params\]] spec against the strategy
    registry (so fuzzer-contributed adversaries are addressable from
    the CLI once registered). The bare name ["lag"] keeps its historic
    CLI meaning: starve the faulty set. *)

val parse_inputs :
  n:int -> d:int -> string -> (Geometry.Vec.t array, string) result
(** Semicolon-separated points, exactly [n] of them. *)

(** {1 Shared command-line surface}

    The cmdliner terms every execution-shaped subcommand composes —
    [chc_sim run]/[trace]/[profile]/[fuzz]/[replay] and
    [chc_serve drive] all draw from the same definitions, so flag
    names, defaults, docs and error-message formats cannot drift
    apart per subcommand. *)

type common = {
  n : int;
  f : int;
  d : int;
  eps : string;  (** unparsed; validated by {!scenario_of_common} *)
  lo : string;
  hi : string;
  seed : int;
  scheduler : string;
  naive : bool;
  kernel : string option;
  inputs : string option;
  faulty : string option;
}
(** The twelve flags shared by every subcommand that shapes an
    execution. String-typed fields are raw command-line text;
    {!scenario_of_common} owns all validation, so error messages are
    identical wherever the flags are used. *)

val common_args : common Cmdliner.Term.t
(** [-n -f -d --eps --lo --hi --seed --scheduler --naive-round0
    --kernel --inputs --faulty] as one term. *)

val seed_arg : int Cmdliner.Term.t
(** [--seed] alone — for subcommands (fuzz, serve) that take a seed
    but no problem shape. *)

val kernel_arg : string option Cmdliner.Term.t
(** [--kernel] alone. *)

val scenario_of_common : common -> (Scenario.t, string) result
(** Validate into a randomized {!Scenario} ([Scenario.default] with
    the parsed config/faulty/scheduler/round0, inputs overridden when
    [--inputs] was given). Every user error comes back as the
    ["--flag: ..."] message format the parsers above produce. *)

val set_kernel : string option -> (unit, string) result
(** Install a [--kernel] choice as the process-wide default
    ([None] keeps the ambient default: [CHC_KERNEL], else filtered). *)

val with_kernel :
  string option -> (unit -> ([> `Error of bool * string ] as 'a)) -> 'a
(** [with_kernel kernel k] installs [kernel] as {!set_kernel} does and
    runs [k], or returns a cmdliner [`Error] naming the bad value —
    the prologue of every subcommand that takes [--kernel]. *)

val recoverize :
  delay:int -> keep:int -> Scenario.t -> Scenario.t
(** [--recover]: turn every sampled crash-stop plan into a
    crash-recover plan with the same trigger budget. *)
