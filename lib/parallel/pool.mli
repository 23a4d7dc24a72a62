(** Fixed-size domain-based work pool (OCaml 5 stdlib [Domain] only).

    The pool runs independent jobs side by side: the daemon's shards
    ([Serve.Server]), fuzz trials ([Fuzz.Campaign]) and the experiment
    harness's per-seed sweeps. Geometry never uses it: every hull,
    intersection and LP runs on the domain that calls it, under that
    domain's kernel mode (DESIGN.md §2, "geometry runs on its caller's
    domain"). Results are always merged in input (index) order, so
    every computation is a pure function of its inputs — executions
    are byte-identical whatever the pool size (DESIGN.md §2,
    "Determinism").

    Ownership: the code that spawns a worker domain also joins it.
    {!with_pool} joins its workers when its callback returns or
    raises; {!set_global_size} joins the global pool it replaces, and
    process exit joins the last one.

    Sizing: the global pool reads the [CHC_DOMAINS] environment
    variable at first use; absent that it uses
    [Domain.recommended_domain_count ()]. Either way the size is
    clamped to 64 domains (the pool is for compute parallelism; more
    domains than cores only adds contention, and OCaml 5 recommends
    staying near the core count). An invalid [CHC_DOMAINS] value
    (non-numeric, zero, negative) is rejected with a warning on stderr
    naming the value — it does {e not} silently resize the pool — and
    the recommended count is used instead. Size 1 (the default on a
    single-core host) short-circuits every combinator to its exact
    sequential equivalent — no domains are ever spawned.

    Nesting: a combinator invoked from inside a worker task runs
    sequentially rather than re-entering the pool, so nested data
    parallelism cannot deadlock the fixed-size pool. *)

type t

val with_pool : size:int -> (t -> 'a) -> 'a
(** [with_pool ~size f] runs [f] with a pool that runs tasks on up to
    [size] domains ([size - 1] workers plus the submitting domain,
    which participates). Workers are spawned on the first batch and
    joined when [f] returns or raises; a combinator called on the pool
    after that runs sequentially.
    @raise Invalid_argument if [size < 1]. *)

val size : t -> int

type stats = {
  pool_size : int;  (** configured size (domains, submitter included) *)
  tasks_run : int;  (** lifetime tasks executed through the queue *)
  batches : int;    (** lifetime combinator fan-outs that hit the queue *)
}

val stats : t -> stats
(** Utilization counters. Sequentialized calls (size-1 pools, nested
    combinators, singleton inputs) bypass the queue and are not
    counted — [tasks_run] measures actual parallel dispatch. The
    metrics registry also reads the gauge [chc_pool_workers]: worker
    domains spawned by any pool and not yet joined. *)

val parse_size : string -> (int, string) result
(** Parse a [CHC_DOMAINS]-style domain count: a positive integer,
    clamped to the 64-domain maximum. [Error] carries a human-readable
    reason naming the rejected value. *)

(** {1 Combinators}

    All combinators preserve input order exactly: [parallel_map p f l]
    returns the same list as [List.map f l], whatever the pool size or
    scheduling. Exceptions raised by [f] are re-raised in the calling
    domain (one representative when several tasks fail). *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list

val parallel_filter_map : t -> ('a -> 'b option) -> 'a list -> 'b list

val parallel_concat_map : t -> ('a -> 'b list) -> 'a list -> 'b list

(** {1 The global pool} *)

val global : unit -> t
(** The process-wide pool, created on first use with the size rules
    above. *)

val global_size : unit -> int

val set_global_size : int -> unit
(** Replace the global pool, joining the old one's workers. Used by
    tests to compare 1-domain and multi-domain executions in-process
    (restoring the saved size afterwards joins what the test spawned),
    and by [CHC_DOMAINS]-style CLI overrides. *)
