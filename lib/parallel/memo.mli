(** Bounded, domain-safe memo tables for pure functions.

    One table uses this module: [minkowski], on the d >= 3 geometry
    path, holds the vertex-sum polytopes of the L operator. Rounds
    whose inputs agree and processes with equal round-0 views skip the
    geometry before any table is asked, so what reaches the table is
    the repeat that remains: the Minkowski pairs an adversarial (lag)
    scheduler hands several processes in the same round. DESIGN.md
    §2 ("two caches, one engine path" and "one stateless polytope
    engine") records the hit counts that keep it and retired the
    rest.

    Caching is invisible to results: tables only ever return a value
    produced by the memoized function on a structurally equal key, so
    executions stay pure functions of their inputs. Tables are
    mutex-protected (jobs on pool workers, such as server shards and
    fuzz trials, call them concurrently) and bounded — when [max_size] entries accumulate, the
    table is flushed wholesale (epoch eviction: cheap, and repeats
    come close together, within a round or one grading pass).

    [set_enabled false] bypasses every table; the bench harness uses
    it to measure algorithmic speedups separately from cache hits. *)

type ('a, 'b) t

type stats = {
  hits : int;       (** lifetime lookups answered from the table *)
  misses : int;     (** lifetime lookups that ran the function *)
  evictions : int;  (** lifetime entries discarded by epoch flushes and {!clear} *)
  entries : int;    (** entries resident right now *)
}

val create :
  ?name:string ->
  ?max_size:int -> hash:('a -> int) -> equal:('a -> 'a -> bool) -> unit
  -> ('a, 'b) t
(** [max_size] defaults to 4096 entries. A [?name] registers the table
    in the process-wide registry read by {!all_stats} (used by
    [Obs.Report] to enumerate every kernel cache); anonymous tables
    stay unlisted. *)

val find_or_add : ('a, 'b) t -> 'a -> (unit -> 'b) -> 'b
(** [find_or_add t k f] returns the cached value for [k], or runs [f]
    (outside the table lock) and caches its result. Under a race two
    domains may both run [f]; both results are structurally equal, and
    one wins the slot. With {!Obs.Prof} on, the lookup and the insert
    each record a ["memo.lookup"] span; [f] runs between them, so its
    time is not billed to the cache. *)

val clear : ('a, 'b) t -> unit
(** Discard every resident entry (they count as evictions). Lifetime
    [hits]/[misses]/[evictions] counters are {e not} reset — epoch
    eviction uses [clear], and hit-rate reporting must survive it. *)

val stats : ('a, 'b) t -> stats
(** Lifetime counters plus the current entry count. *)

val all_stats : unit -> (string * stats) list
(** Stats of every named table, in registration order (deterministic:
    tables are created at module initialization). *)

val clear_all : unit -> unit
(** {!clear} every named table. The bench harness uses this between
    measured runs so each starts from cold caches — in particular the
    kernel-ablation sweep (E13), where a value cached under one
    arithmetic kernel must not be served to the other's run. *)

val set_enabled : bool -> unit
(** Globally enable/disable all memo tables (default: enabled). *)

val enabled : unit -> bool
(** [true] iff lookups are live in the current domain: globally
    enabled and not inside {!with_bypass}. *)

val with_bypass : (unit -> 'a) -> 'a
(** Run a thunk with every table bypassed in the current domain (no
    lookups, no insertions; other domains are unaffected). Differential
    oracles use this so one kernel's run can't serve values cached by
    the other — a cross-kernel hit would mask exactly the divergence
    being tested for. Nests; restores the previous state on exit. *)
