(** Asynchronous round bookkeeping for Algorithm CC's rounds [t >= 1].

    A process in round [t] collects round-[t] messages until it has
    heard from [threshold = n - f] distinct senders {e for the first
    time} (line 12 of Algorithm CC); the multiset frozen at that moment
    is [Y_i[t]] — later round-[t] arrivals must not join it. Messages
    for future rounds arrive early under asynchrony and are buffered
    here until the process reaches that round.

    The table is an array indexed by round, so touching round [r]
    costs O(r) words: a caller that takes round numbers from the
    network or from disk bounds them first (a correct process never
    sends one past [t_end]). Every operation but {!mem} raises
    [Invalid_argument] on a negative round. *)

type 'a t

val create : threshold:int -> 'a t

val add : 'a t -> round:int -> src:int -> 'a -> unit
(** Record a message. Duplicate (round, src) pairs are rejected with
    [Invalid_argument] — channels deliver exactly once and correct
    processes send once per round, so a duplicate is a harness bug. *)

val ready : 'a t -> round:int -> bool
(** Has the round reached its threshold (or already frozen)? *)

val freeze : 'a t -> round:int -> (int * 'a) list
(** The first [threshold] messages of the round in arrival order, as
    [(sender, payload)]; freezes the set on first call so the result
    never changes afterwards. @raise Invalid_argument if the round is
    not {!ready}. *)

val count : 'a t -> round:int -> int
(** Messages received so far for a round (frozen rounds report the
    frozen size). *)

val mem : 'a t -> round:int -> src:int -> bool
(** Has this (round, sender) pair already been recorded? Crash-recovery
    rejoin re-broadcasts make benign duplicates possible; callers guard
    {!add} with this instead of catching its [Invalid_argument]. *)

(** {1 Checkpoint support} *)

val dump : 'a t -> (int * (int * 'a) list * bool) list
(** Every round's arrivals in arrival order plus its frozen flag,
    sorted by round — enough to {!restore} an equivalent table (the
    frozen multiset is always the first [threshold] arrivals). *)

val restore : threshold:int -> (int * (int * 'a) list * bool) list -> 'a t
(** Rebuild a table from {!dump} output.
    @raise Invalid_argument if a frozen round has fewer than
    [threshold] arrivals. *)
