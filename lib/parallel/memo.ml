(* Bounded memo table: fixed bucket array, per-table mutex, epoch
   eviction (flush everything when full). Lookups hold the lock only
   for the chain walk; the memoized function runs unlocked. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
}

type ('a, 'b) t = {
  hash : 'a -> int;
  equal : 'a -> 'a -> bool;
  max_size : int;
  span_attrs : (string * string) list;
      (* [("table", name)] for named tables — precomputed so the
         profiling-on path allocates nothing per lookup *)
  m : Mutex.t;
  buckets : (int * 'a * 'b) list array;
  mutable count : int;
  (* Lifetime counters: survive both [clear] and epoch eviction, so
     long-running hit-rate reporting (Obs.Report) keeps its history
     across flushes. *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

let nbuckets = 1024 (* power of two: index by [hash land (nbuckets-1)] *)

(* Domain-local bypass: differential runs (filtered-vs-exact oracle)
   must not let one kernel's run serve cached values computed by the
   other — a shared hit would mask exactly the divergence the oracle
   exists to catch. Bypassing is scoped to the calling domain so
   concurrent pool workers keep their caches. *)
let bypass_key : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let with_bypass f =
  let slot = Domain.DLS.get bypass_key in
  let saved = !slot in
  slot := true;
  Fun.protect ~finally:(fun () -> slot := saved) f

(* Registry of named tables, in registration order, so reporting
   layers can enumerate every cache in the process without holding a
   reference to each. Stats and clear thunks only; the tables
   themselves stay private to their modules. *)
let registry_m = Mutex.create ()
let registry : (string * (unit -> stats) * (unit -> unit)) list ref = ref []

let stats t =
  Mutex.lock t.m;
  let s =
    { hits = t.hits; misses = t.misses; evictions = t.evictions;
      entries = t.count }
  in
  Mutex.unlock t.m;
  s

(* Must be called with [t.m] held. *)
let flush_locked t =
  Array.fill t.buckets 0 nbuckets [];
  t.evictions <- t.evictions + t.count;
  t.count <- 0

let clear t =
  Mutex.lock t.m;
  flush_locked t;
  Mutex.unlock t.m

let register_named name t =
  Mutex.lock registry_m;
  registry := !registry @ [ (name, (fun () -> stats t), (fun () -> clear t)) ];
  Mutex.unlock registry_m

let all_stats () =
  Mutex.lock registry_m;
  let r = !registry in
  Mutex.unlock registry_m;
  List.map (fun (name, f, _) -> (name, f ())) r

let clear_all () =
  Mutex.lock registry_m;
  let r = !registry in
  Mutex.unlock registry_m;
  List.iter (fun (_, _, clear) -> clear ()) r

let create ?name ?(max_size = 4096) ~hash ~equal () =
  if max_size < 1 then invalid_arg "Memo.create: max_size must be >= 1";
  let t =
    { hash; equal; max_size;
      span_attrs =
        (match name with Some n -> [ ("table", n) ] | None -> []);
      m = Mutex.create ();
      buckets = Array.make nbuckets [];
      count = 0; hits = 0; misses = 0; evictions = 0 }
  in
  Option.iter (fun n -> register_named n t) name;
  t

(* The chain walk, under the lock: the cached value for [k] (hash [h]),
   counted as a hit or a miss. *)
let lookup t h k =
  let rec walk = function
    | [] -> None
    | (h', k', v) :: rest -> if h' = h && t.equal k' k then Some v else walk rest
  in
  Mutex.lock t.m;
  let r = walk t.buckets.(h land (nbuckets - 1)) in
  (match r with
   | Some _ -> t.hits <- t.hits + 1
   | None -> t.misses <- t.misses + 1);
  Mutex.unlock t.m;
  r

let insert t h k v =
  let idx = h land (nbuckets - 1) in
  Mutex.lock t.m;
  if t.count >= t.max_size then flush_locked t;
  t.buckets.(idx) <- (h, k, v) :: t.buckets.(idx);
  t.count <- t.count + 1;
  Mutex.unlock t.m

let find_or_add t k f =
  if !(Domain.DLS.get bypass_key) then f ()
  else if not (Obs.Prof.enabled ()) then begin
    let h = t.hash k land max_int in
    match lookup t h k with
    | Some v -> v
    | None ->
      let v = f () in
      insert t h k v;
      v
  end
  else begin
    (* "memo.lookup" times the table's own work: a miss runs [f]
       between the lookup span and the insert span, so the memoized
       computation is billed to its own spans, not to the cache. *)
    let span g = Obs.Prof.with_span ~attrs:t.span_attrs "memo.lookup" g in
    let h, found =
      span (fun () ->
          let h = t.hash k land max_int in
          (h, lookup t h k))
    in
    match found with
    | Some v -> v
    | None ->
      let v = f () in
      span (fun () -> insert t h k v);
      v
  end

(* Publish every named table's lifetime counters as registry metrics;
   [Obs.Report] reads these instead of linking against this module. *)
let () =
  Obs.Metrics.register_collector (fun () ->
      List.concat_map
        (fun (name, (s : stats)) ->
           let labels = [ ("table", name) ] in
           [ { Obs.Metrics.metric = "chc_memo_hits_total";
               labels;
               value = Obs.Metrics.Counter s.hits };
             { Obs.Metrics.metric = "chc_memo_misses_total";
               labels;
               value = Obs.Metrics.Counter s.misses };
             { Obs.Metrics.metric = "chc_memo_evictions_total";
               labels;
               value = Obs.Metrics.Counter s.evictions };
             { Obs.Metrics.metric = "chc_memo_entries";
               labels;
               value = Obs.Metrics.Gauge (float_of_int s.entries) } ])
        (all_stats ()))
