(* Fixed-size Domain work pool. Tasks are closures pushed to a shared
   queue; [size - 1] worker domains plus the submitting domain drain
   it. Combinators write results into index-addressed slots and read
   them back in index order, so output never depends on scheduling. *)

let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Worker domains spawned and not yet joined, over every pool. *)
let live = Atomic.make 0

type t = {
  size : int;
  m : Mutex.t;
  cond : Condition.t;
  tasks : (unit -> unit) Queue.t;
  mutable workers : unit Domain.t array;
  mutable spawned : bool;
  mutable down : bool;
  (* Lifetime utilization counters (guarded by [m]). *)
  mutable task_count : int;
  mutable batch_count : int;
}

type stats = {
  pool_size : int;
  tasks_run : int;
  batches : int;
}

let create ~size =
  if size < 1 then invalid_arg "Pool.with_pool: size must be >= 1";
  { size;
    m = Mutex.create ();
    cond = Condition.create ();
    tasks = Queue.create ();
    workers = [||];
    spawned = false;
    down = false;
    task_count = 0;
    batch_count = 0 }

let size t = t.size

let stats t =
  Mutex.lock t.m;
  let s =
    { pool_size = t.size; tasks_run = t.task_count; batches = t.batch_count }
  in
  Mutex.unlock t.m;
  s

let worker_loop pool () =
  Domain.DLS.set in_worker true;
  let rec loop () =
    Mutex.lock pool.m;
    while Queue.is_empty pool.tasks && not pool.down do
      Condition.wait pool.cond pool.m
    done;
    if not (Queue.is_empty pool.tasks) then begin
      let task = Queue.pop pool.tasks in
      Mutex.unlock pool.m;
      task ();
      loop ()
    end
    else Mutex.unlock pool.m (* down && drained *)
  in
  loop ()

let shutdown pool =
  Mutex.lock pool.m;
  pool.down <- true;
  Condition.broadcast pool.cond;
  Mutex.unlock pool.m;
  let ws = pool.workers in
  pool.workers <- [||];
  Array.iter Domain.join ws;
  ignore (Atomic.fetch_and_add live (- Array.length ws))

let ensure_spawned pool =
  Mutex.lock pool.m;
  if (not pool.spawned) && not pool.down then begin
    pool.spawned <- true;
    pool.workers <-
      Array.init (pool.size - 1) (fun _ -> Domain.spawn (worker_loop pool));
    ignore (Atomic.fetch_and_add live (pool.size - 1))
  end;
  Mutex.unlock pool.m

(* Per-batch completion state; the submitter blocks on [bc] until
   every task of its batch has run. *)
type batch = {
  mutable remaining : int;
  mutable exn : exn option;
  bm : Mutex.t;
  bc : Condition.t;
}

let run_batch_inner pool thunks n =
  begin
    ensure_spawned pool;
    let b =
      { remaining = n; exn = None; bm = Mutex.create (); bc = Condition.create () }
    in
    let wrap thunk () =
      (try
         if Obs.Prof.enabled () then Obs.Prof.with_span "pool.task" thunk
         else thunk ()
       with
       | e ->
         Mutex.lock b.bm;
         if b.exn = None then b.exn <- Some e;
         Mutex.unlock b.bm);
      Mutex.lock b.bm;
      b.remaining <- b.remaining - 1;
      if b.remaining = 0 then Condition.broadcast b.bc;
      Mutex.unlock b.bm
    in
    Mutex.lock pool.m;
    Array.iter (fun thunk -> Queue.push (wrap thunk) pool.tasks) thunks;
    pool.task_count <- pool.task_count + n;
    pool.batch_count <- pool.batch_count + 1;
    Condition.broadcast pool.cond;
    Mutex.unlock pool.m;
    (* The submitting domain helps drain the queue instead of idling. *)
    let rec help () =
      Mutex.lock pool.m;
      if Queue.is_empty pool.tasks then Mutex.unlock pool.m
      else begin
        let task = Queue.pop pool.tasks in
        Mutex.unlock pool.m;
        task ();
        help ()
      end
    in
    help ();
    Mutex.lock b.bm;
    while b.remaining > 0 do Condition.wait b.bc b.bm done;
    let failed = b.exn in
    Mutex.unlock b.bm;
    match failed with Some e -> raise e | None -> ()
  end

let run_batch pool thunks =
  let n = Array.length thunks in
  if n > 0 then
    if Obs.Prof.enabled () then
      Obs.Prof.with_span
        ~attrs:[ ("tasks", string_of_int n) ]
        "pool.batch"
        (fun () -> run_batch_inner pool thunks n)
    else run_batch_inner pool thunks n

let sequentialize pool xs =
  pool.size <= 1 || pool.down || Domain.DLS.get in_worker
  || (match xs with [] | [ _ ] -> true | _ -> false)

let parallel_map pool f xs =
  if sequentialize pool xs then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let out = Array.make n None in
    let nchunks = min n (pool.size * 4) in
    let thunks =
      Array.init nchunks (fun c ->
          let lo = c * n / nchunks and hi = (c + 1) * n / nchunks in
          fun () ->
            for i = lo to hi - 1 do out.(i) <- Some (f arr.(i)) done)
    in
    run_batch pool thunks;
    Array.to_list (Array.map Option.get out)
  end

let parallel_filter_map pool f xs =
  if sequentialize pool xs then List.filter_map f xs
  else List.filter_map Fun.id (parallel_map pool f xs)

let parallel_concat_map pool f xs =
  if sequentialize pool xs then List.concat_map f xs
  else List.concat (parallel_map pool f xs)

let with_pool ~size f =
  let pool = create ~size in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Global pool. *)

let max_domains = 64

let parse_size s =
  match int_of_string_opt (String.trim s) with
  | Some k when k >= 1 -> Ok (min k max_domains)
  | Some k -> Error (Printf.sprintf "%d is not a positive domain count" k)
  | None -> Error (Printf.sprintf "%S is not an integer" s)

let default_size () =
  let recommended () = min (Domain.recommended_domain_count ()) max_domains in
  match Sys.getenv_opt "CHC_DOMAINS" with
  | Some s ->
    (match parse_size s with
     | Ok k -> k
     | Error why ->
       (* An invalid value must not silently change the pool size —
          name the rejected value so a typo in a job script is
          visible (satellite of the observability layer). *)
       Printf.eprintf
         "chc: warning: ignoring CHC_DOMAINS=%s (%s); using %d\n%!"
         s why (recommended ());
       recommended ())
  | None -> recommended ()

let global_mutex = Mutex.create ()
let global_pool : t option ref = ref None

(* The global pool has no scope to join its workers at, so process
   exit does. *)
let () =
  at_exit (fun () ->
      Mutex.lock global_mutex;
      let p = !global_pool in
      Mutex.unlock global_mutex;
      Option.iter shutdown p)

let global () =
  Mutex.lock global_mutex;
  let p =
    match !global_pool with
    | Some p -> p
    | None ->
      let p = create ~size:(default_size ()) in
      global_pool := Some p;
      p
  in
  Mutex.unlock global_mutex;
  p

let global_size () = size (global ())

let set_global_size k =
  if k < 1 then invalid_arg "Pool.set_global_size: size must be >= 1";
  Mutex.lock global_mutex;
  let old = !global_pool in
  global_pool := Some (create ~size:k);
  Mutex.unlock global_mutex;
  Option.iter shutdown old

(* Surface the live-worker count and the global pool's lifetime
   counters through the metrics registry. Reporting must not force the
   pool into existence, so the collector reads the ref directly instead
   of calling [global]. *)
let () =
  Obs.Metrics.register_collector (fun () ->
      Mutex.lock global_mutex;
      let p = !global_pool in
      Mutex.unlock global_mutex;
      let workers =
        { Obs.Metrics.metric = "chc_pool_workers";
          labels = [];
          value = Obs.Metrics.Gauge (float_of_int (Atomic.get live)) }
      in
      match p with
      | None -> [ workers ]
      | Some p ->
        let s = stats p in
        [ workers;
          { Obs.Metrics.metric = "chc_pool_size";
            labels = [];
            value = Obs.Metrics.Gauge (float_of_int s.pool_size) };
          { Obs.Metrics.metric = "chc_pool_tasks_total";
            labels = [];
            value = Obs.Metrics.Counter s.tasks_run };
          { Obs.Metrics.metric = "chc_pool_batches_total";
            labels = [];
            value = Obs.Metrics.Counter s.batches } ])
