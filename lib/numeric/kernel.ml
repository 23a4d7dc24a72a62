(* Arithmetic-kernel selection and filter telemetry.

   Two kernels compute the same exact results: [Exact] always runs the
   arbitrary-precision rational path; [Filtered] first tries a
   certified float-interval filter and falls back to exact arithmetic
   when the filter is inconclusive. The filter answers only when its
   result is certified, so the kernels are observationally identical;
   the exact kernel stays available as the oracle for differential
   testing (see lib/fuzz).

   Mode resolution: a per-domain override (installed by [with_mode])
   wins, otherwise the process-wide default, which is initialized from
   [CHC_KERNEL] and adjustable via [set_default] (CLI --kernel). The
   override is domain-local state, and geometry runs on the domain
   that calls it, so an override installed around a call covers every
   predicate the call evaluates — also when the caller is itself a job
   on a pool worker (a fuzz trial). *)

type mode = Exact | Filtered

let to_string = function
  | Exact -> "exact"
  | Filtered -> "filtered"

let parse s =
  match String.lowercase_ascii (String.trim s) with
  | "exact" -> Ok Exact
  | "filtered" -> Ok Filtered
  | other ->
    Error
      (Printf.sprintf
         "unknown kernel %S (expected \"exact\" or \"filtered\")" other)

(* Same warn-and-clamp discipline as CHC_DOMAINS: a bad value gets an
   explicit warning naming the accepted modes, then the default. *)
let env_default () =
  match Sys.getenv_opt "CHC_KERNEL" with
  | None | Some "" -> Filtered
  | Some s ->
    (match parse s with
     | Ok m -> m
     | Error msg ->
       Printf.eprintf
         "chc: ignoring CHC_KERNEL: %s; using \"filtered\"\n%!" msg;
       Filtered)

let default = Atomic.make (env_default ())

let set_default m = Atomic.set default m
let get_default () = Atomic.get default

let override_key : mode option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let mode () =
  match !(Domain.DLS.get override_key) with
  | Some m -> m
  | None -> Atomic.get default

let filtered () = mode () = Filtered

let with_mode m f =
  let slot = Domain.DLS.get override_key in
  let saved = !slot in
  slot := Some m;
  Fun.protect ~finally:(fun () -> slot := saved) f

(* ------------------------------------------------------------------ *)
(* Filter telemetry. The predicates are far too hot for a mutex or
   even an atomic per call, so each domain owns a plain-field counter
   cell (registered once, under a mutex, at first use); [stats] sums
   the cells. Reads of a cell being bumped concurrently are benign:
   the fields are word-sized, so a snapshot is merely slightly stale,
   never torn. *)

type pred = Sign | Compare | Dot | Cross

let pred_name = function
  | Sign -> "sign"
  | Compare -> "compare"
  | Dot -> "dot"
  | Cross -> "cross"

let all_preds = [ Sign; Compare; Dot; Cross ]

type cell = {
  mutable sign_hit : int;
  mutable sign_fb : int;
  mutable cmp_hit : int;
  mutable cmp_fb : int;
  mutable dot_hit : int;
  mutable dot_fb : int;
  mutable cross_hit : int;
  mutable cross_fb : int;
}

let cells_m = Mutex.create ()
let cells : cell list ref = ref []

let cell_key : cell Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let c =
        { sign_hit = 0; sign_fb = 0; cmp_hit = 0; cmp_fb = 0;
          dot_hit = 0; dot_fb = 0; cross_hit = 0; cross_fb = 0 }
      in
      Mutex.lock cells_m;
      cells := c :: !cells;
      Mutex.unlock cells_m;
      c)

let hit p =
  let c = Domain.DLS.get cell_key in
  match p with
  | Sign -> c.sign_hit <- c.sign_hit + 1
  | Compare -> c.cmp_hit <- c.cmp_hit + 1
  | Dot -> c.dot_hit <- c.dot_hit + 1
  | Cross -> c.cross_hit <- c.cross_hit + 1

let fallback p =
  let c = Domain.DLS.get cell_key in
  match p with
  | Sign -> c.sign_fb <- c.sign_fb + 1
  | Compare -> c.cmp_fb <- c.cmp_fb + 1
  | Dot -> c.dot_fb <- c.dot_fb + 1
  | Cross -> c.cross_fb <- c.cross_fb + 1

type stat = { hits : int; fallbacks : int }

let stats_of p =
  Mutex.lock cells_m;
  let cs = !cells in
  Mutex.unlock cells_m;
  List.fold_left
    (fun acc c ->
       let h, f =
         match p with
         | Sign -> (c.sign_hit, c.sign_fb)
         | Compare -> (c.cmp_hit, c.cmp_fb)
         | Dot -> (c.dot_hit, c.dot_fb)
         | Cross -> (c.cross_hit, c.cross_fb)
       in
       { hits = acc.hits + h; fallbacks = acc.fallbacks + f })
    { hits = 0; fallbacks = 0 } cs

let stats () = List.map (fun p -> (pred_name p, stats_of p)) all_preds

let totals () =
  List.fold_left
    (fun acc (_, s) ->
       { hits = acc.hits + s.hits; fallbacks = acc.fallbacks + s.fallbacks })
    { hits = 0; fallbacks = 0 } (stats ())

let reset_stats () =
  Mutex.lock cells_m;
  let cs = !cells in
  Mutex.unlock cells_m;
  List.iter
    (fun c ->
       c.sign_hit <- 0; c.sign_fb <- 0;
       c.cmp_hit <- 0; c.cmp_fb <- 0;
       c.dot_hit <- 0; c.dot_fb <- 0;
       c.cross_hit <- 0; c.cross_fb <- 0)
    cs
