(* Span profiler: per-domain append-only buffers, merged at export
   time. The enabled flag is one atomic; everything else happens only
   on the profiling-on path. *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

type event = {
  tid : int;
  phase : [ `B | `E | `X of int64 * int ];
  name : string;
  ts_ns : int64;
  attrs : (string * string) list;
}

(* Complete slices on explicit tracks (per-job timelines) render under
   their own Perfetto process so they never collide with the per-domain
   span tracks. *)
let track_pid = 1_000_000

type buffer = {
  b_tid : int;
  mutable rev : event list;
  mutable last : int64;        (* per-domain monotonicity clamp *)
  mutable completed : int;
}

(* Buffers register themselves on a domain's first span and stay
   registered for the domain's lifetime (pool workers persist across
   batches). Export and reset assume a quiescent workload. *)
let buffers_m = Mutex.create ()
let buffers : buffer list ref = ref []

let key : buffer Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let b =
        { b_tid = (Domain.self () :> int); rev = []; last = 0L; completed = 0 }
      in
      Mutex.lock buffers_m;
      buffers := b :: !buffers;
      Mutex.unlock buffers_m;
      b)

let now = Monotonic_clock.now
let now_ns () = now ()
let seconds_since t0 = Int64.to_float (Int64.sub (now ()) t0) /. 1e9

let record b phase name attrs =
  let t = now () in
  let t = if Int64.compare t b.last < 0 then b.last else t in
  b.last <- t;
  b.rev <- { tid = b.b_tid; phase; name; ts_ns = t; attrs } :: b.rev

(* A complete slice on an explicit track: the caller measured the
   interval itself (e.g. the daemon timing one instance's pump). The
   slice is buffered on the recording domain but carries its own track
   id, so per-job slices recorded by different worker domains merge
   onto one timeline at export. No monotonicity clamp: explicit
   timestamps may legitimately predate the domain's last span. *)
let slice ?(attrs = []) ~track ~ts_ns ~dur_ns name =
  if Atomic.get enabled_flag then begin
    let b = Domain.DLS.get key in
    b.rev <-
      { tid = b.b_tid; phase = `X (dur_ns, track); name; ts_ns; attrs }
      :: b.rev
  end

let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let b = Domain.DLS.get key in
    record b `B name attrs;
    Fun.protect
      ~finally:(fun () ->
          record b `E "" [];
          b.completed <- b.completed + 1)
      f
  end

let all_buffers () =
  Mutex.lock buffers_m;
  let bs = !buffers in
  Mutex.unlock buffers_m;
  List.sort (fun a b -> compare a.b_tid b.b_tid) bs

let reset () =
  List.iter
    (fun b ->
       b.rev <- [];
       b.last <- 0L;
       b.completed <- 0)
    (all_buffers ())

let events () =
  List.concat_map (fun b -> List.rev b.rev) (all_buffers ())

let span_count () =
  List.fold_left (fun acc b -> acc + b.completed) 0 (all_buffers ())

(* ------------------------------------------------------------------ *)
(* Chrome trace-event / Perfetto export. *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_chrome_json () =
  let evs = events () in
  let t0 =
    List.fold_left
      (fun acc e -> if Int64.compare e.ts_ns acc < 0 then e.ts_ns else acc)
      (match evs with [] -> 0L | e :: _ -> e.ts_ns)
      evs
  in
  let us e = Int64.to_float (Int64.sub e.ts_ns t0) /. 1000.0 in
  let render_args = function
    | [] -> ""
    | attrs ->
      Printf.sprintf ",\"args\":{%s}"
        (String.concat ","
           (List.map
              (fun (k, v) ->
                 Printf.sprintf "\"%s\":\"%s\"" (json_escape k)
                   (json_escape v))
              attrs))
  in
  let render e =
    match e.phase with
    | `B ->
      Printf.sprintf
        {|{"name":"%s","ph":"B","pid":%d,"tid":%d,"ts":%.3f%s}|}
        (json_escape e.name) e.tid e.tid (us e) (render_args e.attrs)
    | `E ->
      Printf.sprintf {|{"ph":"E","pid":%d,"tid":%d,"ts":%.3f}|} e.tid e.tid
        (us e)
    | `X (dur_ns, track) ->
      Printf.sprintf
        {|{"name":"%s","ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f%s}|}
        (json_escape e.name) track_pid track (us e)
        (Int64.to_float dur_ns /. 1000.0)
        (render_args e.attrs)
  in
  "[\n" ^ String.concat ",\n" (List.map render evs) ^ "\n]\n"

(* ------------------------------------------------------------------ *)
(* Latency summary. *)

type stat = {
  calls : int;
  total_ns : float;
  p50_ns : float;
  p90_ns : float;
  p99_ns : float;
  max_ns : float;
}

let summary () =
  let durations : (string, float list ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun b ->
       let stack = ref [] in
       let record name d =
         match Hashtbl.find_opt durations name with
         | Some l -> l := d :: !l
         | None -> Hashtbl.add durations name (ref [ d ])
       in
       List.iter
         (fun e ->
            match e.phase with
            | `B -> stack := (e.name, e.ts_ns) :: !stack
            | `X (dur_ns, _) -> record e.name (Int64.to_float dur_ns)
            | `E ->
              (match !stack with
               | [] -> ()  (* unmatched E cannot happen; be safe *)
               | (name, t0) :: rest ->
                 stack := rest;
                 record name (Int64.to_float (Int64.sub e.ts_ns t0))))
         (List.rev b.rev))
    (all_buffers ());
  let pct arr q =
    let n = Array.length arr in
    arr.(Stdlib.min (n - 1)
           (Stdlib.max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)))
  in
  Hashtbl.fold
    (fun name l acc ->
       let arr = Array.of_list !l in
       Array.sort compare arr;
       let total = Array.fold_left ( +. ) 0.0 arr in
       ( name,
         { calls = Array.length arr;
           total_ns = total;
           p50_ns = pct arr 0.50;
           p90_ns = pct arr 0.90;
           p99_ns = pct arr 0.99;
           max_ns = arr.(Array.length arr - 1) } )
       :: acc)
    durations []
  |> List.sort (fun (_, a) (_, b) -> compare b.total_ns a.total_ns)
