(* Exclusive (self) time per span name, computed outside the profiler
   from the events it already records: Obs.Prof.events in-process, or
   the daemon's Chrome trace-event export (--profile-out).

   Each recording domain carries its own span stack. A span's self time
   is its duration minus the part its direct children cover; every
   child's duration is charged to its parent once, so the self times of
   all spans on a domain add up to the inclusive time of that domain's
   outermost spans. Whatever the outermost spans leave uncovered of the
   measured window — select loop, frame decode, grading in the daemon's
   main loop, idle pool workers — is the explicit [unattributed] row,
   and the rows then sum to the traced domain time. *)

type event =
  | Begin of { tid : int; name : string; ts_ns : float }
  | End of { tid : int; ts_ns : float }
  | Slice of { name : string; ts_ns : float; dur_ns : float }
      (** a complete slice on an explicit track (the daemon's per-job
          [queued] / [pump] / [job] timelines) — not on any domain
          stack, so reported beside the table, never inside it *)

exception Unmatched of string

type table = {
  rows : (string * float) list;
      (** self ns per span name, largest first *)
  calls : (string * int) list;  (** completed spans per name *)
  domains : int;                (** domains that recorded a span *)
  window_ns : float;
  domain_ns : float;            (** [domains * window_ns] *)
  top_level_ns : float;         (** inclusive ns of outermost spans *)
  domain_top_ns : (int * float) list;
      (** the same, per recording domain (its uncovered rest of the
          window is that domain's share of [unattributed_ns]) *)
  unattributed_ns : float;      (** [domain_ns - top_level_ns] *)
  slices : (string * float) list;  (** total ns per slice name *)
}

let bump tbl key v =
  Hashtbl.replace tbl key
    (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))

let sorted tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) ->
      match compare b a with 0 -> compare ka kb | c -> c)

(* One open span: name, start, and the time its children covered. *)
type frame = { f_name : string; f_start : float; mutable f_child : float }

(* Streaming accumulator, so a large profile is folded line by line
   and never held in memory as an event list. *)
type acc = {
  self : (string, float) Hashtbl.t;
  ncalls : (string, int) Hashtbl.t;
  slice_tot : (string, float) Hashtbl.t;
  stacks : (int, frame list) Hashtbl.t;
  tops : (int, float) Hashtbl.t;  (* per domain: outermost spans' time *)
  mutable lo : float;
  mutable hi : float;
}

let create () =
  { self = Hashtbl.create 32; ncalls = Hashtbl.create 32;
    slice_tot = Hashtbl.create 4; stacks = Hashtbl.create 4;
    tops = Hashtbl.create 4;
    lo = infinity; hi = neg_infinity }

let see a t =
  if t < a.lo then a.lo <- t;
  if t > a.hi then a.hi <- t

let add a = function
  | Begin { tid; name; ts_ns } ->
    see a ts_ns;
    let st = Option.value ~default:[] (Hashtbl.find_opt a.stacks tid) in
    Hashtbl.replace a.stacks tid
      ({ f_name = name; f_start = ts_ns; f_child = 0. } :: st)
  | End { tid; ts_ns } ->
    see a ts_ns;
    (match Hashtbl.find_opt a.stacks tid with
     | None | Some [] ->
       raise
         (Unmatched
            (Printf.sprintf "end event at %.0f ns on domain %d has no open span"
               ts_ns tid))
     | Some (fr :: rest) ->
       let dur = ts_ns -. fr.f_start in
       if dur < 0. then
         raise
           (Unmatched
              (Printf.sprintf "span %s on domain %d ends before it begins"
                 fr.f_name tid));
       bump a.self fr.f_name (dur -. fr.f_child);
       Hashtbl.replace a.ncalls fr.f_name
         (1 + Option.value ~default:0 (Hashtbl.find_opt a.ncalls fr.f_name));
       (match rest with
        | parent :: _ -> parent.f_child <- parent.f_child +. dur
        | [] -> bump a.tops tid dur);
       Hashtbl.replace a.stacks tid rest)
  | Slice { name; ts_ns; dur_ns } ->
    see a ts_ns;
    see a (ts_ns +. dur_ns);
    bump a.slice_tot name dur_ns

(* [window] (start, end) in ns defaults to the span of all events. *)
let finish ?window a =
  Hashtbl.iter
    (fun tid st ->
       match st with
       | [] -> ()
       | fr :: _ ->
         raise
           (Unmatched
              (Printf.sprintf "span %s on domain %d never ends" fr.f_name tid)))
    a.stacks;
  let window_ns =
    match window with
    | Some (lo, hi) -> hi -. lo
    | None -> if a.hi > a.lo then a.hi -. a.lo else 0.
  in
  let domains = Hashtbl.length a.stacks in
  let domain_ns = float_of_int domains *. window_ns in
  let domain_top_ns =
    Hashtbl.fold
      (fun tid _ acc -> (tid, Option.value ~default:0. (Hashtbl.find_opt a.tops tid)) :: acc)
      a.stacks []
    |> List.sort compare
  in
  let top = List.fold_left (fun acc (_, t) -> acc +. t) 0. domain_top_ns in
  { rows = sorted a.self;
    calls =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) a.ncalls []
      |> List.sort compare;
    domains;
    window_ns;
    domain_ns;
    top_level_ns = top;
    domain_top_ns;
    unattributed_ns = domain_ns -. top;
    slices = sorted a.slice_tot }

let of_events ?window events =
  let a = create () in
  List.iter (add a) events;
  finish ?window a

let self_ns t name = Option.value ~default:0. (List.assoc_opt name t.rows)
let slice_ns t name = Option.value ~default:0. (List.assoc_opt name t.slices)

(* Sum of self time over span names accepted by [pred]. *)
let self_where t pred =
  List.fold_left (fun acc (n, v) -> if pred n then acc +. v else acc) 0. t.rows

let total_ns t =
  List.fold_left (fun acc (_, v) -> acc +. v) t.unattributed_ns t.rows

let of_prof (evs : Obs.Prof.event list) ~window =
  of_events ~window
    (List.map
       (fun (e : Obs.Prof.event) ->
          let ts_ns = Int64.to_float e.Obs.Prof.ts_ns in
          match e.Obs.Prof.phase with
          | `B -> Begin { tid = e.Obs.Prof.tid; name = e.Obs.Prof.name; ts_ns }
          | `E -> End { tid = e.Obs.Prof.tid; ts_ns }
          | `X (dur, _) ->
            Slice { name = e.Obs.Prof.name; ts_ns; dur_ns = Int64.to_float dur })
       evs)

(* --- the daemon's Chrome trace-event export ----------------------------
   Obs.Prof.to_chrome_json writes one event object per line, B/E events
   under pid = tid = the recording domain, X slices under pid 1000000
   with tid = the job's track; ts/dur in microseconds. Parsed line by
   line so a profile of tens of megabytes never sits in memory whole. *)

let track_pid = 1_000_000

(* The raw text after ["key":] up to the next ',' or '}' (or the
   string contents, for a quoted value). *)
let field line key =
  let pat = "\"" ^ key ^ "\":" in
  let pl = String.length pat and ll = String.length line in
  let rec at i k = k = pl || (line.[i + k] = pat.[k] && at i (k + 1)) in
  let rec find i =
    if i + pl > ll then None else if at i 0 then Some (i + pl) else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some j when j < ll && line.[j] = '"' ->
    let b = Buffer.create 16 in
    let rec go k =
      if k >= ll then None
      else
        match line.[k] with
        | '"' -> Some (Buffer.contents b)
        | '\\' when k + 1 < ll -> Buffer.add_char b line.[k + 1]; go (k + 2)
        | c -> Buffer.add_char b c; go (k + 1)
    in
    go (j + 1)
  | Some j ->
    let k = ref j in
    while !k < ll && line.[!k] <> ',' && line.[!k] <> '}' do incr k done;
    Some (String.sub line j (!k - j))

let chrome_line line =
  let num key =
    match Option.bind (field line key) float_of_string_opt with
    | Some v -> v
    | None -> raise (Unmatched ("trace event without " ^ key ^ ": " ^ line))
  in
  let int key = int_of_float (num key) in
  match field line "ph" with
  | None -> None  (* the enclosing "[" / "]" lines *)
  | Some "B" ->
    Some
      (Begin
         { tid = int "tid";
           name = Option.value ~default:"" (field line "name");
           ts_ns = num "ts" *. 1000. })
  | Some "E" -> Some (End { tid = int "tid"; ts_ns = num "ts" *. 1000. })
  | Some "X" when int "pid" = track_pid ->
    Some
      (Slice
         { name = Option.value ~default:"" (field line "name");
           ts_ns = num "ts" *. 1000.;
           dur_ns = num "dur" *. 1000. })
  | Some ph -> raise (Unmatched ("unexpected trace phase " ^ ph))

let of_chrome_file path =
  let ic = open_in_bin path in
  let a = create () in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       try
         while true do
           Option.iter (add a) (chrome_line (input_line ic))
         done
       with End_of_file -> ());
  finish a
