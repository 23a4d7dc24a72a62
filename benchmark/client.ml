(* The load side of the serve workloads: child processes (the daemon,
   `resume`, the executor child), a single-threaded non-blocking frame
   client, the admin-plane scraper, and readers for /proc/<pid>. *)

module Frame = Serve.Frame

let now () = Int64.to_float (Obs.Prof.now_ns ()) /. 1e9

(* --- child processes --------------------------------------------------- *)

(* Every child still running, so the time-cap handler can kill them. *)
let live : int list ref = ref []

type child = { pid : int; out : in_channel }

(* The daemon's environment: the parent's, minus every CHC_* knob (so a
   kernel or engine override in the caller's shell cannot change what
   is measured), plus the pool size the workload fixes. *)
let env ~domains =
  Unix.environment ()
  |> Array.to_list
  |> List.filter (fun kv -> not (String.starts_with ~prefix:"CHC_" kv))
  |> List.cons (Printf.sprintf "CHC_DOMAINS=%d" domains)
  |> Array.of_list

let spawn ~domains exe args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process_env exe (Array.of_list (exe :: args)) (env ~domains)
      Unix.stdin wr Unix.stderr
  in
  Unix.close wr;
  live := pid :: !live;
  { pid; out = Unix.in_channel_of_descr rd }

let reap c =
  let rec wait () =
    match Unix.waitpid [] c.pid with
    | _, st -> st
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let st = wait () in
  live := List.filter (( <> ) c.pid) !live;
  close_in_noerr c.out;
  st

let kill c =
  (try Unix.kill c.pid Sys.sigkill with Unix.Unix_error _ -> ());
  ignore (reap c : Unix.process_status)

(* Read the child's stdout to EOF, then reap it. *)
let finish c =
  let lines = ref [] in
  (try
     while true do
       lines := input_line c.out :: !lines
     done
   with End_of_file -> ());
  let st = reap c in
  (List.rev !lines, st)

let kill_all () =
  List.iter
    (fun pid ->
       (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
       try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* "chc_serve: listening on 127.0.0.1:PORT (...)" *)
let read_port c =
  let line = input_line c.out in
  let port =
    match String.rindex_opt line ':' with
    | None -> None
    | Some i ->
      let rest = String.sub line (i + 1) (String.length line - i - 1) in
      int_of_string_opt (List.hd (String.split_on_char ' ' rest))
  in
  match port with
  | Some p -> p
  | None -> failwith ("cannot parse the daemon's banner: " ^ line)

(* --- /proc ------------------------------------------------------------- *)

let read_proc path =
  (* /proc files report length 0; read them in chunks *)
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
       let b = Buffer.create 4096 and chunk = Bytes.create 4096 in
       let rec go () =
         match input ic chunk 0 4096 with
         | 0 -> Buffer.contents b
         | k -> Buffer.add_subbytes b chunk 0 k; go ()
       in
       go ())

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  let status = read_proc (Printf.sprintf "/proc/%d/status" pid) in
  match
    List.find_opt
      (String.starts_with ~prefix:"VmHWM:")
      (String.split_on_char '\n' status)
  with
  | None -> failwith "no VmHWM in /proc status"
  | Some line -> Scanf.sscanf line "VmHWM: %f kB" (fun kb -> kb /. 1024.)

(* User + system CPU seconds of all the process's threads. /proc
   reports clock ticks; Linux fixes USER_HZ at 100. *)
let cpu_s pid =
  let stat = read_proc (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex stat ')' in
  match
    String.split_on_char ' '
      (String.sub stat (i + 2) (String.length stat - i - 2))
  with
  | _state :: rest ->
    (* fields 14 and 15 of the whole line: utime, stime *)
    let f k = float_of_string (List.nth rest (k - 4)) in
    (f 14 +. f 15) /. 100.
  | [] -> failwith "cannot parse /proc stat"

(* --- the frame client ------------------------------------------------- *)

type t = {
  fd : Unix.file_descr;
  dec : Frame.decoder;
  pending : string Queue.t;    (* encoded frames not yet fully written *)
  mutable head_off : int;      (* bytes of the head frame already sent *)
  buf : Bytes.t;
}

let connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.set_nonblock fd;
  { fd; dec = Frame.decoder (); pending = Queue.create (); head_off = 0;
    buf = Bytes.create 65536 }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t frame = Queue.push frame t.pending

let rec flush t =
  match Queue.peek_opt t.pending with
  | None -> ()
  | Some s ->
    let len = String.length s - t.head_off in
    (match Unix.write_substring t.fd s t.head_off len with
     | k when k = len ->
       ignore (Queue.pop t.pending);
       t.head_off <- 0;
       flush t
     | k -> t.head_off <- t.head_off + k
     | exception
         Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
       -> ())

exception Closed

(* One select round: write what the socket takes, read what arrived,
   and return every complete response (in arrival order). *)
let poll t ~timeout =
  flush t;
  let wr = if Queue.is_empty t.pending then [] else [ t.fd ] in
  let rd, _, _ =
    try Unix.select [ t.fd ] wr [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  if rd <> [] then begin
    match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
    | 0 -> raise Closed
    | k -> Frame.feed t.dec (Bytes.sub_string t.buf 0 k)
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> raise Closed
  end;
  flush t;
  let rec frames acc =
    match Frame.next t.dec with
    | None -> List.rev acc
    | Some payload ->
      frames (Frame.read_response (Codec.Wire.reader_of_string payload) :: acc)
  in
  frames []

(* --- the admin plane -------------------------------------------------- *)

(* GET [path] on the daemon's frame port (the admin plane answers HTTP
   there); returns the body. *)
let scrape port path =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
       Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
       let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
       ignore (Unix.write_substring fd req 0 (String.length req) : int);
       let b = Buffer.create 8192 in
       let buf = Bytes.create 8192 in
       let rec go () =
         match Unix.read fd buf 0 (Bytes.length buf) with
         | 0 -> ()
         | k -> Buffer.add_subbytes b buf 0 k; go ()
       in
       go ();
       let resp = Buffer.contents b in
       let rec body i =
         if i + 3 >= String.length resp then
           failwith ("admin response without a body: " ^ path)
         else if String.sub resp i 4 = "\r\n\r\n" then
           String.sub resp (i + 4) (String.length resp - i - 4)
         else body (i + 1)
       in
       if not (String.starts_with ~prefix:"HTTP/1.0 200" resp) then
         failwith ("admin " ^ path ^ " did not answer 200");
       body 0)

(* Prometheus text exposition as (series, value): the series keeps its
   label set as printed, e.g. [chc_memo_hits_total{table="hull"}]. *)
let parse_exposition text =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
      if line = "" || line.[0] = '#' then None
      else
        match String.rindex_opt line ' ' with
        | None -> None
        | Some i ->
          Option.map
            (fun v -> (String.sub line 0 i, v))
            (float_of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1))))
