(* Minimal HTTP/1.0 admin responder. The parsing surface is one
   request line plus headers we ignore; the serving surface is three
   GET paths. Everything else is a 4xx. *)

type source = {
  metrics : unit -> string;
  healthz : unit -> bool * Codec.Json.t;
  statusz : unit -> Codec.Json.t;
}

let () =
  Obs.Metrics.set_help "chc_serve_admin_requests_total"
    "Admin-plane HTTP requests, by endpoint (or error class)."

let scrape_counter endpoint =
  Obs.Metrics.counter "chc_serve_admin_requests_total"
    ~labels:[ ("endpoint", endpoint) ]

(* --- accepting within select(2)'s reach ---------------------------- *)

let refused_total =
  Obs.Metrics.counter "chc_serve_connections_refused_total"
    ~help:"Connections closed on accept because select(2) cannot watch \
           their descriptor (at or past FD_SETSIZE)."

(* select(2) cannot watch a descriptor at or past FD_SETSIZE, and
   OCaml's binding reports one with EINVAL. Probing the fresh
   descriptor alone asks that binding instead of hard-coding the
   limit. *)
let selectable fd =
  match Unix.select [ fd ] [] [] 0. with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let accept sock =
  match Unix.accept sock with
  | fd, _ ->
    if selectable fd then `Client fd
    else begin
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Obs.Metrics.incr refused_total;
      Obs.Log.warn "connection_refused"
        [ ("reason", Obs.Log.S "descriptor past FD_SETSIZE") ];
      `Refused
    end
  | exception Unix.Unix_error ((Unix.EMFILE | Unix.ENFILE), _, _) ->
    `Exhausted
  | exception Unix.Unix_error _ -> `Refused

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
     Connection: close\r\n\r\n%s"
    status content_type (String.length body) body

let json_response ~status j =
  response ~status ~content_type:"application/json"
    (Codec.Json.to_string j ^ "\n")

let bad_request reason =
  Obs.Metrics.incr (scrape_counter "bad");
  response ~status:"400 Bad Request" ~content_type:"text/plain"
    (reason ^ "\n")

let handle_request source text =
  let line =
    match String.index_opt text '\n' with
    | None -> text
    | Some i -> String.sub text 0 i
  in
  let line = String.trim line in
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [ meth; path; version ]
    when String.length version >= 5 && String.sub version 0 5 = "HTTP/" ->
    if meth <> "GET" then begin
      Obs.Metrics.incr (scrape_counter "bad");
      response ~status:"405 Method Not Allowed" ~content_type:"text/plain"
        "only GET is served here\n"
    end
    else begin
      (* strip any query string: /metrics?x=y scrapes /metrics *)
      let path =
        match String.index_opt path '?' with
        | None -> path
        | Some i -> String.sub path 0 i
      in
      let serve endpoint f =
        Obs.Metrics.incr (scrape_counter endpoint);
        match f () with
        | resp -> resp
        | exception e ->
          response ~status:"500 Internal Server Error"
            ~content_type:"text/plain"
            (Printexc.to_string e ^ "\n")
      in
      match path with
      | "/metrics" ->
        serve "metrics" (fun () ->
            response ~status:"200 OK"
              ~content_type:"text/plain; version=0.0.4"
              (source.metrics ()))
      | "/healthz" ->
        serve "healthz" (fun () ->
            let healthy, detail = source.healthz () in
            json_response
              ~status:(if healthy then "200 OK" else "503 Service Unavailable")
              detail)
      | "/statusz" ->
        serve "statusz" (fun () ->
            json_response ~status:"200 OK" (source.statusz ()))
      | _ ->
        Obs.Metrics.incr (scrape_counter "not_found");
        response ~status:"404 Not Found" ~content_type:"text/plain"
          "known endpoints: /metrics /healthz /statusz\n"
    end
  | _ -> bad_request (Printf.sprintf "cannot parse request line %S" line)

(* --- connection state machine ------------------------------------------ *)

let max_request_bytes = 8192

type conn = { buf : Buffer.t }

let conn () = { buf = Buffer.create 256 }

let headers_complete s =
  let n = String.length s in
  let rec go i =
    if i + 1 >= n then None
    else if s.[i] = '\n' && s.[i + 1] = '\n' then Some (i + 2)
    else if
      i + 3 < n
      && s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
      && s.[i + 3] = '\n'
    then Some (i + 4)
    else go (i + 1)
  in
  go 0

let feed source c data =
  Buffer.add_string c.buf data;
  if Buffer.length c.buf > max_request_bytes then
    `Bad (bad_request "request too large")
  else begin
    let s = Buffer.contents c.buf in
    match headers_complete s with
    | Some _ -> `Respond (handle_request source s)
    | None -> `More
  end

let looks_like_http data =
  let starts p =
    String.length data >= String.length p
    && String.sub data 0 (String.length p) = p
  in
  starts "GET " || starts "HEAD " || starts "POST " || starts "PUT "

(* --- dedicated listener ------------------------------------------------ *)

type t = {
  source : source;
  sock : Unix.file_descr;
  a_port : int;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable accepting : bool;  (* false after EMFILE/ENFILE on accept *)
}

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      match Unix.write_substring fd s off (len - off) with
      | 0 -> ()
      | k -> go (off + k)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  go 0

let create ?(port = 0) source =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 16;
  let a_port =
    match Unix.getsockname sock with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> port
  in
  { source; sock; a_port; conns = Hashtbl.create 8; accepting = true }

let port t = t.a_port

let fds t =
  let conns = Hashtbl.fold (fun fd _ acc -> fd :: acc) t.conns [] in
  if t.accepting then t.sock :: conns else conns

let owns t fd = fd == t.sock || Hashtbl.mem t.conns fd

let resume_accepting t = t.accepting <- true

let drop t fd =
  Hashtbl.remove t.conns fd;
  resume_accepting t;
  try Unix.close fd with Unix.Unix_error _ -> ()

let handle_ready t fd =
  if fd == t.sock then begin
    match accept t.sock with
    | `Client cfd -> Hashtbl.replace t.conns cfd (conn ())
    | `Refused -> ()
    | `Exhausted -> t.accepting <- false
  end
  else
    match Hashtbl.find_opt t.conns fd with
    | None -> ()
    | Some c ->
      let buf = Bytes.create 4096 in
      (match Unix.read fd buf 0 (Bytes.length buf) with
       | 0 -> drop t fd
       | k ->
         (match feed t.source c (Bytes.sub_string buf 0 k) with
          | `More -> ()
          | `Respond resp | `Bad resp ->
            write_all fd resp;
            drop t fd)
       | exception
           Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
       | exception Unix.Unix_error _ -> drop t fd)

let poll ?(timeout = 0.) t =
  match Unix.select (fds t) [] [] timeout with
  | ready, _, _ -> List.iter (handle_ready t) ready
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let close t =
  Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.conns;
  Hashtbl.reset t.conns;
  try Unix.close t.sock with Unix.Unix_error _ -> ()
