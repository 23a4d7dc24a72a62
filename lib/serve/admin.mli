(** The daemon's live telemetry endpoint: a deliberately minimal
    HTTP/1.0 responder for [GET /metrics], [GET /healthz] and
    [GET /statusz].

    Two integration shapes, both non-blocking and select-friendly:

    - a dedicated listener ({!create} / {!fds} / {!handle_ready}),
      multiplexed into the daemon's existing select loop on its own
      [--admin-port];
    - protocol hijack on the main frame port: a connection whose first
      bytes {!looks_like_http} is handed to a {!conn} and answered
      in-line, so every running [chc_serve listen] is scrapable with
      no extra configuration.

    One request per connection ([Connection: close]), no keep-alive,
    no chunked encoding, GET only — a scrape target, not a web server.
    Responses are produced by the {!source} thunks, which run on the
    select-loop thread between pump rounds (the decision record in
    DESIGN §2 explains why there is deliberately no admin thread). *)

type source = {
  metrics : unit -> string;
      (** Prometheus text exposition ([text/plain; version=0.0.4]) *)
  healthz : unit -> bool * Codec.Json.t;
      (** liveness: [(healthy, detail)] — unhealthy renders as 503 so
          orchestrators can act on status alone *)
  statusz : unit -> Codec.Json.t;
      (** the full JSON status page *)
}

val handle_request : source -> string -> string
(** [handle_request source text] maps one raw request (everything up
    to the header-terminating blank line) to a complete HTTP/1.0
    response: 200 on the three known paths, 404 on other paths, 405 on
    non-GET methods, 400 on requests that do not parse, 500 (with the
    exception text) if a source thunk raises. *)

(** {1 Connection state machine} *)

type conn

val conn : unit -> conn

val feed :
  source -> conn -> string -> [ `More | `Respond of string | `Bad of string ]
(** Buffer request bytes. [`More]: headers incomplete, keep reading.
    [`Respond r]: write [r] and close. [`Bad r]: same, but the request
    was oversized (> 8 KiB) or garbled — [r] is a 400. *)

val looks_like_http : string -> bool
(** Do these first bytes of a fresh connection start an HTTP request
    (["GET "] / ["HEAD "] / ["POST "] / ["PUT "])? Distinguishes
    scrapers from frame clients on the shared port. Never true of a
    length-prefixed {!Frame} stream shorter than 2^28 bytes: an
    ASCII-uppercase first byte implies a length >= 0x47 with
    continuation bits spelling the rest of the method name. *)

(** {1 Dedicated listener} *)

type t

val create : ?port:int -> source -> t
(** Bind and listen on [127.0.0.1:port] (default 0: ephemeral — read
    back with {!port}). *)

val port : t -> int

val fds : t -> Unix.file_descr list
(** The listener plus every open admin connection — add these to the
    daemon's select read set. The listener is left out while accepting
    is paused (see {!handle_ready}). *)

val owns : t -> Unix.file_descr -> bool

val handle_ready : t -> Unix.file_descr -> unit
(** Advance one fd select reported ready: {!accept} on the listener,
    or read-and-maybe-respond on a connection. Connections close after
    one response; I/O errors just drop the peer. When the process is
    out of descriptors the listener pauses until one of its
    connections closes or {!resume_accepting}. *)

val resume_accepting : t -> unit
(** Put the listener back in {!fds} — the daemon calls this when it
    releases a descriptor of its own. *)

(** {1 Accepting within select(2)'s reach} *)

val accept :
  Unix.file_descr -> [ `Client of Unix.file_descr | `Refused | `Exhausted ]
(** Accept one connection on a listening socket. [`Client fd]: a
    connection select(2) can watch. [`Refused]: nothing to serve — the
    connection's descriptor was at or past FD_SETSIZE, so it was closed
    at once, logged ([connection_refused]) and counted in
    [chc_serve_connections_refused_total], or accept failed
    transiently. [`Exhausted]: the process or system is out of
    descriptors (EMFILE/ENFILE); the caller should stop polling the
    listener until it releases one, or the still-readable listener
    spins its select loop. *)

val poll : ?timeout:float -> t -> unit
(** Self-contained pump: select over {!fds} with [timeout] (default 0)
    and {!handle_ready} everything ready — for drivers without their
    own select loop (tests, [chc_serve drive]). *)

val close : t -> unit
(** Close the listener and every connection. *)
