(** The client side of {!Protocol}: one connection to a running server,
    one JSON object per line both ways.

    Every JSON-line client goes through here — [secview client],
    [flight], [top], [replay] and [metrics] against a live server, and
    the socket tests — so addressing, the [--wait] retry, line framing
    and the two ways a remote call fails (nobody is listening; the
    server hangs up before replying) are mapped once, to {!Error}. *)

exception Error of string
(** The remote call failed: no server at the address (nothing
    listening, or the [wait] ran out), the host does not resolve, the
    server closed the connection before replying, or the reply is not
    JSON.  The message names the address. *)

type t

val inet_addr : string -> Unix.inet_addr
(** A host name or dotted address; [""] is the loopback.
    @raise Error when the name does not resolve. *)

val address :
  socket:string option -> tcp:int option -> host:string -> Unix.sockaddr
(** The server a client's [--socket PATH] or [--tcp PORT] (with
    [--host HOST]) names.
    @raise Error unless exactly one of [socket] and [tcp] is given. *)

val connect : ?wait:float -> Unix.sockaddr -> t
(** Connect, retrying a refused or absent endpoint every 20 ms for up
    to [wait] seconds (default 0: one attempt).  Ignores SIGPIPE for
    the process, so a write to a server that hung up raises {!Error}
    instead of killing the client.
    @raise Error when no server answers in time. *)

val with_connection : ?wait:float -> Unix.sockaddr -> (t -> 'a) -> 'a
(** [connect], run the function, close — also when it raises. *)

val fd : t -> Unix.file_descr

val write_all : Unix.file_descr -> string -> unit
(** Write every byte, looping over short writes; [Unix.Unix_error]
    propagates.  The server's reply writer too. *)

val write : t -> string -> unit
(** {!write_all} on the connection.  @raise Error if the server hung
    up. *)

val send_line : t -> string -> unit
(** [line] and a newline, verbatim. *)

val send : t -> Sobs.Json.t -> unit

val recv_line : t -> string
(** The next reply line, verbatim.  @raise Error at end of stream. *)

val recv : t -> string * Sobs.Json.t
(** The next reply line and its parse.  @raise Error at end of stream
    or on a line that is not JSON. *)

val call : t -> Sobs.Json.t -> string * Sobs.Json.t
(** [send] then [recv]: one request, one reply. *)

val read_all : t -> string
(** Everything up to end of stream (for an HTTP/1.0 response). *)

val close : t -> unit
(** Idempotent; never raises. *)
