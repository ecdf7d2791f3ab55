(** The server's wire protocol: one JSON object per line, both ways.

    Requests, discriminated by ["cmd"]:

    {v
    {"cmd":"hello","group":G,"peer":P?}          bind the session to a group
    {"cmd":"query","query":Q,"doc":D?,           answer a view query
     "bind":{name:value,…}?}
    {"cmd":"explain","query":Q,"doc":D?,         EXPLAIN instead of answer
     "bind":{name:value,…}?}                     (same fields as query)
    {"cmd":"analyze","query":Q}                  static admission verdict only
    {"cmd":"update","update":U,"doc":D?,         run a view update
     "bind":{name:value,…}?}                     (transactional; see below)
    {"cmd":"stats"}                              server statistics
    {"cmd":"metrics"}                            metrics dump + OpenMetrics
    {"cmd":"flight"}                             flight-recorder dump
    {"cmd":"ping"}                               liveness
    {"cmd":"shutdown"}                           reply, then drain
    {"cmd":"sleep","ms":N}                       debug servers only
    v}

    Fields a request does not name here are ignored: the ["index"]
    flag older clients send with a query changes nothing.

    Every request may additionally carry a string ["rid"] — a
    client-chosen request-correlation id.  Replies always carry
    ["ok"], the protocol version ["v"], and a ["rid"] (echoing the
    client's, or server-generated [r<session>-<n>] otherwise):
    [{"ok":true,"v":1,"rid":R,…}] on success,
    [{"ok":false,"v":1,"rid":R,"code":C,"error":MSG}] on failure,
    where [code] is one of the constants below — [overloaded] is the
    admission-control reply and means "try again", not "goodbye".
    The same rid is stamped into the server's audit records and
    flight-recorder entries. *)

type query = {
  doc : string option;  (** catalog name; optional iff one document *)
  text : string;  (** the view query, fragment-C XPath *)
  bind : (string * string) list;  (** [$variable] bindings *)
}

type request =
  | Hello of {
      group : string;
      peer : string option;
    }
  | Query of query
  | Explain of query  (** same shape as a query; answered with a plan tree *)
  | Analyze of query
      (** same shape as a query; answered with the static admission
          verdict ({!Secview.Pipeline.classify}) — no document is
          touched, no evaluation runs *)
  | Update of query
      (** [text] holds the update's concrete syntax (the [update]
          wire field).  Runs through the worker pool like a query but
          serialized per document against other writers; an admitted
          update's reply carries the target count and the
          [old_version → new_version] transition, a rejected one is an
          [update_denied] / [invalid_update] error reply with nothing
          applied *)
  | Stats
  | Metrics
  | Flight  (** flight-recorder dump; session-less like [Metrics] *)
  | Ping
  | Shutdown
  | Sleep of float  (** seconds; only honoured by [--debug] servers *)

val request_of_line :
  string -> (request * string option, string * string option) result
(** Decode one line; the second component is the client-supplied
    ["rid"], if any.  A refusal carries a human-readable message, which
    becomes the [bad_request] reply's, and the client's ["rid"] when
    the line was at least a JSON object with a string ["rid"], so the
    error reply stays correlatable without decoding the line again. *)

(** {1 Error codes} *)

val bad_request : string
val unknown_group : string
val no_session : string
val unknown_document : string
val overloaded : string
val draining : string
val timeout : string
val query_error : string
val update_denied : string
val invalid_update : string

(** {1 Reply and request builders} *)

val ok : ?rid:string -> (string * Sobs.Json.t) list -> Sobs.Json.t
(** [{"ok":true,"v":1,"rid":R}] plus the given fields (rid omitted
    when absent — only the CLI's local drivers omit it). *)

val is_ok : Sobs.Json.t -> bool
(** Does the reply carry ["ok":true]? *)

val line : Buffer.t -> Sobs.Json.t -> string
(** A reply as it goes on the wire: its JSON and a newline, built in
    the buffer (cleared first).  The server writes every reply but an
    answer through here, each in a buffer owned by the thread that
    builds the reply, so the buffer is reused from one reply to the
    next. *)

val answer_line : Buffer.t -> rid:string -> Sxml.Tree.t list -> string
(** The reply to an answered query, as {!line} builds it — byte for
    byte [line buf (ok ~rid [("results", List rs); ("count", Int n)])]
    where [rs] are {!Sxml.Print.answer}'s strings of the nodes — but
    written in one pass: each node goes into the buffer already
    escaped as a JSON string ({!Sxml.Print.Json_string}), with no
    per-node string and no JSON value built. *)

val error_of : ?rid:string -> Secview.Error.t -> Sobs.Json.t
(** Error reply for a typed engine error: the code is
    {!Secview.Error.to_code}, the message {!Secview.Error.to_string}. *)

val hello : ?peer:string -> string -> Sobs.Json.t
val query_json :
  ?rid:string ->
  ?doc:string ->
  ?bind:(string * string) list ->
  string ->
  Sobs.Json.t
(** With [rid], the client picks the correlation id ([secview replay]
    re-sends the captured ids so a replayed request is traceable in
    both capture and live logs). *)

val update_json :
  ?rid:string ->
  ?doc:string ->
  ?bind:(string * string) list ->
  string ->
  Sobs.Json.t
(** An update command carrying the concrete update syntax. *)

val simple : string -> Sobs.Json.t
(** [{"cmd":CMD}] — for [stats], [metrics], [ping], [shutdown]. *)

val explain_fields :
  string -> Secview.Pipeline.explanation -> (string * Sobs.Json.t) list
(** The body of an explain reply for the query text: the admission
    verdict and its witness ([null] unless denied), the translated
    query, the engine, the unfolding height, the fallback reason, the
    result count, the document version and write generation, and the
    plan tree ([op], [arg] when present, [counts], [children] when
    non-empty).  The server's [explain] verb wraps it in {!ok};
    [secview explain --json] prints it bare. *)

val receipt_fields : Supdate.Engine.receipt -> (string * Sobs.Json.t) list
(** The body of an admitted write's reply: [op], [targets],
    [old_version], [new_version] and the [digest] of the writing
    group's view of the result.  Shared by the server's [update] verb
    and [secview update --json]. *)
