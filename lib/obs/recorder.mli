(** In-memory flight recorder: the last N completed requests in full
    fidelity.

    Aggregate telemetry ({!Metrics}, the audit log) tells you that
    something was slow; the flight recorder tells you {e which
    request} — id, principal (session/peer/group), query, document
    version, admission verdict, per-stage {!Tracer.span}s,
    plan-operator counts, answer digest, and outcome — for the most
    recent window of traffic, without any I/O on the request path.
    It keeps the {!Request.t} records themselves; a flight entry is
    their projection ({!to_json}).

    The ring is fixed-size and thread-safe (a private mutex, as the
    audit log and capture sinks have theirs).  When full, the oldest
    entry is overwritten. *)

type t

val create : capacity:int -> t
(** Ring of at most [capacity] requests.  Raises [Invalid_argument] if
    [capacity <= 0]. *)

val capacity : t -> int
val record : t -> Request.t -> unit
val entries : t -> Request.t list
(** Retained requests, oldest first. *)

val length : t -> int
(** Requests currently retained ([<= capacity]). *)

val total : t -> int
(** Requests ever recorded (monotonic; [total - length] were evicted). *)

val clear : t -> unit

(** {2 Rendering} *)

val to_json : t -> Json.t
(** [{"flight":N,"capacity":C,"total":T,"entries":[…]}] with entries
    oldest first; each entry's spans carry [seq]/[parent] links. *)

val dump_file : t -> string -> unit
(** Write {!to_json} to a file (the [--flight-snapshot] sink). *)
