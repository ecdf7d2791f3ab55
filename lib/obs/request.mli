(** One record per request, read or write: who asked what, about which
    document version, and how it ended.

    The server builds one at each exit path (worker, expired in queue,
    admission fast path, overload) and the CLI's [query] and [update]
    commands build one per request; every sink is a projection of it —
    the flight-recorder entry ({!Recorder.to_json}), the audit
    records ({!Audit_log.log}, {!Audit_log.log_slow_query}) and the
    replay record
    ({!Capture.of_request}) — so they agree on every field they share.
    "Not measured" stays [None] (rendered [null]), distinct from a
    measured zero. *)

type write = {
  targets : int;
  old_version : int;
  new_version : int;
}
(** The receipt of an admitted write: its target count and version
    transition. *)

type t = {
  rid : string option;
      (** request-correlation id, as stamped in the reply; [None] for an
          uncorrelated library caller (the audit record then omits it) *)
  verb : string;  (** ["query"], ["explain"], ["update"] or ["sleep"] *)
  session : int option;  (** server session, [None] for CLI requests *)
  peer : string option;
  group : string;
  doc : string option;
      (** catalog name as requested; [None] = the requester's default *)
  doc_label : string option;  (** the name [doc] resolved to *)
  doc_version : int option;
      (** {!Secview.Catalog.version} the request ran against — the
          pinned snapshot's when it ran, the entry's current one
          otherwise *)
  query : string;  (** query text, or the update's concrete syntax *)
  bind : (string * string) list;
  admission : string option;  (** ["denied"] for fast-path denials *)
  status : string;
      (** ok/error/timeout/late/overloaded/denied_empty, or a refused
          write's error code *)
  error : string option;
      (** the error, the denial witness, or a refused write's detail *)
  results : int;  (** answer size, or a write's target count *)
  digest : string option;
      (** MD5 hex ({!Capture.digest}) of the rendered answer, or of the
          writing group's view of the new document; [None] when there
          is no answer to replay *)
  latency_ms : float;
  ts_ns : int64;  (** {!Clock.monotonic} when the record was built *)
  gc : (float * int) option;  (** {!gc_overlap} of [spans] *)
  spans : Tracer.span list;  (** this request's span tree *)
  counts : (string * int) list;  (** plan operator totals *)
  translated : string option;  (** the document query evaluated *)
  write : write option;
}

val make : verb:string -> group:string -> string -> t
(** [make ~verb ~group query]: a record stamped now with status
    ["ok"] and every other field empty; callers fill in the rest with
    [{ (make …) with … }]. *)

val gc_overlap : Runtime.t option -> Tracer.span list -> (float * int) option
(** Unioned GC pause milliseconds and pause episodes
    ({!Runtime.overlap}) inside the window the spans cover.  [None] —
    not measured — without a runtime consumer or without spans (no
    window to intersect). *)
