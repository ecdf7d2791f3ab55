(** Per-request security audit log: one JSON record per line (JSONL).

    An access-control system owes its administrators an account of
    what was asked, what ran against the document and how it ended.
    Every request — served by [secview serve] or answered by the
    [secview query] and [secview update] commands — becomes one record
    built from its {!Request.t}: the requesting group, the view query
    as asked, the document query actually evaluated, the status, the
    result count and the error if the request failed.

    The same stream also carries static-analysis diagnostics
    ({!log_diagnostic}: [secview lint] and the strict construction
    gate route through here), so audit and lint output can be
    collected from one place.  Record schemas, discriminated by the
    ["type"] field:

    {v
    {"type":"diagnostic","ts_ns":…,"code":…,"severity":…,"subject":…,
     "message":…}
    {"type":"note","ts_ns":…,"kind":…,"message":…}
    {"type":"request","ts_ns":…,["rid":S,]["session":N,"peer":…,]
     "group":…,"doc":…,"query":…,"translated":S|null,
     "status":"ok"|"error"|"timeout"|"late"|"overloaded"|"denied_empty",
     "results":N,"latency_ms":F,"error":S|null}
    {"type":"slow_query","ts_ns":…,["rid":S,]["session":N,"peer":…,
     "doc":…,]"group":…,"query":…,"translated":S|null,"latency_ms":F,
     "threshold_ms":F,"stages_ms":{…},"op_counts":{"scanned":N,…},
     "gc_pause_ms":F|null,"gc_pauses":N|null}
    {"type":"update"|"update_denied","ts_ns":…,["rid":S,]["session":N,
     "peer":…,]"group":…,"doc":…,"update":…,"status":S,"targets":N|null,
     "old_version":N|null,"new_version":N|null,"latency_ms":F,
     "error":S|null}
    v}

    The ["request"], ["update"]/["update_denied"] and ["slow_query"]
    records are projections of one {!Request.t} — the same record the
    flight recorder keeps and {!Capture.of_request} turns into a
    replay record — so every surface agrees on rid, group, document,
    query, status, results and latency.  ["rid"] is the
    request-correlation id stamped into the protocol reply (the CLI
    numbers its queries [q1], [q2], …); the server's records also
    carry the session and peer — the who-asked-what trail a
    multi-user deployment owes its administrators.  Per-request stage
    timings ride the ["slow_query"] record only.  A log serializes its
    own writes: any thread or domain may call [log_*], and each record
    is one whole line.

    Timestamps are readings of the log's clock (monotonic by default:
    an arbitrary epoch, deterministic under {!Clock.fake}). *)

type sink =
  | Stderr
  | Channel of out_channel
  | Buffer of Buffer.t  (** for tests *)

type t

val create : ?clock:Clock.t -> sink -> t

val open_file : ?clock:Clock.t -> string -> t
(** Append-mode file sink; {!close} flushes and closes it. *)

val close : t -> unit
(** Flush; close the channel iff {!open_file} opened it. *)

val log_diagnostic :
  t -> code:string -> severity:string -> subject:string -> string -> unit
val log_note : t -> kind:string -> string -> unit

val log_request : t -> Request.t -> unit
(** One ["request"] record: a query or explain (or a write shed before
    it ran) with its status ∈ ok/error/timeout/late/overloaded/
    denied_empty; [translated] is the document query that ran ([null]
    when nothing was translated: a failed translation, an explain, a
    fast-path denial or a refusal); [latency_ms] includes queue
    wait. *)

val log : t -> Request.t -> unit
(** The request's audit record: for a write that ran, kind
    ["update"] when it was admitted (with its
    [old_version → new_version] transition and target count from
    {!Request.t.write}) or ["update_denied"] when refused (the error
    carries the typed reason), so a denied write is distinguishable
    from a denied query; {!log_request} for everything else (a write
    shed by the overload check never ran).  The server and the CLI
    audit through this. *)

val log_slow_query : t -> threshold_ms:float -> Request.t -> unit
(** One ["slow_query"] record — emitted by [query --slow-ms] and
    [serve --slow-ms] for any query over [threshold_ms].  Its
    ["stages_ms"] are the per-stage millisecond totals
    ({!Tracer.stage_totals}) of the request's own spans, ["op_counts"]
    the plan engine's operator totals (empty for the interpreter),
    and ["gc_pause_ms"]/["gc_pauses"] the request's {!Request.gc_overlap}
    ([null] when not measured — absent is distinguishable from a
    measured zero).  The server's records also carry session, peer
    and document. *)
