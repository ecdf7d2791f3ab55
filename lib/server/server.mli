(** The concurrent secure-query server: the paper's Fig. 3
    client/server architecture as a long-lived daemon.

    One server wraps one {!Secview.Pipeline.Service} (a document DTD
    plus one security view per user group, immutable and shared) and
    its {!Secview.Catalog} of named documents, and speaks {!Protocol}
    — line-delimited JSON — over any number of Unix-domain and TCP
    listeners.

    {b Execution model: domain per worker.}  One acceptor {e thread}
    per listener and one thread per connection (they only parse,
    enforce the session handshake, and run admission control — I/O
    bound work that multiplexes fine on one domain), but the request
    execution pool is [domains] {e OCaml domains}, each spawned with
    its own {!Secview.Pipeline.Session} — private translation/plan/
    admission caches, no locks on the hot read path — all popping one
    bounded queue ({!Bqueue}).  With [domains = 1] the worker and the
    update coordinator run as plain threads on the calling domain
    instead — a single-domain server keeps the pre-domain execution
    model and pays no cross-domain hand-off per request.  If the queue is full the client gets
    an [overloaded] reply immediately; the server never buffers
    without bound.  Nor does a connection: a request line longer
    than 1 MiB is answered once with [bad_request] (counted as
    [server.rejected.oversized]) and the connection is closed.
    Workers fill the request's reply cell; the
    connection thread awaits it up to the per-request [deadline] and
    answers [timeout] if the cell stays empty — the computation
    itself is not killed, so a stale result is accounted as [late]
    when it lands.  Requests whose deadline expired while still
    queued are answered [timeout] without burning a worker.

    {b Admission fast path.}  A query the admission analyzer proves
    empty ({!Secview.Pipeline.Session.classify} says [Denied_empty])
    is answered on the connection thread with the empty result set —
    byte-identical to the worker's reply — without queueing, planning
    or touching the document.  It is counted as
    [server.admission.denied] and audited with status [denied_empty]
    and the witness explanation.  Only a process that links the
    analyzer ([Sanalysis.Semantic]) gets such verdicts.

    {b Writes.}  Updates never enter the read pool: they are routed
    to a dedicated queue popped by a single {e coordinator} domain,
    which serializes every check-to-swap in the process — the
    per-document writer-lock table of the threaded design is gone.
    Readers pin catalog snapshots and are never torn by a swap; no
    session cache needs evicting, since translations and plans never
    depend on document content.

    {b Observability.}  Counters ([server.accepted],
    [server.rejected.*], [server.timeout], [server.done.*]) and
    per-group latency series ([server.latency_ms.<group>], queue wait
    included), and one queue-wait series per verb
    ([server.queue_wait_ms.query], [.explain], [.update], [.sleep]:
    submission to the moment a worker or the coordinator pops the
    job; constant names, never per group) land in one
    {!Sobs.Metrics} registry, which takes its own lock; every scrape
    — the [stats] and [metrics] verbs, [GET /metrics] — reads a
    {!Sobs.Metrics.snapshot} of it, so a reader can never observe a
    half-updated histogram.  The merged per-group
    {!Secview.Pipeline.stats} of every session (one per domain plus
    the connection-side admission session) are the only count of
    translation-cache, plan-cache and admission traffic: each scrape
    adds them as [pipeline.<family>.<group>] counters
    ({!Secview.Pipeline.stats_counters}), the same names whether or
    not a tracer is installed, and the [stats] reply renders the same
    record in its [cache] and [admission] sections.  Every request
    ends in one {!Sobs.Request.t},
    built once at whichever exit it took — worker, expired in queue,
    admission fast path, overload refusal — and handed to one
    fan-out that writes each enabled sink as a projection of it: the
    audit record (["request"], or ["update"]/["update_denied"] for a
    write; stamped with the session's group and peer), the
    flight-recorder entry, the capture record and the slow-query
    record, so every sink agrees field by field.  Each sink
    serializes its own writes.  The debug [sleep] reaches no sink.  A {!Metrics_http} listener exposes
    the snapshot over HTTP as OpenMetrics text ([GET /metrics], see
    {!Sobs.Export}); runtime gauges — queue depths/capacity, live
    connections, busy workers, uptime, the acceptor domain's GC
    figures — are sampled at scrape time into the snapshot itself.

    {b Runtime health.}  With [runtime] (a started {!Sobs.Runtime}
    consumer, the CLI's [--runtime-events]) every scrape also absorbs
    per-domain GC telemetry — [gc.pause_seconds.d<i>] histograms,
    collection/allocation counters, [runtime.domains_live] — merged
    under the consumer's lock, torn-free like the registry.  Each
    answered query whose spans were recorded is stamped with
    [gc_pause_ms]/[gc_pauses] ({!Sobs.Request.gc_overlap} of the pause
    windows against the request's span window; [null] when not
    measured) in its flight-recorder entry and slow-query audit
    record, and the [stats] verb gains a
    ["runtime"] section with per-domain pause quantiles.  The
    consumer is stopped when {!serve} drains.  Runtime telemetry is
    per domain, never per group — a group cannot learn whether
    another group's traffic caused GC pressure.

    {b Request correlation.}  Every request carries a rid — the
    client's ["rid"] field when supplied, a server-generated
    [r<session>-<n>] otherwise — stamped into the reply (success and
    error alike), every audit record ([request], [slow_query],
    including [late]/[overloaded]/[denied_empty] outcomes), the
    flight-recorder entry, and any capture record, so one request is
    traceable across every surface.

    {b Slow queries.}  With [slow_ms = Some t] every query a worker
    ran slower than [t] milliseconds (queue wait included) also writes a
    ["slow_query"] audit record carrying the translated query, the
    plan's per-operator work totals, and — when the server was
    created with a [tracer] — per-stage wall-clock totals attributed
    to exactly that request (the worker runs it inside a synthetic
    ["request"] root span; see {!Sobs.Tracer.with_request}).

    {b Flight recorder.}  With [recorder] every query, explain and
    update — answered, refused, expired, denied at admission or shed
    by the overload check — appends its request record (rid,
    principal, query, document version, span tree, operator counts,
    answer digest, outcome) to the fixed-size ring; the
    session-less [flight] verb dumps it, and with [flight_snapshot]
    the ring is written to that file whenever a queued request ends
    in error/timeout/late or over the slow threshold (never for a
    fast-path denial or an overload refusal).

    {b Capture.}  With [capture] every answered query, fast-path
    denial and admitted write appends one replayable {!Sobs.Capture}
    JSONL record ({!Sobs.Capture.of_request}) — rid, group, query,
    answer digest, latency — for [secview replay]; the sink is closed
    on drain.

    {b Drain.}  [shutdown] (after replying) and SIGINT (via
    {!install_sigint}) both {!request_drain}: stop accepting, let
    worker domains finish everything already admitted, answer
    [draining] to everything else, hang up, flush and close the audit
    log, return from {!serve}.  *)

type config = {
  domains : int;  (** worker-domain pool size (≥ 1) *)
  queue_capacity : int;  (** admission-control bound (≥ 1) *)
  deadline : float option;  (** per-request seconds, queue wait included *)
  debug : bool;  (** honour the [sleep] test command *)
  slow_ms : float option;
      (** audit queries slower than this many milliseconds (default
          [None] = off); implies collecting plan operator counts *)
}

val default_config : config
(** One worker domain per core ([Domain.recommended_domain_count]),
    queue of 64, no deadline, no debug, no slow-query log. *)

type listener =
  | Unix_socket of string  (** path; replaced if present, removed on drain *)
  | Tcp of string * int
      (** host (a name or address, [""] = loopback, as {!Conn.inet_addr})
          and port *)
  | Metrics_http of string * int
      (** an HTTP/1.0 scrape endpoint: [GET /metrics] answers the
          OpenMetrics exposition of the server's merged snapshot;
          every other path is 404.  Host as for {!Tcp}. *)

type t

val create :
  ?config:config ->
  ?audit:Sobs.Audit_log.t ->
  ?metrics:Sobs.Metrics.t ->
  ?tracer:Sobs.Tracer.t ->
  ?recorder:Sobs.Recorder.t ->
  ?runtime:Sobs.Runtime.t ->
  ?flight_snapshot:string ->
  ?capture:Sobs.Capture.t ->
  Secview.Pipeline.Service.t ->
  t
(** The catalog is the service's ({!Secview.Pipeline.Service.catalog}):
    register documents there.  [audit] is closed (hence flushed) when
    {!serve} drains.  [metrics] is the registry the server counts
    into (default: a fresh one): pass the registry an installed
    [tracer] feeds its stage series into, and both appear in one
    exposition.  [tracer] enables per-stage timings in slow-query
    records; it must be the process's installed tracer (see
    {!Sobs.Tracer.install}) — create it with [~retain:false] so span
    memory stays bounded (each thread's spans are dropped when its
    outermost span closes).  [recorder] enables the
    flight ring and the [flight] verb (per-request spans additionally
    require [tracer]); [runtime] enables per-domain GC telemetry and
    GC-aware request attribution (the server owns it from here on and
    stops it on drain; attribution additionally requires [tracer] —
    no spans, no window); [flight_snapshot] is the auto-snapshot file
    (only meaningful with [recorder]); [capture] streams the answered
    workload as replayable JSONL. *)

val serve : t -> listener list -> unit
(** Bind the listeners and block until a drain completes.  Call from
    the main thread (or a dedicated one — tests do); worker domains
    are spawned here and joined before returning, and the drain waits
    for every connection thread to finish.  Sets SIGPIPE to ignored
    for the process: a client that hangs up before reading its reply
    costs only its own connection (the write fails with [EPIPE]).
    @raise Invalid_argument on an empty listener list;
    @raise Conn.Error if a listener's host does not resolve;
    @raise Unix.Unix_error if a listener cannot bind. *)

val request_drain : t -> unit
(** Begin graceful drain; idempotent, callable from any thread and
    from a signal handler (one atomic store + one pipe write). *)

val install_sigint : t -> unit
(** Route SIGINT to {!request_drain}, making [Ctrl-C] a graceful
    drain with exit status 0. *)

val metrics : t -> Sobs.Metrics.t
(** One consistent snapshot: a copy of the server's registry, the
    sessions' merged counters as [pipeline.<family>.<group>]
    ({!Secview.Pipeline.stats_counters}; each fact once, with the
    values of the [stats] reply's [cache] and [admission] sections),
    and runtime gauges sampled now.  A fresh registry each call —
    mutating it affects nothing. *)

val openmetrics : t -> string
(** The OpenMetrics exposition a {!Metrics_http} scrape returns:
    {!Sobs.Export.openmetrics} of {!metrics}.  Exposed for embedders
    running their own HTTP stack. *)
