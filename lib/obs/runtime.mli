(** Runtime health: a consumer for OCaml 5 [Runtime_events] that turns
    GC events and domain lifecycle into per-domain metrics and
    queryable pause windows.

    One consumer covers the whole process: [Runtime_events] gives
    every domain its own ring buffer, and a single cursor (drained by
    one polling thread) sees them all, tagged with the ring id.  Per
    ring, the consumer turns [EV_MINOR] and [EV_MAJOR_SLICE]
    begin/end pairs — the two phases that actually stop the mutator
    on a domain — into:

    - [gc.pause_seconds.d<i>] histograms (plus an all-domain
      [gc.pause_seconds] aggregate) over a 1µs – 2.5s ladder,
    - [gc.minor_collections.d<i>] / [gc.major_slices.d<i>] counters,
    - [gc.minor_allocated_words.d<i>] / [gc.promoted_words.d<i>]
      counters and a [gc.heap_words.d<i>] gauge from the runtime's own
      per-domain counter events — the numbers a scrape-time
      [Gc.quick_stat] on the acceptor thread cannot see,
    - [runtime.domains_live] / [runtime.events_lost] health gauges.

    All state lives behind one private mutex; {!absorb_into} merges
    the registry into a scrape snapshot under it, so a scrape can
    never observe a half-updated histogram.  Recent pause windows are
    kept in a fixed ring for {!overlap} — GC-aware latency
    attribution: given a request's span window, how many pause
    episodes intersected it and for how many milliseconds.  Windows
    are {e unioned} before measuring (a stop-the-world minor pause
    appears on every domain's ring; summing would bill it once per
    domain).  The consumer is passed explicitly to whoever attributes:
    {!Request.gc_overlap} stamps a request record from its spans.

    Timebase: [Runtime_events] timestamps and {!Clock.monotonic} both
    read the system monotonic clock in nanoseconds, so pause windows
    and {!Tracer.span} windows compare directly.

    Per-group query counters deliberately stay out of this module:
    runtime telemetry is global per domain, never partitioned by
    security group, so a group cannot learn from a scrape whether
    {e another} group's hidden-region traffic caused GC pressure —
    the same no-leakage discipline the audit log applies to denial
    messages. *)

type kind =
  | Minor  (** stop-the-world minor collection *)
  | Major_slice  (** one domain's incremental major mark/sweep slice *)

val kind_label : kind -> string
(** ["minor"] / ["major_slice"]. *)

type pause = { domain : int; kind : kind; start_ns : int64; stop_ns : int64 }
(** One mutator pause on one domain's ring, in monotonic clock ns. *)

type t

val start : ?capacity:int -> ?interval:float -> unit -> t
(** Start event collection ([Runtime_events.start]), open a cursor on
    this process, and spawn the polling thread (period [interval]
    seconds, default 0.01).  [capacity] (default 2048) bounds the
    retained pause-window ring.  Raises [Invalid_argument] if
    [capacity <= 0]. *)

val offline : ?capacity:int -> unit -> t
(** A consumer with no cursor and no polling thread: pauses arrive
    only via {!inject_pause}.  The deterministic constructor for unit
    tests and the A/B bench harness. *)

val stop : t -> unit
(** Final cursor drain, stop and join the polling thread, free the
    cursor.  Idempotent; the metrics registry and retained pause ring
    stay readable after. *)

val absorb_into : into:Metrics.t -> t -> unit
(** Drain, then merge the consumer's registry into [into] under the
    consumer lock — the scrape-time merge, torn-free like
    {!Metrics.snapshot}. *)

val pauses : t -> pause list
(** Retained pause windows, oldest first. *)

val overlap : t -> start_ns:int64 -> stop_ns:int64 -> float * int
(** [(ms, episodes)]: the union of retained pause windows clipped to
    [[start_ns, stop_ns]] in milliseconds, and how many disjoint pause
    episodes contributed.  Drains the cursor first, so a pause that
    ended just before the query is visible. *)

val inject_pause :
  t -> domain:int -> kind:kind -> start_ns:int64 -> stop_ns:int64 -> unit
(** Record a synthetic pause through the real event path (metrics and
    ring included) — deterministic pause windows for tests and the
    bench harness. *)

val to_json : t -> Json.t
(** [{"enabled":true,"domains_live":…,"events_lost":…,
    "pauses_total":…,"gc_pause_ms":{"d0":{…},…}}] — the [stats] verb's
    runtime section (pause quantiles converted to milliseconds). *)
