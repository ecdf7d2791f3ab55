(** A metrics registry: named counters, gauges and fixed-bucket
    histograms.

    Counters are monotonically increasing integers (translation-cache
    hits and misses per group, …); gauges are instantaneous values set
    by the owner on read (queue depth, heap words); series are
    histograms over a fixed bucket ladder, collected per observation
    (per-stage durations in milliseconds, evaluator nodes visited).

    The bucket ladder is the {e single} source of truth: the
    percentiles in {!summary} are nearest-rank estimates read from the
    cumulative buckets (clamped to the exact observed min/max), and
    {!Export.openmetrics} exposes the same buckets as a Prometheus
    histogram — so the human dump and the scraped series can never
    disagree.

    A registry has no global registration.  It takes its own lock, so
    any thread or domain may write it while another reads: the CLI and
    tests create one per run and hand it to a {!Tracer}, and the
    server's workers, connection threads and tracer all write the one
    registry a scrape copies with {!snapshot}. *)

type t

type summary = {
  count : int;
  sum : float;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
}

val create : unit -> t

val incr : ?by:int -> t -> string -> unit
val counter : t -> string -> int
(** Current value; [0] for a counter never incremented. *)

val set_gauge : t -> string -> float -> unit
(** Set (creating if needed) an instantaneous value. *)

val default_buckets : float array
(** The default upper-bound ladder: 20 roughly logarithmic bounds from
    0.005 to 10000, sized for millisecond latencies. *)

val observe : ?buckets:float array -> t -> string -> float -> unit
(** Record one observation under [name].  [buckets] (ascending finite
    upper bounds; defaults to {!default_buckets}) takes effect only on
    the observation that creates the series and is ignored after. *)

val summary : t -> string -> summary option
(** [None] for a series with no observations.  [min]/[max]/[mean]/[sum]
    are exact; percentiles are bucket upper-bound estimates. *)

val buckets : t -> string -> (float * int) list
(** [(le, cumulative count)] per finite bound, ascending; the implicit
    [+Inf] bucket equals [summary.count].  [[]] for an unknown
    series. *)

val counters : t -> (string * int) list
(** All counters, sorted by name. *)

val gauges : t -> (string * float) list
(** All gauges, sorted by name. *)

val summaries : t -> (string * summary) list
(** All series, sorted by name. *)

val percentile : float array -> float -> float
(** Nearest-rank percentile of a {e sorted} non-empty array;
    [percentile a 50.] is the median.  Exposed for the bench
    harness, which keeps raw samples. *)

val pp : Format.formatter -> t -> unit
(** Sections [counters], [gauges] and [series]; prints nothing for an
    empty registry. *)

val to_json : t -> Json.t

val snapshot : t -> t
(** A copy taken under the registry's lock: no histogram in it is
    half-updated, and later writes to the original do not reach it.
    Each scrape reads one. *)

val absorb : into:t -> t -> unit
(** Merge a registry into another: counters add, gauges take the
    source's value, histograms add per-bucket.  A series whose bucket
    ladder differs from the destination's is dropped (ladders are
    frozen at creation; a mismatch is a caller bug, and corrupting
    buckets would be worse than losing them).  The source is copied
    first ({!snapshot}) and not modified. *)
