(** Span recorder: the observability side of {!Secview.Trace}.

    A tracer implements the core probe interface with a monotonic (or
    fake) clock: [enter]/[leave] events become nested {!span}s,
    [count]/[value] events feed the attached {!Metrics} registry
    (span durations are also recorded there, as series named
    [stage.<name>], in milliseconds).

    Recording is {e per thread}: each thread keeps its own span stack
    and completed list, and every root span (one per request in the
    server) is stamped with a fresh [trace_id].  Spans form a
    hierarchy: each carries the [seq] of its [parent] span (the frame
    that was open when it started), [None] at the root.  {!drain_new}
    and {!with_request} read only the calling thread's spans, so
    concurrent workers never mix each other's stages into one request
    record.

    Install one with {!install} and the instrumented pipeline stages
    ([derive], [rewrite], [unfold], [optimize], [translate], [height],
    [plan], [eval], [answer]) start recording; {!uninstall} restores
    the null probe and the zero-overhead default. *)

type span = {
  name : string;
  seq : int;  (** start order: [seq] of an outer span < its inner spans *)
  parent : int option;
      (** [seq] of the enclosing span on the same thread, [None] at the
          root — the span hierarchy of one request *)
  depth : int;  (** nesting depth at entry, outermost = 0 *)
  tid : int;  (** {!Thread.id} of the recording thread *)
  trace_id : int;  (** request scope: shared by a root span and its children *)
  start_ns : int64;
  stop_ns : int64;
}

type t

val create :
  ?clock:Clock.t -> ?metrics:Metrics.t -> ?retain:bool -> unit -> t
(** Default clock: {!Clock.monotonic}.  Without [metrics], only spans
    are recorded.  [retain] (default [true]) keeps every span for
    {!spans}/{!pp}.  With [~retain:false] a thread's spans are dropped
    when its outermost span closes ({!with_request} has taken its
    request's spans by then), and so is the thread's table entry, so
    a long-lived tracer (the server's) holds only the spans of
    requests still running. *)

val lock : t -> Mutex.t
(** The mutex guarding this tracer (and its metrics observations); an
    embedder that feeds the same registry from elsewhere adopts it (the
    server does). *)

val probe : t -> Secview.Trace.probe

val install : t -> unit
(** [Secview.Trace.set_probe (probe t)]. *)

val uninstall : unit -> unit

val spans : t -> span list
(** Completed spans of all threads, in start order. *)

val reset : t -> unit

val drain_new : t -> span list
(** The calling thread's spans completed since its previous
    [drain_new] (or since creation/reset), in completion order.  With
    [~retain:false] the drained spans are also discarded; such a
    tracer keeps only the spans of a still-open outermost span, so
    that is all a drain can see.  Per-request attribution is
    {!with_request}'s job. *)

val with_request : ?name:string -> t -> (unit -> 'a) -> 'a * span list
(** [with_request t f] runs [f] inside a synthetic root span (default
    name ["request"]) on the calling thread and returns [f]'s result
    together with {e every} span of that request's trace — the root
    plus all descendants, linked by [parent] and sorted by [seq].
    On a retaining tracer it is non-destructive: it neither moves the
    {!drain_new} watermark nor removes the spans, so {!spans} (the
    Chrome-trace exporter) still sees them; a non-retaining one drops
    them once they are returned.  The root span is closed (and the spans still returned)
    even when [f] raises.  Call it with an empty span stack: nested
    under another open span the "root" joins the enclosing trace
    instead of starting one. *)

val stage_totals : span list -> (string * float) list
(** Total duration in milliseconds per span name, sorted by name. *)

val pp : Format.formatter -> t -> unit
(** Indented span tree with durations. *)
