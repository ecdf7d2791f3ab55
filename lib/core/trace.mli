(** Observability probe points for the query pipeline.

    The core library stays free of clocks, sinks and serialization:
    this module only holds an injection point that the observability
    sublibrary ([Sobs], {e lib/obs}) fills in when the embedding
    application asks for tracing or metrics.

    The hook is a {e probe}: nested span enter/leave plus named counter
    and integer-observation events, fired by the instrumented stages
    ([derive], [rewrite], [optimize], [eval], the height memo).  Cache
    and admission traffic is not counted here: each
    {!Pipeline.Session} counts its own, once ({!Pipeline.stats}).
    Audit records are not produced here either: the embedding
    application builds one request record per request from the
    pipeline's return value and writes it itself.

    With no probe installed (the default) every operation here is a
    no-op that performs no allocation and no I/O: [span] applies its
    thunk directly, [count]/[value] return without touching their
    arguments, and the instrumented call sites guard any
    event-payload construction behind {!enabled}.  This is the
    overhead-when-disabled guarantee [test/test_obs.ml] pins down
    with [Gc.minor_words]. *)

type span_id = int

type probe = {
  enter : string -> span_id;
      (** Start a span named after a pipeline stage; returns a token
          [leave] must be called with.  Stage names in use: ["answer"],
          ["height"], ["translate"], ["rewrite"], ["unfold"],
          ["optimize"], ["plan"], ["derive"], ["eval"], ["admission"],
          and on the write path ["admit"] (the update admission
          check), ["splice"] (the edit that builds the new version
          and its index, inside ["admit"]) and ["digest"] (the receipt's view digest). *)
  leave : span_id -> unit;
  count : string -> int -> unit;  (** Add to a named counter. *)
  value : string -> int -> unit;
      (** Record one integer observation under a named series (e.g.
          unfolding height, evaluator nodes visited). *)
}

val set_probe : probe -> unit
val clear_probe : unit -> unit

val enabled : unit -> bool
(** [true] iff a probe is installed.  Call sites
    use it to guard argument construction that would itself allocate
    (string concatenation, deltas). *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a probe span.  With no probe
    installed this is exactly [f ()].  The span is closed on exceptions
    too. *)

val count : string -> int -> unit
val value : string -> int -> unit
