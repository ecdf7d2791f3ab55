(** Observability probe points for the query pipeline.

    The core library stays free of clocks, sinks and serialization:
    this module only holds injection points (the pattern of
    {!Pipeline.set_strict_gate}) that the observability sublibrary
    ([Sobs], {e lib/obs}) fills in when the embedding application asks
    for tracing, metrics or audit logging.

    Two independent hooks:

    - a {e probe} — nested span enter/leave plus named counter and
      integer-observation events, fired by the instrumented stages
      ([derive], [rewrite], [optimize], translation-cache lookup,
      [eval]);
    - an {e audit hook} — one structured {!audit_event} per
      {!Pipeline.answer} call.

    With neither installed (the default) every operation here is a
    no-op that performs no allocation and no I/O: [span] applies its
    thunk directly, [count]/[value] return without touching their
    arguments, and the instrumented call sites guard any
    event-payload construction behind {!enabled}/{!audit_enabled}.
    This is the overhead-when-disabled guarantee
    [test/test_obs.ml] pins down with [Gc.minor_words]. *)

type span_id = int

type probe = {
  enter : string -> span_id;
      (** Start a span named after a pipeline stage; returns a token
          [leave] must be called with.  Stage names in use: ["answer"],
          ["height"], ["translate"], ["rewrite"], ["unfold"],
          ["optimize"], ["plan"], ["derive"], ["eval"], ["admission"],
          and on the write path ["admit"] (the update admission
          check), ["splice"] (the document rebuild, inside
          ["admit"]) and ["digest"] (the receipt's view digest). *)
  leave : span_id -> unit;
  count : string -> int -> unit;  (** Add to a named counter. *)
  value : string -> int -> unit;
      (** Record one integer observation under a named series (e.g.
          unfolding height, evaluator nodes visited). *)
}

val null : probe
(** The default probe: every field ignores its arguments. *)

val set_probe : probe -> unit
val clear_probe : unit -> unit

val enabled : unit -> bool
(** [true] iff a probe other than {!null} is installed.  Call sites
    use it to guard argument construction that would itself allocate
    (string concatenation, deltas). *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a probe span.  With the null
    probe this is exactly [f ()].  The span is closed on exceptions
    too. *)

val count : string -> int -> unit
val value : string -> int -> unit

(** {1 Audit events} *)

type audit_event = {
  group : string;
  query : Sxpath.Ast.path;  (** the view query as asked *)
  translated : Sxpath.Ast.path option;
      (** the document query actually evaluated; [None] when
          translation failed *)
  cache_hit : bool;  (** translation served from the group's cache *)
  height : int option;
      (** unfolding height used (recursive views only) *)
  results : int;  (** number of answer nodes ([0] on failure) *)
  error : string option;  (** set when the request raised *)
}

val set_audit : (audit_event -> unit) -> unit
val clear_audit : unit -> unit

val audit_enabled : unit -> bool

val audit : audit_event -> unit
(** Forward an event to the installed audit hook; no-op without
    one. *)
