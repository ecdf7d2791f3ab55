(** How a request ended, written into its {!Sobs.Request.t}, and what
    the sessions counted, written into a registry.

    One function per outcome kind — an answered or failed query, an
    admitted or refused write — called by the server's worker path and
    by the CLI's one-shot [query] and [update] alike, so the audit,
    capture and flight records of a request say the same thing
    whichever front end ran it.  {!count_stats} does the same for the
    metrics surfaces. *)

val status : write:bool -> ('a, Secview.Error.t) result -> string
(** ["ok"]; ["error"] for a failed query or explain; a refused write's
    error code ([update_denied], [invalid_update], …), the write
    path's headline outcome. *)

val query :
  ?version:int ->
  (Secview.Pipeline.outcome, Secview.Error.t) result ->
  Sobs.Request.t ->
  Sobs.Request.t
(** An answered query: the answer's size and the
    {!Sobs.Capture.digest} of its {!Sxml.Print.answer} strings,
    rendered here in a buffer of its own, the translated query, the
    plan operator counts and — when given — the version of the pinned
    document snapshot.  A failed one: status ["error"] and the
    message.  Applied only when a sink is on, so a served answer is
    rendered for its digest only then. *)

val update :
  ?detail:string ->
  (Supdate.Engine.receipt, Secview.Error.t) result ->
  Sobs.Request.t ->
  Sobs.Request.t
(** An admitted write: target count, the digest of the writing group's
    view of the result, the new version and the version transition.
    A refused one: its error code as the status and the message,
    followed by the admission check's id-bearing [detail] — which
    belongs in the audit trail, never in the reply. *)

val apply_update :
  Secview.Pipeline.Service.t ->
  group:string ->
  env:(string -> string option) ->
  entry:Secview.Catalog.entry ->
  string ->
  (Supdate.Engine.receipt, Secview.Error.t) result * string option
(** {!Supdate.Engine.apply_text}, with any exception as an [Internal]
    error, paired with the denial detail for {!update}. *)

val count_stats :
  Sobs.Metrics.t -> (string * Secview.Pipeline.stats) list -> unit
(** Add each group's session counters to a registry under their
    {!Secview.Pipeline.stats_counters} names.  [Server.metrics],
    [secview query --metrics] and [secview metrics] all show the
    counters through it, so each names a cache or admission fact once
    and the same way. *)
