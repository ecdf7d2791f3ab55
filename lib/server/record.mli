(** How a request ended, written into its {!Sobs.Request.t}.

    One function per outcome kind — an answered or failed query, an
    admitted or refused write — called by the server's worker path and
    by the CLI's one-shot [query] and [update] alike, so the audit,
    capture and flight records of a request say the same thing
    whichever front end ran it. *)

val status : write:bool -> ('a, Secview.Error.t) result -> string
(** ["ok"]; ["error"] for a failed query or explain; a refused write's
    error code ([update_denied], [invalid_update], …), the write
    path's headline outcome. *)

val query :
  ?version:int ->
  (string list * Secview.Pipeline.outcome, Secview.Error.t) result ->
  Sobs.Request.t ->
  Sobs.Request.t
(** An answered query, given its rendered answer: the answer's size and
    {!Sobs.Capture.digest}, the translated query, the plan operator
    counts and — when given — the version of the pinned document
    snapshot.  A failed one: status ["error"] and the message. *)

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
