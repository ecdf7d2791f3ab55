(** The full Fig. 3 loop behind two handles: a shared immutable
    {!Service} and a per-domain {!Session}.

    {!Service.create} binds a document DTD and one access policy per
    user group: construction derives (or loads) each group's security
    view once.  The resulting service is {e immutable} — interned
    views, specs and the document catalog — and safe to share across
    any number of domains without synchronization (the catalog
    versions its documents internally).

    Each worker then owns a {!Session}: the translation cache, plan
    cache, admission-verdict cache and traffic counters for that
    worker alone.  The hot read path takes {e no locks} — a warm
    {!Session.answer} is one atomic load (service identity) plus hash
    probes on caches nobody else touches.  Cold translations run the
    rewriter/optimizer inline; {!Image}'s schema-analysis memos are
    domain-local and guard themselves, so cold work on different
    domains proceeds in parallel.

    A document update swaps a new snapshot into the catalog and evicts
    nothing: translations and plans are keyed by query and unfolding
    height, which no document content enters.  A policy reload builds
    a whole new service and {!Service.publish}es it on the slot
    sessions watch; sessions rebuild their caches on their next
    call.

    The old single-handle [Pipeline.t] API remains for one PR as a
    deprecated facade (a Session behind one mutex). *)

type group = {
  name : string;
  view : View.t;
}

(** How {!Session.answer} executes the translated query:
    - [Plan] (the default) compiles it to a physical plan
      ([Splan]) run over the document's tag/extent index; the plan is
      cached next to the translation.  Queries the compiler refuses
      (descendant steps with no single-label head — see lint SV301)
      fall back to the interpreter transparently.
    - [Interp] is the set-at-a-time interpreter
      ({!Sxpath.Eval.run}); answers are byte-identical. *)
type engine =
  | Interp
  | Plan

val engine_label : engine -> string
(** ["plan"] / ["interp"] — the canonical wire spelling (protocol
    replies, capture records, flight-recorder entries, CLI flags). *)

val engine_of_string : string -> engine option
(** Inverse of {!engine_label}. *)

(** Static admission verdict for a (group, query) pair, decided from
    the group's view DTD alone — no document is touched:
    - [Denied_empty]: provably empty on {e every} instance of the view
      DTD (the payload is a witness explanation naming the step or
      qualifier that kills the query) — a server can answer the empty
      node set without queueing, planning or evaluating anything;
    - [Trivial]: the query is answerable from the view DTD alone
      (e.g. it asks for the view root itself);
    - [Needs_eval]: everything else — evaluation must run.
    The verdicts are conservative in the sound direction: a
    [Denied_empty]/[Trivial] claim is a proof, [Needs_eval] claims
    nothing. *)
type admission =
  | Denied_empty of string
  | Trivial
  | Needs_eval

val admission_label : admission -> string
(** ["denied"], ["trivial"], ["eval"] — the stable spelling used in
    counter names and wire replies. *)

(** The unified per-group counter record: translation-cache traffic,
    plan-cache traffic and admission verdicts in one shape, so the CLI
    ([query --stats]), the server's [stats] verb and [GET /metrics]
    render and merge sessions through a single code path.  Exactly one
    of [hits]/[misses] is counted per translation lookup (so
    [hits + misses] equals calls issued), likewise for the plan cache;
    [plan_compiles + plan_fallbacks] equals distinct translated
    queries the plan engine saw; [denied]/[trivial]/[eval] count
    {!Session.classify} traffic (cached verdicts count too). *)
type stats = {
  hits : int;  (** translation cache hits *)
  misses : int;  (** translation cache misses *)
  plan_hits : int;  (** plan cache hits (incl. cached fallbacks) *)
  plan_misses : int;  (** plan cache misses *)
  plan_compiles : int;  (** successful plan compilations *)
  plan_fallbacks : int;  (** compile refusals → interpreter *)
  denied : int;  (** admission: provably-empty verdicts *)
  trivial : int;  (** admission: trivially-answerable verdicts *)
  eval : int;  (** admission: needs-evaluation verdicts *)
}

val stats_zero : stats

val stats_merge : stats -> stats -> stats
(** Field-wise sum — merging per-domain sessions into fleet totals. *)

val stats_fields : stats -> (string * int) list
(** The canonical (name, value) rendering, in canonical order — the
    one authority for wire/JSON/metrics field spelling. *)

val set_strict_gate :
  (dtd:Sdtd.Dtd.t -> ?spec:Spec.t -> View.t -> string list) -> unit
(** Install the validation gate strict construction runs per group:
    given the document DTD, the group's view and (for
    {!Service.create}) its policy, return the rendered errors — an
    empty list means the group is clean.  The analysis sublibrary
    ([Sanalysis.Lint]) registers its diagnostics engine here when
    linked; [?strict] without a registered gate raises
    [Invalid_argument]. *)

val set_admission_analyzer :
  (Sdtd.Dtd.t -> Sxpath.Ast.path -> admission) -> unit
(** Install the analyzer {!Session.classify} consults (the
    registration pattern of {!set_strict_gate}: [Sanalysis.Semantic]
    registers itself when linked).  Without one, classification
    answers [Needs_eval] for everything.  The analyzer is called with
    the group's view DTD, and additionally with the {e document} DTD
    on translated queries when compiling plans — see
    {!Splan.Compile}'s branch pruning.  It must be safe to call from
    any domain (the registered analyzer is: it leans on {!Image},
    whose memos are domain-local). *)

(** What {!Session.answer_outcome} adds over the bare result list: the
    document query that ran, the engine that actually executed it
    ([o_engine = Interp] for a plan-engine request means a fallback),
    and — with [~counts:true] and the plan engine — the operator work
    totals ({!Splan.Exec.Stats.totals}: [scanned]/[probes]/[joined]/
    [rows]; [[]] otherwise).  Slow-query records are built from
    this. *)
type outcome = {
  o_results : Sxml.Tree.t list;
  o_translated : Sxpath.Ast.path;
  o_engine : engine;
  o_counts : (string * int) list;
}

(** One EXPLAINed request: the admission verdict ({!Session.classify}'s,
    from the same cache), the translated query, the resolved unfolding
    height (recursive views), the compiled plan with its per-operator
    counters when the plan engine answered — render with
    {!Splan.Explain.of_compiled} — or the fallback reason when the
    interpreter had to ([x_plan = None]), and the result count.  A
    [Denied_empty] query is still run (explain shows what evaluation
    would do; the count is provably 0).  [x_doc_version] and
    [x_generation] pin the provenance: which catalog snapshot of the
    document answered, and how many writes the service had admitted
    by then (see {!Service.generation}). *)
type explanation = {
  x_admission : admission;
  x_translated : Sxpath.Ast.path;
  x_height : int option;
  x_plan : (Splan.Compile.t * Splan.Exec.Stats.t) option;
  x_fallback : string option;
  x_results : int;
  x_doc_version : int;
  x_generation : int;
}

(** The shared, immutable layer: views, specs, the document catalog
    and the admitted-write count.  One service is built at startup and
    handed (by value or through a {!Service.slot}) to every session on
    every domain. *)
module Service : sig
  type t

  val create :
    ?strict:bool ->
    ?catalog:Catalog.t ->
    Sdtd.Dtd.t ->
    groups:(string * Spec.t) list ->
    t
  (** Derive a security view per group.  With [~strict:true] every
      group's policy and derived view must pass the registered
      static-analysis gate (see {!set_strict_gate}) before the service
      is handed out — configuration errors surface here instead of at
      query time.  [catalog] is the document catalog sessions memoize
      per-document heights and indexes in; pass the server's catalog
      so documents registered there share their memo with the
      pipeline (default: a fresh private catalog).
      @raise Invalid_argument on duplicate group names, a
      specification over a different DTD instance, or (strict mode)
      lint errors. *)

  val create_with_views :
    ?strict:bool ->
    ?catalog:Catalog.t ->
    Sdtd.Dtd.t ->
    groups:(string * View.t) list ->
    t
  (** Use stored view definitions instead of deriving.  [~strict:true]
      validates each stored view against the document DTD through the
      gate — the defense against view definitions that drifted from
      the DTD they were derived for. *)

  val dtd : t -> Sdtd.Dtd.t

  val catalog : t -> Catalog.t
  (** The catalog sessions resolve documents against. *)

  val groups : t -> group list
  val order : t -> string list
  (** Group names in construction order. *)

  val view : t -> group:string -> View.t
  (** The group's security view.  @raise Not_found. *)

  val view_dtd : t -> group:string -> Sdtd.Dtd.t
  (** What to publish to that user group.  @raise Not_found. *)

  val spec : t -> group:string -> Spec.t option
  (** The access specification the group's view was derived from —
      [None] when the service was built with {!create_with_views}
      (stored views carry no policy, so such a group can never hold a
      write grant: all updates are rejected).  @raise Not_found. *)

  val generation : t -> int
  (** How many writes the service has admitted: starts at 0 and is
      bumped by every {!record_write}. *)

  val record_write : t -> unit
  (** Count one admitted write (lock-free).  Called by the update
      engine after swapping a new snapshot into the catalog. *)

  type slot = t Atomic.t
  (** Where sessions watch for republished services (policy reload):
      plain [Atomic.t], owned by whoever coordinates reloads. *)

  val slot : t -> slot
  val current : slot -> t

  val publish : slot -> t -> unit
  (** Atomically replace the service.  Sessions built on this slot
      ({!Session.of_slot}) rebuild their caches on their next call;
      in-flight requests finish against the service they started
      with.  Counters survive the swap. *)
end

(** The per-domain layer: caches and counters with a single owner.

    A session is {b not} thread-safe — it is the one-owner fast path.
    Give each domain (or each thread that wants isolation) its own via
    {!Session.create}/{!Session.of_slot}; sessions sharing a
    {!Service} share documents and versions, not cache memory.  The
    only cross-domain traffic a session supports is {e reading} its
    counters ({!Session.stats}/{!Session.all_stats} are safe to call
    from another domain while the owner works — the counters are
    atomics). *)
module Session : sig
  type t

  val create : Service.t -> t
  (** A session pinned to one service value (its own private slot). *)

  val of_slot : Service.slot -> t
  (** A session that follows {!Service.publish}es on [slot]. *)

  val service : t -> Service.t
  (** The service this session currently answers for (syncs first). *)

  val translate :
    t -> group:string -> ?height:int -> Sxpath.Ast.path -> Sxpath.Ast.path
  (** Rewritten and optimized document query for a view query (cached
      per group and query).  [height] is required when the group's
      view DTD is recursive — pass the document's element-nesting
      height; the cache keys include it.
      @raise Not_found for an unknown group;
      @raise Rewrite.Unsupported for recursive views without
      [height]. *)

  val classify :
    t -> group:string -> Sxpath.Ast.path -> (admission, Error.t) result
  (** Classify a view query for a group.  Verdicts are cached per
      group and query (they depend only on the view DTD); every call
      bumps the group's admission counters and the
      [pipeline.admission.{denied,trivial,eval}] trace counters, and a
      cold classification runs inside an ["admission"] trace span.
      [Error Unknown_group] for an unknown group. *)

  val answer :
    t ->
    group:string ->
    ?engine:engine ->
    ?env:(string -> string option) ->
    ?index:Sxml.Index.t ->
    ?height:int ->
    Sxpath.Ast.path ->
    Sxml.Tree.t ->
    (Sxml.Tree.t list, Error.t) result
  (** Translate (through the cache) and evaluate at the document's
      root element with the chosen [engine] (default {!Plan}).  When
      the group's view is recursive the unfolding height is taken from
      [height] if supplied, otherwise resolved through the service's
      document {!Catalog}: the tree is interned by physical identity
      and its height and index computed once per catalog entry —
      queries alternating over any number of loaded documents never
      recompute either.  With an observability probe installed (see
      {!Trace}), the call is wrapped in spans and, when an audit hook
      is installed, emits one {!Trace.audit_event}.

      Failures come back as {!Error.t} values instead of mixed
      exceptions: [Unknown_group], [Unsupported] (recursive view
      without a resolvable height, out-of-fragment rewrite) and
      [Unbound_variable].  Exceptions that indicate caller bugs
      (e.g. an index over the wrong document) still raise. *)

  val answer_exn :
    t ->
    group:string ->
    ?engine:engine ->
    ?env:(string -> string option) ->
    ?index:Sxml.Index.t ->
    ?height:int ->
    Sxpath.Ast.path ->
    Sxml.Tree.t ->
    Sxml.Tree.t list
  (** [answer], raising {!Error.E} instead of returning [Error]. *)

  val answer_outcome :
    t ->
    group:string ->
    ?engine:engine ->
    ?counts:bool ->
    ?env:(string -> string option) ->
    ?index:Sxml.Index.t ->
    ?height:int ->
    Sxpath.Ast.path ->
    Sxml.Tree.t ->
    (outcome, Error.t) result
  (** Exactly {!answer} — same caches, spans, audit event — but
      returning the request's {!outcome}.  [counts] (default [false])
      allocates and fills per-operator counters when the plan engine
      runs; the default keeps the hot path identical to {!answer}. *)

  val explain :
    t ->
    group:string ->
    ?env:(string -> string option) ->
    ?index:Sxml.Index.t ->
    ?height:int ->
    Sxpath.Ast.path ->
    Sxml.Tree.t ->
    (explanation, Error.t) result
  (** Run the query once, preferring the plan engine and collecting
      {!Splan.Exec.Stats} per operator.  Shares {!answer}'s
      translation and plan caches (explaining a query warms them) but
      does not emit an audit event — results are counted, not
      returned.  Errors as in {!answer}. *)

  val stats_of : t -> group:string -> stats
  (** The group's counters (safe from any domain).
      @raise Not_found. *)

  val all_stats : t -> (string * stats) list
  (** {!stats_of} for {e every} group, in construction order (safe
      from any domain). *)
end

(** {2 Deprecated single-handle facade}

    The pre-domain API: one handle, safe from any number of threads,
    every call — evaluation included — serialized on one internal
    mutex.  Kept for one PR so out-of-tree callers get a warning, not
    a break.  Migration map (also in DESIGN.md §12):
    {ul
    {- [create]/[create_with_views] → {!Service.create} /
       {!Service.create_with_views}, then one {!Session.create} per
       worker;}
    {- [answer]/[answer_outcome]/[explain]/[classify]/[translate] →
       the same names under {!Session};}
    {- [cache_stats]/[admission_stats]/[stats] → {!Session.stats_of} /
       {!Session.all_stats} (one unified {!stats} record);}
    {- [generation]/accessors → the same names under {!Service}.}} *)

type t
[@@deprecated "use Pipeline.Service + Pipeline.Session"]

type cache_stats = {
  hits : int;
  misses : int;
  plan_hits : int;
  plan_misses : int;
  plan_compiles : int;
  plan_fallbacks : int;
}
[@@deprecated "use Pipeline.stats (Session.stats_of / Session.all_stats)"]

type admission_stats = {
  denied : int;
  trivial : int;
  eval : int;
}
[@@deprecated "use Pipeline.stats (Session.stats_of / Session.all_stats)"]

[@@@alert "-deprecated"]
[@@@warning "-3"]

val create :
  ?strict:bool ->
  ?catalog:Catalog.t ->
  Sdtd.Dtd.t ->
  groups:(string * Spec.t) list ->
  t
[@@deprecated "use Pipeline.Service.create + Pipeline.Session.create"]

val create_with_views :
  ?strict:bool ->
  ?catalog:Catalog.t ->
  Sdtd.Dtd.t ->
  groups:(string * View.t) list ->
  t
[@@deprecated
  "use Pipeline.Service.create_with_views + Pipeline.Session.create"]

val service : t -> Service.t
[@@deprecated "hold the Service directly"]

val dtd : t -> Sdtd.Dtd.t [@@deprecated "use Pipeline.Service.dtd"]
val catalog : t -> Catalog.t [@@deprecated "use Pipeline.Service.catalog"]
val groups : t -> group list [@@deprecated "use Pipeline.Service.groups"]

val view : t -> group:string -> View.t
[@@deprecated "use Pipeline.Service.view"]

val view_dtd : t -> group:string -> Sdtd.Dtd.t
[@@deprecated "use Pipeline.Service.view_dtd"]

val spec : t -> group:string -> Spec.t option
[@@deprecated "use Pipeline.Service.spec"]

val generation : t -> int [@@deprecated "use Pipeline.Service.generation"]

val translate :
  t -> group:string -> ?height:int -> Sxpath.Ast.path -> Sxpath.Ast.path
[@@deprecated "use Pipeline.Session.translate"]

val classify :
  t -> group:string -> Sxpath.Ast.path -> (admission, Error.t) result
[@@deprecated "use Pipeline.Session.classify"]

val answer :
  t ->
  group:string ->
  ?engine:engine ->
  ?env:(string -> string option) ->
  ?index:Sxml.Index.t ->
  ?height:int ->
  Sxpath.Ast.path ->
  Sxml.Tree.t ->
  (Sxml.Tree.t list, Error.t) result
[@@deprecated "use Pipeline.Session.answer"]

val answer_exn :
  t ->
  group:string ->
  ?engine:engine ->
  ?env:(string -> string option) ->
  ?index:Sxml.Index.t ->
  ?height:int ->
  Sxpath.Ast.path ->
  Sxml.Tree.t ->
  Sxml.Tree.t list
[@@deprecated "use Pipeline.Session.answer_exn"]

val answer_outcome :
  t ->
  group:string ->
  ?engine:engine ->
  ?counts:bool ->
  ?env:(string -> string option) ->
  ?index:Sxml.Index.t ->
  ?height:int ->
  Sxpath.Ast.path ->
  Sxml.Tree.t ->
  (outcome, Error.t) result
[@@deprecated "use Pipeline.Session.answer_outcome"]

val explain :
  t ->
  group:string ->
  ?env:(string -> string option) ->
  ?index:Sxml.Index.t ->
  ?height:int ->
  Sxpath.Ast.path ->
  Sxml.Tree.t ->
  (explanation, Error.t) result
[@@deprecated "use Pipeline.Session.explain"]

val session_stats : t -> group:string -> stats
[@@deprecated "use Pipeline.Session.stats_of"]

val cache_stats : t -> group:string -> cache_stats
[@@deprecated "use Pipeline.Session.stats_of"]

val admission_stats : t -> group:string -> admission_stats
[@@deprecated "use Pipeline.Session.stats_of"]

val stats : t -> (string * cache_stats) list
[@@deprecated "use Pipeline.Session.all_stats"]
