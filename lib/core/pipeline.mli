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
    worker alone, built once when the session is created.  The hot
    read path takes {e no locks} — a warm {!Session.answer_pinned} is
    hash probes on caches nobody else touches.  Cold translations
    run the rewriter/optimizer inline and pay only for the query: the
    schema facts they consult are built once and shared — the DTDs' graph
    facts, each view's [recProc] table ({!View.recproc}) and the
    service's optimizer context ({!Optimize.prepare}: the document
    DTD's identity view).  [recProc] tables fill on first use by
    compare-and-set ({!Memo}), and {!Image}'s schema-analysis memos
    are domain-local, so cold work on different domains proceeds in
    parallel.

    A document update swaps a new snapshot into the catalog and evicts
    nothing: translations and plans are keyed by query and unfolding
    height, which no document content enters.  The policy is fixed
    once the service is built: a different policy is a different
    service, with sessions of its own. *)

type group = {
  name : string;
  view : View.t;
}

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
    one authority for the wire and JSON field spelling. *)

val stats_counters : group:string -> stats -> (string * int) list
(** The group's record as metrics counters named
    [pipeline.<family>.<group>], the families being [cache.hit],
    [cache.miss], [plan.hit], [plan.miss], [plan.compile],
    [plan.fallback] and [admission.{denied,trivial,eval}].  A field at
    zero is left out, as a counter nothing incremented is.  The
    sessions' counters are the only count of this traffic: every
    registry and scrape that shows it names it so, with or without a
    tracer installed. *)

val set_strict_gate :
  (dtd:Sdtd.Dtd.t -> spec:Spec.t -> View.t -> string list) -> unit
(** Install the validation gate strict construction runs per group:
    given the document DTD, the group's policy and its derived view,
    return the rendered errors — an empty list means the group is
    clean.  The analysis sublibrary ([Sanalysis.Lint]) registers its
    diagnostics engine here when linked; [?strict] without a
    registered gate raises [Invalid_argument]. *)

val set_admission_analyzer :
  (Optimize.prepared -> Sxpath.Ast.path -> admission) -> unit
(** Install the analyzer {!Session.classify} consults (the
    registration pattern of {!set_strict_gate}: [Sanalysis.Semantic]
    registers itself when linked).  Without one, classification
    answers [Needs_eval] for everything.  The analyzer is called with
    the optimizer context ({!Optimize.prepare}) of the group's view
    DTD, and additionally with the {e document} DTD's on translated
    queries when compiling plans — see {!Splan.Compile}'s branch
    pruning.  The service prepares each context once, so a cold
    classification pays only for its query.  The analyzer must be
    safe to call from any domain (the registered analyzer is: it
    leans on {!Image}, whose memos are domain-local, and on the
    contexts' compare-and-set tables). *)

(** What {!Session.answer_pinned} returns besides the result list:
    the document query that ran, the unfolding height it was
    translated for (recursive views), and — with [~counts:true] when
    the plan engine ran — the compiled plan with its per-operator
    counters (render with {!Splan.Explain.of_compiled}, total with
    {!Splan.Exec.Stats.totals}).  [o_fallback] says why the
    interpreter answered instead.  Request records and explanations
    are built from this. *)
type outcome = {
  o_results : Sxml.Tree.t list;
  o_translated : Sxpath.Ast.path;
  o_height : int option;
  o_plan : (Splan.Compile.t * Splan.Exec.Stats.t) option;
  o_fallback : string option;
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
    handed to every session on every domain. *)
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

  val spec : t -> group:string -> Spec.t
  (** The access specification the group's view was derived from.
      @raise Not_found. *)

  val generation : t -> int
  (** How many writes the service has admitted: starts at 0 and is
      bumped by every {!record_write}. *)

  val record_write : t -> unit
  (** Count one admitted write (lock-free).  Called by the update
      engine after swapping a new snapshot into the catalog. *)
end

(** The per-domain layer: caches and counters with a single owner.

    A session is {b not} thread-safe — it is the one-owner fast path.
    Give each domain (or each thread that wants isolation) its own via
    {!Session.create}; sessions sharing a
    {!Service} share documents and versions, not cache memory.  The
    only cross-domain traffic a session supports is {e reading} its
    counters ({!Session.stats}/{!Session.all_stats} are safe to call
    from another domain while the owner works — the counters are
    atomics). *)
module Session : sig
  type t

  val create : Service.t -> t
  (** A session over the service: empty caches and zero counters for
      each of its groups, built here once. *)

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
      bumps the group's admission counters ({!stats}), and a cold
      classification runs inside an ["admission"] trace span.
      [Error Unknown_group] for an unknown group. *)

  val answer_pinned :
    t ->
    group:string ->
    ?counts:bool ->
    ?env:(string -> string option) ->
    Sxpath.Ast.path ->
    Catalog.snapshot ->
    (outcome, Error.t) result
  (** The one way a query is answered: translate (through the cache)
      and evaluate at the root of the snapshot the caller pinned
      ({!Catalog.pin}).  The tree, the unfolding height of a recursive
      view and the index all come from that snapshot, so however many
      writes land after the pin the answer is the pinned version's,
      and the catalog is never searched.  An indexed document root
      runs the compiled physical plan ([Splan], cached next to the
      translation) over the snapshot's index; the set-at-a-time
      interpreter ({!Sxpath.Eval.run}) answers where the plan compiler
      refuses the query (lint SV301) or the context is not a document
      root, and [o_fallback] says which.  [counts] (default [false])
      allocates and fills per-operator counters when the plan runs.
      With an observability probe installed (see {!Trace}), the call
      is wrapped in spans.

      Failures come back as {!Error.t} values instead of mixed
      exceptions: [Unknown_group], [Unsupported] (out-of-fragment
      rewrite) and [Unbound_variable]. *)

  val answer :
    t ->
    group:string ->
    ?env:(string -> string option) ->
    Sxpath.Ast.path ->
    Sxml.Tree.t ->
    (Sxml.Tree.t list, Error.t) result
  (** {!answer_pinned} over a bare tree: the tree is interned in the
      service's {!Catalog} by physical identity (a catalog document's
      current tree finds its own snapshot), so its height and index are
      computed once per catalog entry.  The library's convenience
      entry, and the oracle that tests and benchmarks compare served
      answers against. *)

  val answer_exn :
    t ->
    group:string ->
    ?env:(string -> string option) ->
    Sxpath.Ast.path ->
    Sxml.Tree.t ->
    Sxml.Tree.t list
  (** [answer], raising {!Error.E} instead of returning [Error]. *)

  val explain :
    t ->
    group:string ->
    ?env:(string -> string option) ->
    Sxpath.Ast.path ->
    Catalog.snapshot ->
    (explanation, Error.t) result
  (** {!answer_pinned}'s body run once with per-operator counters,
      plus {!classify}'s verdict and the provenance: [x_doc_version] is
      the pinned snapshot's.  Shares the translation and plan caches
      (explaining a query warms them); results are counted, not
      returned.  Errors as in {!answer_pinned}. *)

  val stats_of : t -> group:string -> stats
  (** The group's counters (safe from any domain).
      @raise Not_found. *)

  val all_stats : t -> (string * stats) list
  (** {!stats_of} for {e every} group, in construction order (safe
      from any domain). *)
end
