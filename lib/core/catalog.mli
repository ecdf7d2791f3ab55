(** A catalog of documents a server answers queries over.

    Each entry memoizes the per-document facts the query pipeline
    needs repeatedly but that cost a full tree walk to compute: the
    element-nesting height (the unfolding bound for recursive views)
    and the tag index ({!Sxml.Index}).  Entries are either {e named} —
    registered from a parsed tree, the server's document namespace —
    or {e interned}: looked up by
    physical identity when a bare tree reaches
    [Pipeline.Session.answer], which pins the snapshot holding it
    before answering, so alternating queries over several loaded
    documents never recompute heights or indexes.

    Entries are {e versioned}: each holds a current {!snapshot} — an
    immutable incarnation of the document plus its memos, stamped with
    a process-global monotonic version.  {!update} swaps in a fresh
    snapshot (new tree, new version, the writer's derived index, cold
    height memo); a reader that
    {!pin}ned the old snapshot keeps a consistent
    [{version; doc; height; index}] view for as long as it holds it,
    so in-flight reads are never torn by a concurrent update.

    Snapshots also hold two facts the write path needs
    ({!snapshot_conforms}, {!snapshot_access}); a writer that has
    proved them for the document it publishes carries them into
    {!update}.

    All operations are thread-safe; heights and indexes are computed
    at most once per snapshot, each under a lock of its own, so a
    writer reading a snapshot's document never waits for a reader's
    index build.  Interned (anonymous) entries are bounded
    (64 entries, oldest evicted) so streaming
    throwaway documents through a pipeline cannot leak memory. *)

type t
type entry

type snapshot
(** One immutable incarnation of a document: tree + version stamp +
    height/index memos.  Obtained from {!pin}; never mutated in
    place. *)

val create : unit -> t

val add : t -> name:string -> Sxml.Tree.t -> entry
(** Register (or replace) a named document.  Its tree is fixed: a new
    version comes only from {!update}. *)

val find : t -> string -> entry option
val names : t -> string list
(** Registration order. *)

val name : entry -> string option
(** [None] for interned entries. *)

val version : entry -> int
(** The current snapshot's version: a process-global monotonic stamp.
    Re-registering a name or applying an {!update} yields a higher
    version, so provenance records (flight recorder) can identify
    which incarnation of a document answered, and caches keyed on the
    stamp invalidate on bump. *)

val doc : entry -> Sxml.Tree.t
(** The current snapshot's document. *)

val index : entry -> Sxml.Index.t
(** Tag index of the current snapshot ({!snapshot_index}). *)

(** {2 Snapshots and mutation} *)

val pin : entry -> snapshot
(** The entry's current snapshot — a single atomic field read.  The
    pinned snapshot stays valid (tree, version and memos all
    consistent with each other) however many updates land after the
    pin; it is simply no longer current. *)

val update :
  conforms:Sdtd.Dtd.t ->
  access:Spec.t * (string -> string option) * Access.flags ->
  entry ->
  Sxml.Index.t ->
  int
(** [update ~conforms ~access e index] swaps a fresh snapshot holding
    [index]'s document into [e] and returns its (new, strictly higher)
    version.  Swaps serialize per entry; pinned readers are
    unaffected.  [index] is the new snapshot's index memo from the
    start (the writer derived it with {!Sxml.Index.edit}), so no reader
    builds one; the height memo starts cold.  The writer also carries
    over the facts it has proved about the document instead of leaving
    them to be recomputed: it conforms to the DTD [conforms] (seeds
    {!snapshot_conforms}), and [access = (spec, env, flags)] is its
    accessibility under [spec] and the bindings [env]
    ({!snapshot_access}). *)

val snapshot_version : snapshot -> int
val snapshot_doc : snapshot -> Sxml.Tree.t
val snapshot_height : t -> snapshot -> int
(** Element-nesting height of the snapshot's document, computed once
    and memoized per snapshot. *)

val snapshot_memoized_height : snapshot -> int option
(** The memo without forcing a computation (probe for observability
    call sites that count memo hits vs walks). *)

val snapshot_index : snapshot -> Sxml.Index.t
(** The snapshot's tag index, memoized: a snapshot {!update} published
    holds the writer's derived index from the start; any other is built
    once, on first use. *)

val snapshot_conforms : snapshot -> Sdtd.Dtd.t -> bool
(** Whether the snapshot's document conforms to the DTD
    ({!Sdtd.Validate.conforms}), memoized per snapshot for the last
    DTD asked.  It is computed without a lock, so readers never wait
    on it. *)

val snapshot_access :
  ?env:(string -> string option) -> snapshot -> Spec.t -> Access.flags
(** The document's accessibility under the policy
    ({!Access.accessible_flags}): the flags {!update} carried into the
    snapshot when the policy (by physical identity) and the values
    [env] binds to {!Spec.variables} are the ones it carried, else
    computed afresh and not stored.  So only a write under the same
    policy and bindings as the write that published the snapshot
    skips the whole-document pass. *)

val intern : t -> Sxml.Tree.t -> snapshot
(** The snapshot holding a loaded tree, found by physical identity
    (named entries first, then the anonymous ones; a tree neither
    holds gets a fresh anonymous entry).  Read the tree's memos from
    this snapshot, not from an entry: a write may swap a named
    entry's snapshot at any time. *)

val height_walks : t -> int
(** How many full-tree height walks this catalog has performed —
    the memo's effectiveness measure ([answers - walks] were served
    from memo). *)

val element_height : Sxml.Tree.t -> int
(** The raw walk (exposed for callers that bypass the catalog). *)
