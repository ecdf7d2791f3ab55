(** The transactional update orchestrator over a
    {!Secview.Pipeline.Service}.

    [apply] runs the full write path for one update: resolve the
    group's policy and view, pin the document's current catalog
    snapshot and its index, admit the update through {!Check.run}
    (trace span ["admit"], with the edit inside it as ["splice"]),
    and — only on admission — digest the group's view of the result
    (span ["digest"]; {!Secview.View_text.digest} streams the view
    text from the candidate's index, the view is never built), publish the new version with the index the
    edit derived as a new snapshot ({!Secview.Catalog.update}) and
    count the write ({!Secview.Pipeline.Service.record_write}).  A
    rejected update returns before any of that: document, index,
    catalog version and write count are bit-for-bit untouched.

    The new version shares every subtree the edit leaves in place
    with the pinned one ({!Sxml.Index.edit}), and its index is derived
    from the pinned snapshot's, which is built only for the first
    write after a load; so no reader of the new version builds an
    index either.  Two more per-snapshot facts keep the rest of the
    check proportional to the edit: the pinned document's conformance
    to the DTD ({!Secview.Catalog.snapshot_conforms}) and the writing
    group's accessibility under the request's bindings
    ({!Secview.Catalog.snapshot_access}).  Both are computed on the
    first write against a snapshot and carried to the new one — the
    candidate conforms because admission checked it, and its
    accessibility is the pinned one moved along the survivor runs
    ({!Check.carry}) — so the receipt digest renders the view without
    recomputing accessibility.  The carried accessibility
    serves only a next write under the same group and bindings; any
    other write recomputes it with one whole-document pass.

    Concurrency: readers pinned on the old snapshot are never torn
    (snapshots are immutable), but two {e writers} racing on the same
    entry can lose an update between check and swap — callers must
    serialize writers per document.  The server routes every update
    through one coordinator domain; the CLI is single-threaded. *)

type receipt = {
  r_op : string;  (** ["insert"] / ["delete"] / ["replace"] *)
  r_targets : int;  (** view nodes the target path matched *)
  r_old_version : int;  (** catalog version the check ran against *)
  r_new_version : int;  (** version of the swapped-in snapshot *)
  r_doc : Sxml.Tree.t;  (** the new document *)
  r_view_digest : string;
      (** MD5 of the group's view of the new document, as
          {!Secview.Materialize} defines and {!Sxml.Print} renders it —
          the only digest that may be shown to the writer.  A digest
          of the raw document would be an equality oracle on content
          the view hides. *)
}

val apply :
  Secview.Pipeline.Service.t ->
  group:string ->
  ?env:(string -> string option) ->
  ?audit:(string -> unit) ->
  entry:Secview.Catalog.entry ->
  Ast.t ->
  (receipt, Secview.Error.t) result
(** Errors: everything {!Check.run} reports, plus [Unknown_group].
    [audit] receives {!Check.run}'s id-bearing denial detail
    (server-side logs only). *)

val apply_text :
  Secview.Pipeline.Service.t ->
  group:string ->
  ?env:(string -> string option) ->
  ?audit:(string -> unit) ->
  entry:Secview.Catalog.entry ->
  string ->
  (receipt, Secview.Error.t) result
(** [apply] after parsing the concrete syntax; {!Parse.Error} becomes
    [Invalid_update]. *)
