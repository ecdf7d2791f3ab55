(** The text of a security view's instance, streamed from the
    document: what {!Materialize.to_tree} followed by
    {!Sxml.Print.to_string} produces, written straight into a buffer
    without building the view.

    The walk is the construction {!Materialize.materialize} defines.
    At a view element of type A bound to document node [v], each
    σ(A, B) of A's production runs from [v] — compiled once per view
    type ({!View.content}) and executed over the document's index —
    and its accessible answers (all of them for a dummy B), merged by
    document position with [v]'s accessible text children when the
    production mentions PCDATA, are the element's children.  Their
    label word is checked against the production before anything
    below the element is written.  Accessibility is read from flags,
    never recomputed, and a view element allocates only its σ answers
    and two arrays of slots.

    The cost is proportional to the view text, with the plan engine's
    constant per σ run: there is no vtree, no renumbering and no
    per-element label table.  Write receipts digest the view this way
    ({!Supdate.Engine}); {!Materialize} stays the oracle it is tested
    against. *)

val to_string :
  ?env:(string -> string option) ->
  ?accessible:Access.flags ->
  spec:Spec.t ->
  view:View.t ->
  Sxml.Index.t ->
  string
(** [to_string ~spec ~view index]: the view text of the document
    [index] was built from ([Sxml.Index.node index 0]), or [""] where
    {!Materialize.materialize} aborts.  [accessible] is that
    document's accessibility under [spec] and [env] when the caller
    holds it (a carried per-snapshot fact); it must equal
    [Access.accessible_flags ?env spec doc].
    @raise Sxpath.Eval.Unbound_variable where the construction does. *)

val digest :
  ?env:(string -> string option) ->
  ?accessible:Access.flags ->
  spec:Spec.t ->
  view:View.t ->
  Sxml.Index.t ->
  string
(** MD5, in hex, of {!to_string}: the digest a write receipt carries. *)
