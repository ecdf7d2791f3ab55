(** The schema-level path walker shared by static admission
    ({!Admission}) and every checker of the analysis sublibrary: step
    a query through the DTD graph, tracking the set of element types
    the context can be, and surface the steps that kill every
    context.

    Attribute steps yield the pseudo-type ["@name"] (they terminate
    element navigation, like in the rewriting algorithm's tables);
    unfold level suffixes are stripped before label matching, so the
    walker also works on unfolded view DTDs.  The walk is an
    over-approximation in the same direction as {!Image.reach}:
    an empty result set is a proof that the path matches nothing, a
    non-empty one proves nothing. *)

(** A step that eliminated every context, reported through the caller's
    [issue] callback as the walk passes it. *)
type step_issue =
  | Dead_step of Sxpath.Ast.path * string list
      (** the step and the context types it was tried under *)
  | Undeclared_attribute of string * string list
      (** attribute name and the context types, none of which declare
          it *)

val reach :
  issue:(step_issue -> unit) ->
  qual_hook:(string list -> Sxpath.Ast.qual -> string list) ->
  Sdtd.Dtd.t ->
  string list ->
  Sxpath.Ast.path ->
  string list
(** [reach ~issue ~qual_hook dtd ctxs p]: the element types (or
    ["@attr"] pseudo-types) reachable from context types [ctxs] via
    [p].  [qual_hook] sees the surviving contexts at every [p\[q\]] and
    returns the subset to continue with — identity for a pure walk,
    {!Image.bool_of_qual}-based filtering for emptiness
    analysis. *)

val walk_qual :
  issue:(step_issue -> unit) ->
  Sdtd.Dtd.t ->
  string list ->
  Sxpath.Ast.qual ->
  unit
(** Walk every path embedded in a qualifier (through the boolean
    connectives, nested qualifiers included), reporting reference
    problems through [issue]. *)

val silent_reach : Sdtd.Dtd.t -> string list -> Sxpath.Ast.path -> string list
(** {!reach} with no issue reporting and no qualifier pruning. *)

val source_types :
  dtd:Sdtd.Dtd.t -> View.t -> string -> string list
(** Source element types per view type: the document types a view
    element's source node can have, propagated from σ(root) = root
    through every σ edge to a fixpoint.  An empty list means no
    document node can ever populate that view type. *)

val dedup : string list -> string list
(** Sorted, duplicate-free. *)

val label_matches : string -> string -> bool
(** [label_matches l ty]: does element type [ty] (possibly carrying an
    unfold level suffix) have label [l]? *)

val comma : string list -> string
(** Comma-join, for messages. *)

val dead_step_message : Sdtd.Dtd.t -> Sxpath.Ast.path * string list -> string
(** Render a {!Dead_step} for humans (special-cased for labels that are
    not element types at all). *)
