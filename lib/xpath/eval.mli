(** Set-at-a-time evaluation of the fragment over {!Sxml.Tree}
    documents.

    Following Section 2, [v⟦p⟧] is the set of nodes reachable from the
    context node [v] via [p]; a qualifier [\[p\]] holds at [v] iff
    [v⟦p⟧] is non-empty, and [\[p = c\]] holds iff [v⟦p⟧] contains a
    node whose string value is [c] (we use the standard XPath
    string-value, which subsumes the paper's text-node formulation for
    element results).

    Evaluation proceeds one query operator at a time over whole context
    sets with deduplication at every step, so it is polynomial in
    |query| × |document| like the evaluator of Gottlob et al. the paper
    builds on [15] — no exponential blow-up on nested [//].

    The descendant-or-self axis ranges over {e elements}: in the
    paper's model PCDATA is "str data" attached to an element, not an
    addressable node, and the DTD-level rewriting/optimization
    algorithms reason about element types only.  Text is observed
    through string values ([p = c] compares the string value of each
    node in [v⟦p⟧]).

    The single entry point is {!run} over a {!Ctx.t}, which fixes the
    variable environment, the optional tag index and the context
    convention once. *)

exception Unbound_variable of string

(** Evaluation contexts.  A context packages everything that is fixed
    across evaluations of one document: the [$var] environment, an
    optional {!Sxml.Index.t} built from the queried document (with it,
    [//l/rest]-shaped descendant steps are answered from the tag index
    by binary search over subtree extents instead of scanning the
    subtree; results are identical with and without), and the context
    convention:
    - [`Root] (default) evaluates at the root element itself — the
      convention of the rewriting algorithm, whose output is relative
      to the document root element;
    - [`Document] evaluates at a virtual document node whose only
      child is the root element, matching how absolute queries like
      [/adex/head/…] are written. *)
module Ctx : sig
  type t

  val make :
    ?env:(string -> string option) ->
    ?index:Sxml.Index.t ->
    ?at:[ `Root | `Document ] ->
    root:Sxml.Tree.t ->
    unit ->
    t
  (** [make ~root ()] — context at [root], no bindings, no index. *)

  val root : t -> Sxml.Tree.t
  (** The context root passed to {!make}. *)

  val env : t -> string -> string option
  (** The variable environment (total: unbound names give [None]). *)

  val index : t -> Sxml.Index.t option
  (** The tag index, if one was supplied. *)
end

val run : ?visits:int ref -> Ctx.t -> Ast.path -> Sxml.Tree.t list
(** [run ctx p]: nodes reachable from the context node of [ctx] via
    [p], in document order, duplicate-free.  @raise Unbound_variable
    if the query contains a [$var] the environment does not bind (the
    check is lazy: only qualifiers that are actually evaluated
    resolve their variables).

    [visits] is a work meter: the run counts every context-node × step
    combination it touches in its own state and adds the total to
    [visits] once, when it returns — a machine-independent work
    measure beside wall-clock time.  A run that raises adds
    nothing. *)

val run_nodes : Ctx.t -> Ast.path -> Sxml.Tree.t list -> Sxml.Tree.t list
(** [run_nodes ctx p vs]: evaluate at every node of [vs] (same
    document as the context root) and union the results.  The
    context's [at] convention is ignored — the given nodes {e are}
    the context set. *)

val check : Ctx.t -> Ast.qual -> Sxml.Tree.t -> bool
(** [check ctx q v]: truth of qualifier [q] at node [v]. *)
