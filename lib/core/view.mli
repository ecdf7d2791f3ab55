(** Security-view definitions V = (D_v, σ) (Section 3.3).

    [D_v] is the view DTD exposed to authorized users; [σ] maps each
    parent/child pair of [D_v] to an XPath query over the {e document}
    that extracts the child's source nodes when evaluated at the
    parent's source node.  The root of the view is mapped to the root
    of the document ([σ(r_v) = r]).

    Some view element types are {e dummies}: fresh labels standing for
    inaccessible document nodes that had to be kept to preserve the
    document DTD's structure (Fig. 2's [dummy1]/[dummy2]).  Their
    source nodes are intentionally {e not} accessible; everything else
    a view exposes is. *)

type t

val make :
  ?dummies:string list ->
  dtd:Sdtd.Dtd.t ->
  sigma:((string * string) * Sxpath.Ast.path) list ->
  unit ->
  t
(** @raise Invalid_argument if a σ key is not an edge of the view DTD,
    or if an edge between element types of the view DTD lacks a σ
    entry. *)

val dtd : t -> Sdtd.Dtd.t
val root : t -> string

val sigma : t -> parent:string -> child:string -> Sxpath.Ast.path option
(** σ(parent, child).  Lookups strip {!Sdtd.Unfold} level suffixes, so
    the same view works before and after unfolding. *)

val sigma_exn : t -> parent:string -> child:string -> Sxpath.Ast.path

val is_dummy : t -> string -> bool
val dummies : t -> string list

val recproc : t -> (string * Sxpath.Ast.path) list Memo.t
(** The view's [recProc] table (Fig. 6), filled by {!Rewrite} one view
    node at a time on first use and kept for the view's lifetime: every
    rewriting over the same view value shares it.  An unfolded view
    ({!unfolded}) starts with an empty table of its own. *)

(** σ(A, ·) of one view type A, ready to run: what a renderer of the
    view instance needs at an element of type A. *)
type extraction = {
  child : string;  (** B, an element label of A's production *)
  dummy : bool;  (** B is a dummy: its sources need not be accessible *)
  query : Sxpath.Ast.path;  (** σ(A, B) *)
  plan : Splan.Compile.t option;
      (** σ(A, B) lowered for the plan engine; [None] where the
          compiler refuses it (a descendant step with no single-label
          head) *)
}

type content = {
  model : Sdtd.Regex.t;  (** A's production in the view DTD *)
  pcdata : bool;  (** the production mentions PCDATA *)
  extractions : extraction array;
      (** one per element label of the production, in
          {!Sdtd.Regex.labels} order *)
}

val content : t -> string -> content
(** [content v a]: the view type [a]'s production and its σ queries,
    compiled on the first call for [a] and kept for the view's
    lifetime in a table every domain shares, like {!recproc}.  Filled
    only by callers that walk the view instance (write receipts), so
    building a view or answering a query compiles nothing here.
    @raise Not_found if [a] is not a view type. *)

val identity_of : Sdtd.Dtd.t -> t
(** The identity view of a document DTD: same DTD, σ(A, B) = B.  The
    view a fully-[Y] specification derives. *)

val unfolded : t -> height:int -> t
(** The view with its DTD unfolded to the given document height
    (Section 4.2); σ entries are shared via suffix-stripping lookups.
    The identity on non-recursive views. *)

val pp : Format.formatter -> t -> unit
(** View DTD plus σ annotations, in the style of Example 3.2. *)

(** {2 Stored view definitions}

    A derived view can be serialized and reloaded, so the
    (administrator-side) derivation runs once and query frontends only
    load the definition.  The format is the view DTD in declaration
    syntax interleaved with [@root], [@dummy NAME] and
    [@sigma PARENT CHILD := QUERY] directives; [#]-lines are
    comments. *)

val to_definition : t -> string

val of_definition : string -> t
(** @raise Failure on malformed input (with a line number);
    @raise Invalid_argument if the σ table does not cover the DTD's
    edges (as {!make}). *)

val of_definition_file : string -> t
val save_definition : t -> string -> unit
