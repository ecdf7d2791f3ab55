(** Algorithm [rewrite] (Fig. 6): transform a query over a security
    view into an equivalent query over the original document, by
    dynamic programming over (sub-query, view-DTD node) pairs, without
    materializing the view.

    [//] is handled by the precomputation [recProc]: for every view
    node [A], the nodes reachable from [A] and, for each such [B], a
    document query [recrw(A,B)] capturing {e all} label paths from [A]
    to [B] with σ spliced in along every edge.  Shared prefixes are
    kept factored (the paper's symbolic-variable technique), so
    [recrw] stays polynomial on DAG view DTDs.

    Two modes:
    - [`Paper] is the algorithm exactly as published: after a step
      [p1/p2], the translations of [p2] at {e all} types reachable via
      [p1] are unioned and applied to every node [rw(p1)] returns.
    - [`Precise] (the default) keeps one translation {e per reached
      view type} and concatenates per type.  The two coincide on the
      paper's examples, but [`Paper] can return inaccessible nodes
      when the same child label hangs under two view types with
      different accessibility and the query reaches both (see
      DESIGN.md, "rewrite soundness corner"); [`Precise] is immune and
      has the same O(|p|·|D_v|²) table size.

    Queries in fragment [C] only: attribute steps are rejected.
    Recursive view DTDs must be unfolded first ({!rewrite_with_height}
    does it, per Section 4.2).

    [recProc] entries depend on the view alone: they are computed once
    per view node, on first use, and kept in the view
    ({!View.recproc}), so only the dynamic program's table is per
    query. *)

type mode = [ `Precise | `Paper ]

exception Unsupported of string

val rewrite : ?mode:mode -> View.t -> Sxpath.Ast.path -> Sxpath.Ast.path
(** [rewrite view p] is [p_t], to be evaluated at the document root
    element.  The result is ∅ when [p] can match nothing in the view.
    @raise Unsupported on attribute steps or a recursive view DTD. *)

val rewrite_with_height :
  ?mode:mode -> View.t -> height:int -> Sxpath.Ast.path -> Sxpath.Ast.path
(** Rewriting over a possibly recursive view: the view DTD is unfolded
    to the given document element-nesting height first (a no-op on
    non-recursive views). *)

val targets :
  ?mode:mode -> View.t -> Sxpath.Ast.path ->
  (string * Sxpath.Ast.path) list
(** Per-view-type breakdown of the translation at the root: which view
    element types the query can reach, and the document query reaching
    each (in [`Paper] mode every entry carries the same coarse
    query). *)

val recrw :
  View.t -> string -> (string * Sxpath.Ast.path) list
(** The [recProc] precomputation at one node, exposed for tests and
    the optimizer: reachable view types with their all-paths document
    queries ([(A, ε)] first). *)
