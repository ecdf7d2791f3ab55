(** Algorithm [optimize] (Fig. 10): DTD-aware XPath optimization.

    Given a (document) DTD and a query, produce an equivalent query
    that is cheaper to evaluate, by
    - pruning steps the DTD makes impossible (non-existence),
    - deciding qualifiers from structural constraints
      (co-existence / exclusive / non-existence, Example 5.1),
    - dropping union branches subsumed under the approximate
      containment test ({!Simulate}), and
    - expanding [//] into the precise label paths of the DTD when the
      DTD is non-recursive (on recursive DTDs descendant steps are
      kept as-is; unfold first if expansion is wanted).

    Qualifier simplification is applied only when it is uniform over
    every element type the qualified sub-query can reach — per-type
    splitting would reintroduce the imprecision discussed in
    {!Rewrite}.  All transformations preserve equivalence over every
    instance of the DTD. *)

val optimize : ?at:string -> Sdtd.Dtd.t -> Sxpath.Ast.path -> Sxpath.Ast.path
(** [optimize dtd p]: optimized [p] for evaluation at [at]-elements
    (default: the DTD root).  Returns ∅ when the DTD rules every
    result out. *)

type prepared
(** What the optimizer needs from a document DTD beyond the DTD itself:
    the identity view whose [recProc] table ({!View.recproc}) expands
    [//], filled per context type on first use.  Build it once per DTD
    and share it — across calls and across domains; it holds nothing
    query-specific. *)

val prepare : Sdtd.Dtd.t -> prepared

val prepared_dtd : prepared -> Sdtd.Dtd.t
(** The DTD the context was prepared for. *)

val optimize_prepared : prepared -> Sxpath.Ast.path -> Sxpath.Ast.path
(** [optimize_prepared (prepare dtd) p] is [optimize dtd p], without
    rebuilding the DTD's context on every call. *)

val simplify_qual :
  Sdtd.Dtd.t -> string -> Sxpath.Ast.qual -> Sxpath.Ast.qual
(** Qualifier simplification at one element type: decided qualifiers
    become [true()]/[false()], conjuncts subsumed by containment are
    dropped, and embedded paths are optimized. *)
