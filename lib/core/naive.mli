(** The naive element-level baseline of Section 6.

    Instead of rewriting through the view DTD, the document is
    preprocessed once: every element gets an [@accessibility]
    attribute ("1" accessible, "0" not — see {!Access.annotate}).  An
    input query over the view is then rewritten with two rules:

    + append the qualifier [\[@accessibility = "1"\]] to the last step,
      so only authorized elements are returned;
    + replace every child axis by a descendant axis, because one edge
      of the view DTD may stand for a longer path in the document
      (sound as long as element names are unique, which the paper
      assumes for this baseline).

    Dummy labels never occur in the document, so the descendant steps
    that mention them would return nothing; they are replaced by [*]
    descents (the label was hiding an unknown document element). *)

val rewrite_query : ?view:View.t -> Sxpath.Ast.path -> Sxpath.Ast.path
(** Apply the two rewriting rules.  When the view is supplied, its
    dummy labels are generalized to wildcards. *)

val prepare : ?env:(string -> string option) -> Spec.t -> Sxml.Tree.t ->
  Sxml.Tree.t
(** Annotate a document (the offline step, not part of query time). *)

val eval :
  ?env:(string -> string option) ->
  ?view:View.t ->
  Sxpath.Ast.path ->
  Sxml.Tree.t ->
  Sxml.Tree.t list
(** Evaluate a view query on a {e prepared} document: rewrite with the
    two rules, then run the ordinary evaluator at the root element. *)
