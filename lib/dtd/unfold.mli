(** Unfolding of recursive DTDs (Section 4.2).

    Query rewriting over a recursive view DTD cannot translate [//] to
    a finite XPath union, so the paper bounds the view by the height of
    the concrete document: every element type [A] occurring at nesting
    level [k] becomes a fresh type [A~k], recursion is broken by
    applying each type's non-recursive rule at the deepest level, and
    the result is a DAG DTD the rewriting algorithm can process.

    The unfolded type names are internal: [label_of] recovers the
    user-visible element label, which is what query steps match and
    what σ-annotation lookups use. *)

val mangle : string -> int -> string
val label_of : string -> string
(** [label_of "A~3"] is ["A"]; names without a level suffix are
    returned unchanged. *)

val level_of : string -> int option

val unfold : Dtd.t -> height:int -> Dtd.t
(** [unfold d ~height] is the non-recursive DTD whose instances are
    exactly the instances of [d] with element-nesting height at most
    [height] (modulo the level suffixes on type names).  The root is
    [mangle (root d) 1].

    @raise Invalid_argument if [height < min_height d (root d)] (no
    instance fits) or if some reachable type name already contains the
    level separator ['~']. *)
