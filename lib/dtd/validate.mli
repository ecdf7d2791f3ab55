(** Conformance of documents to DTDs (Section 2's instance relation):
    the root is labeled with the root type, every element's child
    labels form a word in its production's language, and text nodes are
    leaves (guaranteed by construction in {!Sxml.Tree}). *)

type violation = {
  node_id : int;  (** offending node (document preorder id) *)
  element : string;  (** element type at the node, or root mismatch *)
  message : string;
  summary : string;
      (** [message] without instance content: for a content-model
          violation, the declared model but not the children found;
          for an undeclared attribute, no attribute name.  It still
          goes with [element], which is the document's tag, so it is
          safe to show only a reader who may see the element. *)
}

val pp_violation : Format.formatter -> violation -> unit

val check : Dtd.t -> Sxml.Tree.t -> violation list
(** All conformance violations, in document order.  Elements whose type
    is undeclared in the DTD are violations; their subtrees are still
    visited. *)

val element_violations : Dtd.t -> Sxml.Tree.t -> violation list
(** The violations {!check} reports at one element (content model,
    then attributes), without descending into its children and
    without the root-type check. *)

val conforms : Dtd.t -> Sxml.Tree.t -> bool
(** [check] is empty. *)
