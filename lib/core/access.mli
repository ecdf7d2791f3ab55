(** Node accessibility (Section 3.2, Proposition 3.1).

    A node [v] with annotation [ann(v)] (looked up through its parent's
    element type, which is unique because DTDs are unambiguous) is
    accessible w.r.t. a specification iff either

    + [ann(v)] is [Y], or [ann(v)] is [\[q\]] and [q] holds at [v], and
      moreover every ancestor [v'] carrying a conditional annotation
      satisfies its qualifier; or
    + [ann(v)] is undefined and the parent of [v] is accessible.

    Note that an explicit [Y] {e overrides} an inaccessible parent
    (that is how [clinicalTrial]'s [patientInfo] child stays visible in
    the running example), but a false ancestor qualifier blocks the
    whole subtree. *)

module IntSet : Set.S with type elt = int

val accessible_set :
  ?env:(string -> string option) -> Spec.t -> Sxml.Tree.t -> IntSet.t
(** Identifiers of all accessible nodes (elements and text) of the
    document, computed in one top-down pass (qualifier evaluations
    aside). *)

type flags = Bytes.t
(** Per-node facts of one document, one byte per node identifier:
    whether the node is accessible ({!flag}) and whether every
    qualifier on it and its ancestors holds, the condition an
    explicitly granted attribute needs ({!accessible_attributes} reads
    it). *)

val accessible_flags :
  ?env:(string -> string option) -> Spec.t -> Sxml.Tree.t -> flags
(** {!accessible_set} as a flag vector: the same top-down pass, one
    byte per identifier up to the document's last. *)

val flag : flags -> int -> bool
(** Is the node accessible? *)

val all_accessible : int -> flags
(** The flags of [n] nodes that are all accessible. *)

(** {2 The recurrence, one node at a time}

    Accessibility is computed top-down: each node's verdict depends
    on the state its parent hands it and on its own qualifier, which
    looks only downward.  These expose the single step so a caller
    can run the recurrence along chosen root paths only (the update
    admission check does). *)

type state
(** What a node hands its children: its tag, whether every qualifier
    on it and its ancestors holds, and whether it is accessible. *)

val root_state : state
(** The state above the document root (the root is [Y]). *)

val step :
  Sxpath.Eval.Ctx.t -> Spec.t -> state -> Sxml.Tree.t -> bool * state
(** [step ctx spec st v]: given the state [v]'s parent hands down,
    whether [v] is accessible and the state [v] hands its children.
    Qualifiers are evaluated with [ctx]'s variable environment. *)

val first_inaccessible :
  Sxpath.Eval.Ctx.t -> Spec.t -> state -> Sxml.Tree.t -> Sxml.Tree.t option
(** The first inaccessible node, in document order, of the subtree
    rooted at [v], given the state [v]'s parent hands down. *)

val accessible_elements :
  ?env:(string -> string option) -> Spec.t -> Sxml.Tree.t ->
  Sxml.Tree.t list
(** Accessible element nodes in document order. *)

val accessible_attributes :
  ?env:(string -> string option) ->
  ?accessible:flags ->
  Spec.t ->
  Sxml.Tree.t ->
  Sxml.Tree.t ->
  (string * string) list
(** The attributes of a node that the specification exposes: those with
    an explicit [("A", "@name")] annotation that grants access (with
    every qualifier on the node and its ancestors true), plus — when
    the node itself is accessible — its unannotated attributes.  Only
    attributes the DTD declares for the element type are considered.
    Both conditions are read from [accessible], the document's
    {!accessible_flags} (computed here when absent), so a caller that
    holds the flags pays only for the node's attributes. *)

val annotate :
  ?env:(string -> string option) -> ?attribute:string -> Spec.t ->
  Sxml.Tree.t -> Sxml.Tree.t
(** The naive baseline's preprocessing (Section 6): return a copy of
    the document where every element carries
    [attribute="1"] ("0" otherwise).  Default attribute name
    ["accessibility"].  Node identifiers are preserved. *)
