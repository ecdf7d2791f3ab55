(** Document indexes.

    Because node identifiers are dense preorder positions, a subtree is
    the contiguous identifier interval [[id, extent id]].  The index
    materializes these extents plus a tag → nodes map, which gives the
    evaluator a fast path for descendant steps ([//l] = the l-tagged
    nodes whose identifier falls strictly inside a context extent,
    found by binary search instead of a subtree scan).

    An index is only meaningful for the document it was built from;
    querying nodes of another document through it is unchecked and
    returns garbage.

    An index is also how a document is edited ({!edit}): the new
    version shares every subtree the edit leaves in place with the
    indexed one, and comes with its own index, derived from this one
    instead of rebuilt.  Neither the indexed document nor its index is
    changed, so readers holding them are unaffected. *)

type t

val build : Tree.t -> t
(** One O(n) pass.  The argument must be a document root (identifier
    0, dense preorder numbering — anything {!Tree.of_spec}
    produced). @raise Invalid_argument otherwise. *)

val size : t -> int
(** Total number of nodes indexed. *)

val extent : t -> int -> int
(** [extent idx id]: identifier of the last node in the subtree rooted
    at [id] (the subtree is [id..extent idx id], inclusive). *)

val node : t -> int -> Tree.t
(** Node by identifier. *)

val by_tag : t -> string -> Tree.t array
(** All elements with the given tag, in document order (possibly
    empty). *)

val tag_ids : t -> string -> int array
(** Identifiers of all elements with the given tag, strictly
    ascending (document order).  The array is owned by the index: do
    not mutate it.  This is the form plan executors binary-search for
    interval joins against {!extent}. *)

val tags : t -> string list
(** Distinct element tags, sorted. *)

val descendants_with_tag :
  t -> context:Tree.t -> string -> Tree.t list
(** The l-tagged strict descendants of the context node, in document
    order — [O(log n + answers)]. *)

(** {2 Editing} *)

type position =
  | Into  (** as the target's last child *)
  | Before  (** as the target's preceding sibling *)
  | After  (** as the target's following sibling *)

type op =
  | Delete  (** remove each target's subtree *)
  | Replace of Tree.spec  (** put a copy of the content in its place *)
  | Insert of position * Tree.spec  (** add a copy of the content *)

type edited = {
  index : t;
      (** the new version's index; its document ([node index 0]) has
          dense preorder identifiers from 0, as {!Tree.of_spec} would
          number it *)
  copies : int list;  (** first identifier of each copy of the content *)
  parents : int list;
      (** surviving elements whose children changed, ascending (new
          identifiers) *)
  runs : (int * int * int) list;
      (** every node that survived the edit, as maximal runs
          [(old id, new id, length)] of consecutive identifiers,
          ascending; every other node of the new version is content *)
}

val edit : t -> op -> int list -> edited
(** [edit idx op targets] applies [op] at every target (ascending
    identifiers of [idx]'s document; a target inside another target's
    removed subtree goes with it).  A subtree that keeps its
    identifiers and holds no target is shared with [idx]'s document by
    reference, found from the extents in O(1); the walk builds only the
    root paths of the targets, the content copies and, when the edit
    changes the document's size before some node, the nodes from there
    on whose identifiers move.  The new index is derived, not built:
    its node array is a copy of [idx]'s with the built nodes written
    in, and every other array the edit leaves unchanged is [idx]'s own.
    @raise Invalid_argument if the targets are not ascending
    identifiers of the document, if [Insert (Into, _)] targets a text
    node, or if any other op targets the root. *)
