(** XML document trees.

    Nodes carry a unique integer identifier assigned in document
    (preorder) order, so comparing identifiers compares document order
    and node sets can be deduplicated cheaply.  Trees are immutable;
    they are built either through {!Builder}, the {!Parse} module, or
    {!of_spec} below.

    Following the paper (Section 2), a tree is either an element node
    with a tag and an ordered list of children, or a text node carrying
    PCDATA.  Elements additionally carry attributes: the paper's model
    is element-only, but its naive baseline (Section 6) stores an
    [@accessibility] attribute on every element, so the substrate
    supports them. *)

type t = Node.t = private {
  id : int;  (** preorder position; unique within a document *)
  desc : desc;
}

and desc = Node.desc = private
  | Element of element
  | Text of string

and element = Node.element = private {
  tag : string;
  attrs : (string * string) list;  (** sorted by attribute name *)
  children : t list;
}

(** Convenient construction language, independent of node identifiers:
    identifiers are assigned when a [spec] is frozen into a document
    with {!of_spec}. *)
type spec =
  | E of string * (string * string) list * spec list  (** element *)
  | T of string  (** text *)

val of_spec : spec -> t
(** [of_spec s] freezes [s] into a document whose root has id 0 and
    whose nodes are numbered in preorder. *)

val to_spec : t -> spec
(** Inverse of {!of_spec} (identifiers are dropped). *)

val elem : string -> ?attrs:(string * string) list -> spec list -> spec
(** [elem tag children] builds an element spec; attributes default to
    none and are sorted by name. *)

val text : string -> spec

val tag : t -> string option
(** Tag of an element node; [None] on text nodes. *)

val is_element : t -> bool
val is_text : t -> bool

val text_value : t -> string option
(** PCDATA of a text node; [None] on elements. *)

val children : t -> t list
(** Children of an element; [[]] on text nodes. *)

val element_children : t -> t list
(** Children that are elements. *)

val attr : t -> string -> string option
(** Attribute lookup on element nodes. *)

val string_value : t -> string
(** Concatenation of all PCDATA in the subtree, in document order. *)

val string_value_equal : t -> string -> bool
(** [string_value_equal n s] is [String.equal (string_value n) s],
    decided in place: the text nodes are compared against [s] where
    they lie, without building the string value.  What both query
    engines' [=] qualifiers compare with. *)

val descendants_or_self : t -> t list
(** Subtree in document (preorder) order, including text nodes. *)

val size : t -> int
(** Number of nodes (elements and text) in the subtree. *)

val depth : t -> int
(** Height of the subtree: a leaf has depth 1. *)

val count_elements : t -> int

val fold : ('a -> t -> 'a) -> 'a -> t -> 'a
(** Preorder fold over the subtree. *)

val iter : (t -> unit) -> t -> unit

val find_all : (t -> bool) -> t -> t list
(** All subtree nodes satisfying the predicate, in document order. *)

val equal_structure : t -> t -> bool
(** Structural equality ignoring node identifiers. *)

val compare_doc_order : t -> t -> int
(** Compare by document order (only meaningful within one document). *)

val sort_dedup : t list -> t list
(** Sort a node list into document order and remove duplicates
    (identifier-based). *)

val with_attr : t -> string -> string -> t
(** [with_attr n k v] returns a copy of the whole node (same ids) with
    attribute [k]=[v] added to this element.  Used by the naive
    baseline's annotation pass; it rebuilds only the spine above
    nothing — the node itself — so the result shares children. *)

val map_attrs : (t -> (string * string) list) -> t -> t
(** [map_attrs f doc] rebuilds [doc], replacing each element's
    attribute list by [f node] (sorted by name).  Node identifiers are
    preserved.  Used to annotate documents with accessibility
    attributes. *)

val pp : Format.formatter -> t -> unit
(** Debug printer: compact one-line XML. *)
