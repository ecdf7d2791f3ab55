(** Document Type Definitions.

    A DTD is [(Ele, Rg, r)] in the paper's notation: a finite set of
    element types with one production each, and a distinguished root
    type.  Productions are {!Regex.t}; the paper's normal form is
    checked by {!in_normal_form}. *)

type t
(** A value carries its graph facts — {!children_of}, {!reachable},
    {!recursive_types}, {!is_recursive}, {!topological_order} —
    computed when it is built ({!create}, {!with_production},
    {!restrict_reachable}), so asking for them is a lookup. *)

val create :
  ?attlist:(string * string list) list ->
  root:string ->
  (string * Regex.t) list ->
  t
(** [create ~root prods] builds a DTD.  Element types referenced by a
    production but not declared get an implicit [EMPTY] (ε) production,
    mirroring how hand-written DTD fragments are usually read.
    [attlist] declares attribute names per element type (the paper's
    model is element-only, but its extension to attributes — which the
    paper calls easy — is supported throughout this implementation).
    @raise Invalid_argument on duplicate declarations, if [root] is
    undeclared and unreferenced, or if an attlist entry names an
    undeclared element type. *)

val attributes : t -> string -> string list
(** Declared attributes of an element type (empty if none). *)

val with_attributes : t -> string -> string list -> t
(** Replace one element type's attribute list. *)

val root : t -> string

val stamp : t -> int
(** A process-unique identifier assigned at creation, usable as a
    cache key by analyses that memoize per-DTD results. *)

val element_types : t -> string list
(** All element types, root first, then the rest in declaration order. *)

val mem : t -> string -> bool
val production : t -> string -> Regex.t
(** @raise Not_found if the type is undeclared. *)

val production_opt : t -> string -> Regex.t option

val children_of : t -> string -> string list
(** Element types occurring in the production of the given type (the
    outgoing edges in the DTD graph), without duplicates. *)

val size : t -> int
(** |D|: number of element types plus total production size, the
    measure used in the paper's complexity claims. *)

val in_normal_form : t -> bool
(** All productions classify under {!Regex.shape}. *)

val equal : t -> t -> bool
(** Same root, same element types and pointwise-equal productions. *)

val with_production : t -> string -> Regex.t -> t
(** Functional update/addition of one production (keeps the root). *)

val restrict_reachable : t -> t
(** Drop element types not reachable from the root. *)

val reachable : t -> string list
(** Element types reachable from the root (root included), in BFS
    order. *)

val is_recursive : t -> bool
(** Does some element type reach itself through productions? *)

val recursive_types : t -> string list
(** Element types lying on a cycle of the DTD graph. *)

val topological_order : t -> string list option
(** Reachable element types in topological (parents-first) order, or
    [None] when the DTD is recursive. *)

val min_height : t -> string -> int
(** Minimum element-nesting height of any finite instance rooted at the
    given type: 1 for a type with ε/str content, [1 + min over words of
    max over children] otherwise.  [max_int] for types with no finite
    instance (inconsistent types). *)

val is_consistent : t -> bool
(** Every reachable type admits a finite instance. *)

val pp : Format.formatter -> t -> unit
(** DTD-declaration syntax, one [<!ELEMENT ...>] per line, root first. *)

val to_string : t -> string
