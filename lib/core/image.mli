(** Image graphs (Section 5.1): the sub-structure of a DTD graph that a
    query can traverse from a given element type, together with the
    qualifier constraints collected along the way.  Image graphs drive
    the approximate containment test ({!Simulate}) and the
    DTD-constraint evaluation of qualifiers used by {!Optimize}.

    Qualifier nodes are stored separately from element children and
    carry labels of the form ["[]"] (plain existence),
    ["[]=<serialized>"] (an equality atom [p = c]; it matches only the
    same atom on the other side, since the graph does not record which
    nodes the value test applies to), or ["[]?<serialized>"] (opaque:
    a boolean combination the graph structure cannot represent; it
    matches only a syntactically identical qualifier on the other
    side).  When a union merges two qualified roots, the merged node is
    marked {e ambiguous}: its qualifiers only hold on one branch, so
    the simulation treats them as unusable on the simulated side and
    as unsatisfiable on the simulating side — a sound approximation
    the paper's construction glosses over.

    Deciding qualifiers ([bool(\[q\], A)]) uses the three families of
    structural DTD constraints of Example 5.1:
    - {e non-existence}: the image of the qualifier path is empty;
    - {e co-existence}: the path is guaranteed non-empty on every
      instance (concatenation members that cannot be skipped);
    - {e exclusive}: a conjunction needs two disjoint child sets under
      a production whose words carry at most one element. *)

type node = {
  id : int;
  label : string;
  mutable kids : node list;
  mutable quals : node list;  (** '[]'-labeled qualifier roots *)
  mutable ambiguous : bool;
  mutable ends : node list;
      (** on a '[]' qualifier root: the frontier of the qualifier's
          image, whose root-to-frontier paths are the ways the
          qualifier can hold (an opaque qualifier is its own end);
          empty on every other node *)
}

type t = {
  root : node;
  frontier : node list;  (** nodes the query's results correspond to *)
}

exception Too_large
(** Raised by {!image} when construction exceeds its node budget
    (deeply nested descendant steps over unions can multiply work).
    Callers treat it as "undecided": {!bool_of_qual} absorbs it into
    [`Unknown]; {!Simulate.contained} into "not contained". *)

(** Implementation note: the pure schema-level analyses ({!reach},
    {!guaranteed}, {!bool_of_qual}, {!descendant_or_self_types}) are
    memoized {e per domain} ([Domain.DLS]), keyed by
    {!Sdtd.Dtd.stamp} — nested descendant steps would otherwise
    recompute reachability once per closure type per nesting level.
    Memory grows with the number of distinct DTDs analyzed per domain
    (servers typically hold a handful).  Each public entry point is
    guarded by a per-domain mutex, so threads sharing a domain may
    call concurrently; domains never contend with each other. *)

val image : Sdtd.Dtd.t -> Sxpath.Ast.path -> string -> t option
(** [image dtd p a]: the image graph of [p] at element type [a], or
    [None] when [p] can reach nothing there (the non-existence
    constraint).  Dead branches that stopped matching before the
    frontier are pruned.  Works on recursive DTDs (the graph then has
    cycles; {!Simulate} is coinductive). *)

val bool_of_qual :
  Sdtd.Dtd.t -> Sxpath.Ast.qual -> string -> [ `True | `False | `Unknown ]
(** [bool(\[q\], A)]: decide a qualifier from DTD constraints alone.
    Sound in both directions: [`True] ⇒ holds on every instance,
    [`False] ⇒ holds on none. *)

val guaranteed : Sdtd.Dtd.t -> Sxpath.Ast.path -> string -> bool
(** Is [v⟦p⟧] non-empty at every [a]-element of every instance?
    (Conservative: [true] is a guarantee, [false] says nothing.) *)

val requires_child : Sxpath.Ast.path -> bool
(** Syntactic check: can [p] only ever produce strict descendants of
    the context node?  (Conservative in the same direction.)  Used by
    the exclusive-constraint rule. *)

val descendant_or_self_types : Sdtd.Dtd.t -> string -> string list
(** Element types reachable downward from a type (itself included),
    BFS order — the schema-level [reach(//, A)]. *)

val reach : Sdtd.Dtd.t -> Sxpath.Ast.path -> string -> string list
(** Element types the path can reach from a type (an over-approximation
    that already discards branches whose qualifiers are decided
    false). *)

val size : t -> int
(** Distinct nodes in the graph (qualifier subgraphs included). *)

val pp : Format.formatter -> t -> unit
(** Debug rendering: one [label -> kids | quals] line per node. *)
