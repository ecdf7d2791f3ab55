(** The paper's XPath fragment [C] (Section 2):

    {v p ::= ε | l | * | p/p | //p | p ∪ p | p[q]
      q ::= p | p = c | q ∧ q | q ∨ q | ¬q v}

    plus the special query ∅ and, beyond the paper, attribute steps
    [@a] (used only by the naive baseline of Section 6) and the literal
    qualifiers [true]/[false] (used internally by the optimizer when a
    qualifier is decided by DTD constraints).  Constants in equality
    qualifiers may be [$variables], bound at evaluation time — the
    paper treats [$wardNo] as a constant parameter. *)

type path =
  | Empty  (** ∅: returns the empty set over every tree *)
  | Eps  (** ε: the context node *)
  | Label of string
  | Wildcard
  | Attribute of string  (** [@a]; meaningful only inside qualifiers *)
  | Slash of path * path  (** p1/p2 *)
  | Dslash of path  (** //p (descendant-or-self, then p) *)
  | Union of path * path
  | Qualify of path * qual  (** p[q] *)

and qual =
  | True
  | False
  | Exists of path  (** [p] *)
  | Eq of path * value  (** [p = c] *)
  | And of qual * qual
  | Or of qual * qual
  | Not of qual

and value =
  | Const of string
  | Var of string  (** [$name], resolved via an environment *)

val equal_path : path -> path -> bool
val equal_qual : qual -> qual -> bool

(** {2 Smart constructors}

    They apply the ∅ and ε laws from Section 2 ([∅ ∪ p ≡ p],
    [p/∅ ≡ ∅], [ε/p ≡ p], [p[true] ≡ p], [p[false] ≡ ∅], …) and keep
    unions duplicate-free, so queries assembled by the rewriting and
    optimization algorithms stay compact. *)

val slash : path -> path -> path
val dslash : path -> path
val union : path -> path -> path
val union_all : path list -> path
val qualify : path -> qual -> path
val exists : path -> qual
val qand : qual -> qual -> qual
val qor : qual -> qual -> qual
val qnot : qual -> qual

val seq_of : path list -> path
(** [seq_of [p1; …; pn]] is [p1/…/pn] (ε when empty). *)

val union_branches : path -> path list
(** Flatten top-level unions into a list (∅ ↦ []). *)

val is_empty : path -> bool
(** Syntactically ∅ (the smart constructors propagate ∅ upward, so
    this is how rewriting detects unsatisfiable queries). *)

val size : path -> int
(** Number of AST nodes, the |p| of the paper's complexity bounds. *)

val qual_size : qual -> int

val subpaths : path -> path list
(** All sub-queries (paths appearing in [p], including inside
    qualifiers), each once, children before parents — the "ascending
    list Q" of Algorithm rewrite (Fig. 6). *)

val mem_attribute : path -> bool
(** Does the path contain an attribute step anywhere? *)

val qual_mem_attribute : qual -> bool

val variables : path -> string list
(** All [$variables], each once. *)

val substitute : (string -> string option) -> path -> path
(** Replace [$variables] by constants where the environment binds
    them. *)
