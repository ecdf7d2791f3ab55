(** Access specifications S = (D, ann) (Section 3.2).

    [ann] is a partial map over the parent/child edges of the document
    DTD: for a production [A → α] and element type [B] in [α],
    [ann (A, B)] — when defined — is [Y], [\[q\]] (a qualifier of the
    fragment), or [N].  An undefined annotation means [B] children of
    [A] elements inherit the accessibility of their parent; an explicit
    annotation overrides it.  The root is [Y] by default and cannot be
    annotated otherwise.

    Annotations on text content use the pseudo-child {!Sdtd.Regex.pcdata}
    and are restricted to [Y]/[N] (a conditional annotation on raw
    PCDATA has no counterpart in the view-DTD machinery).

    Annotations on attributes — the extension the paper defers with
    "they can be easily incorporated" — use the pseudo-child ["@name"]
    for an attribute the element type declares; an attribute without an
    annotation inherits its owning element's accessibility.  Like
    PCDATA, attributes take [Y]/[N] only: a conditional attribute has
    no query-rewriting enforcement (the view DTD carries no per-
    attribute σ), so [Cond] on either is rejected. *)

type annot =
  | Yes
  | Cond of Sxpath.Ast.qual
      (** qualifier over the {e document} DTD, evaluated at the child *)
  | No

(** {2 Write grants}

    Updates are governed separately from read visibility: a group may
    modify [B] children of [A] elements only when the edge [(A, B)]
    carries an explicit write grant listing the operation.  The default
    is {e no write access} — a spec without grants is read-only, which
    keeps every pre-update policy file semantically unchanged. *)

type write_op =
  | Insert  (** insert new content into/before/after a target *)
  | Delete  (** delete a target subtree *)
  | Replace  (** replace a target subtree with new content *)

val all_write_ops : write_op list
val write_op_to_string : write_op -> string

type t

val make :
  ?write:((string * string) * write_op list) list ->
  Sdtd.Dtd.t ->
  ((string * string) * annot) list ->
  t
(** [make dtd anns] validates and freezes a specification.  [?write]
    lists the write grants per DTD edge (validated like annotations;
    granting an edge twice is an error; default: none).
    @raise Invalid_argument if an annotated pair [(a, b)] is not an
    edge of the DTD graph (with [b] possibly {!Sdtd.Regex.pcdata} when
    [a]'s production mentions PCDATA), if a pair is annotated twice, if
    the root would be annotated [N]/[Cond] from every parent — the root
    has no parent, so any [(­_, root)] edge is an ordinary edge — or if
    a [Cond] is placed on PCDATA. *)

val dtd : t -> Sdtd.Dtd.t
val annotation : t -> parent:string -> child:string -> annot option
val annotations : t -> ((string * string) * annot) list
(** In the order given to {!make}. *)

val writable : t -> parent:string -> child:string -> write_op -> bool
(** Whether the group holds a grant for [op] on the edge
    [(parent, child)] — [false] for any edge without a grant. *)

val variables : t -> string list
(** The [$parameters] appearing in conditional annotations, each
    once. *)

val pp_annot : Format.formatter -> annot -> unit
val pp : Format.formatter -> t -> unit
(** The paper's notation: productions interleaved with
    [ann(A, B) = …] lines (only annotated pairs are shown). *)

(** {2 The sidecar exchange format}

    One annotation per line — [parent child Y], [parent child N], or
    [parent child \[qualifier\]] — with [#]-comments and blank lines;
    PCDATA annotations use the literal child name [#PCDATA].  Write
    grants are [write parent child OPS] lines, where [OPS] is a
    comma-list of [insert]/[delete]/[replace], or [all]/[none] (the
    leading keyword means no element type named [write] can start an
    annotation line; none of the bundled DTDs declare one).  This is
    what the [secview] command-line tool reads. *)

val of_sidecar : Sdtd.Dtd.t -> string -> t
(** Parse sidecar text.
    @raise Failure with a [line: message] on malformed lines;
    @raise Invalid_argument for non-edges (as {!make}). *)

val of_sidecar_file : Sdtd.Dtd.t -> string -> t

val to_sidecar : t -> string
(** Inverse of {!of_sidecar} (modulo comments/blank lines). *)
