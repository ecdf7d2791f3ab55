(** Abstract syntax of the update language.

    An update names its targets with an XPath query of the same
    fragment the read path speaks ({!Sxpath.Ast.path}), written over
    the user's {e view} — update rewriting translates it through the
    view's σ-functions exactly like a read query.  New content is a
    single well-formed element ({!Sxml.Tree.spec}, so it carries no
    node identifiers until it is spliced into a document). *)

type position = Sxml.Index.position =
  | Into  (** append as the last child of each target *)
  | Before  (** new preceding sibling of each target *)
  | After  (** new following sibling of each target *)

type t =
  | Insert of {
      pos : position;
      target : Sxpath.Ast.path;
      content : Sxml.Tree.spec;
    }
  | Delete of Sxpath.Ast.path  (** remove each target subtree *)
  | Replace of {
      target : Sxpath.Ast.path;
      content : Sxml.Tree.spec;
    }  (** swap each target subtree for a copy of [content] *)

val position_to_string : position -> string
(** ["into"] / ["before"] / ["after"]. *)

val op : t -> Secview.Spec.write_op
(** The {!Secview.Spec.write_op} a group must hold to run this
    update. *)

val op_label : t -> string
(** ["insert"] / ["delete"] / ["replace"] — the audit spelling. *)

val target : t -> Sxpath.Ast.path
