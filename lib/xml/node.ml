(* The node record behind [Tree.t].  [Tree] re-exports it private, so
   outside this library nodes are read and never built; inside it,
   [Tree] builds documents from specs and [Index.edit] builds the
   nodes a new version does not share with the pinned one. *)

type t = { id : int; desc : desc }

and desc =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : t list;
}
