type position = Sxml.Index.position =
  | Into
  | Before
  | After

type t =
  | Insert of {
      pos : position;
      target : Sxpath.Ast.path;
      content : Sxml.Tree.spec;
    }
  | Delete of Sxpath.Ast.path
  | Replace of {
      target : Sxpath.Ast.path;
      content : Sxml.Tree.spec;
    }

let position_to_string = function
  | Into -> "into"
  | Before -> "before"
  | After -> "after"

let op = function
  | Insert _ -> Secview.Spec.Insert
  | Delete _ -> Secview.Spec.Delete
  | Replace _ -> Secview.Spec.Replace

let op_label u = Secview.Spec.write_op_to_string (op u)

let target = function
  | Insert { target; _ } -> target
  | Delete target -> target
  | Replace { target; _ } -> target
