type t = {
  plan : Plan.t;
  vars : string array;
}

let plan t = t.plan

let vars t = t.vars

(* Same decomposition as the evaluator's descendant fast path: a path
   whose first step is the label [l], split as [l/rest].  [None] means
   the descendant step has no single-label head (//*, //., //(a|b),
   //@a) and the compiler must refuse. *)
let rec head_label = function
  | Sxpath.Ast.Label l -> Some (l, Sxpath.Ast.Eps)
  | Sxpath.Ast.Slash (p1, p2) -> (
    match head_label p1 with
    | Some (l, Sxpath.Ast.Eps) -> Some (l, p2)
    | Some (l, k) -> Some (l, Sxpath.Ast.Slash (k, p2))
    | None -> None)
  | Sxpath.Ast.Qualify (p1, q) -> (
    match head_label p1 with
    | Some (l, k) -> Some (l, Sxpath.Ast.Qualify (k, q))
    | None -> None)
  | Sxpath.Ast.Empty | Sxpath.Ast.Eps | Sxpath.Ast.Wildcard
  | Sxpath.Ast.Attribute _ | Sxpath.Ast.Dslash _ | Sxpath.Ast.Union _ ->
    None

exception Refuse of string

type slots = {
  mutable names : string list;  (* reversed *)
  mutable count : int;
}

let slot_of slots name =
  let rec find i = function
    | [] -> None
    | n :: _ when String.equal n name -> Some (slots.count - 1 - i)
    | _ :: rest -> find (i + 1) rest
  in
  match find 0 slots.names with
  | Some i -> i
  | None ->
    let i = slots.count in
    slots.names <- name :: slots.names;
    slots.count <- i + 1;
    i

let lower_value slots = function
  | Sxpath.Ast.Const c -> Plan.Const c
  | Sxpath.Ast.Var name -> Plan.Slot (slot_of slots name)

let rec lower slots (p : Sxpath.Ast.path) : Plan.t =
  match p with
  | Sxpath.Ast.Empty -> Plan.Nothing
  | Sxpath.Ast.Eps -> Plan.Self
  | Sxpath.Ast.Label l -> Plan.Child l
  | Sxpath.Ast.Wildcard -> Plan.Child_any
  | Sxpath.Ast.Attribute a -> Plan.Attr a
  | Sxpath.Ast.Slash (p1, p2) -> Plan.Seq (lower slots p1, lower slots p2)
  | Sxpath.Ast.Union (p1, p2) ->
    Plan.Branch (lower slots p1, lower slots p2)
  | Sxpath.Ast.Qualify (p1, q) ->
    Plan.Filter (lower slots p1, lower_qual slots q)
  | Sxpath.Ast.Dslash p1 -> (
    match head_label p1 with
    | Some (l, continuation) -> Plan.Desc (l, lower slots continuation)
    | None ->
      raise
        (Refuse
           (Printf.sprintf
              "descendant step //%s has no single-label head"
              (Sxpath.Print.to_string p1))))

and lower_qual slots (q : Sxpath.Ast.qual) : Plan.pred =
  match q with
  | Sxpath.Ast.True -> Plan.True
  | Sxpath.Ast.False -> Plan.False
  | Sxpath.Ast.Exists p -> Plan.Exists (lower slots p)
  | Sxpath.Ast.Eq (p, v) -> Plan.Eq (lower slots p, lower_value slots v)
  | Sxpath.Ast.And (a, b) ->
    Plan.And (lower_qual slots a, lower_qual slots b)
  | Sxpath.Ast.Or (a, b) -> Plan.Or (lower_qual slots a, lower_qual slots b)
  | Sxpath.Ast.Not a -> Plan.Not (lower_qual slots a)

let compile p =
  let slots = { names = []; count = 0 } in
  match lower slots p with
  | plan -> Ok { plan; vars = Array.of_list (List.rev slots.names) }
  | exception Refuse reason -> Error reason
