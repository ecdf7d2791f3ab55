type t = {
  plan : Plan.t;
  vars : string array;
  labels : string array;
  operators : int;
}

let plan t = t.plan

let vars t = t.vars

let labels t = t.labels

let operators t = t.operators

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

(* A table of distinct names, numbered in order of first use. *)
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

let table slots = Array.of_list (List.rev slots.names)

type st = {
  var_slots : slots;
  label_slots : slots;
  mutable ops : int;  (* operators numbered so far *)
}

(* the next preorder number *)
let number st =
  let id = st.ops in
  st.ops <- id + 1;
  id

let lower_value st = function
  | Sxpath.Ast.Const c -> Plan.Const c
  | Sxpath.Ast.Var name -> Plan.Slot (slot_of st.var_slots name)

(* Fix the continuations of [p], a qualifier's path whose finds go to
   [next] (see {!Plan.next}).  The qualifiers inside [p] were fixed
   when they were lowered. *)
let rec wire (p : Plan.t) (next : Plan.next) : Plan.t =
  let op : Plan.op =
    match p.op with
    | Seq (a, b) ->
      let b = wire b next in
      Seq (wire a (Into b), b)
    | Desc (l, k) -> Desc (l, wire k next)
    | Branch (a, b) -> Branch (wire a next, wire b next)
    | Filter (base, q) -> Filter (wire base (Check (q, next)), q)
    | (Nothing | Self | Child _ | Child_any | Attr _) as op -> op
  in
  { p with op; next }

(* Operators are numbered in preorder: each takes its number before
   its operands are lowered, left to right. *)
let rec lower st (p : Sxpath.Ast.path) : Plan.t =
  let id = number st in
  let op : Plan.op =
    match p with
    | Sxpath.Ast.Empty -> Nothing
    | Sxpath.Ast.Eps -> Self
    | Sxpath.Ast.Label l -> Child (slot_of st.label_slots l)
    | Sxpath.Ast.Wildcard -> Child_any
    | Sxpath.Ast.Attribute a -> Attr a
    | Sxpath.Ast.Slash (p1, p2) ->
      let a = lower st p1 in
      Seq (a, lower st p2)
    | Sxpath.Ast.Union (p1, p2) ->
      let a = lower st p1 in
      Branch (a, lower st p2)
    | Sxpath.Ast.Qualify (p1, q) ->
      let a = lower st p1 in
      Filter (a, lower_qual st q)
    | Sxpath.Ast.Dslash p1 -> (
      match head_label p1 with
      | Some (l, continuation) ->
        let l = slot_of st.label_slots l in
        Desc (l, lower st continuation)
      | None ->
        raise
          (Refuse
             (Printf.sprintf "descendant step //%s has no single-label head"
                (Sxpath.Print.to_string p1))))
  in
  { id; op; next = Accept }

and lower_qual st (q : Sxpath.Ast.qual) : Plan.pred =
  let pid = number st in
  let test : Plan.test =
    match q with
    | Sxpath.Ast.True -> True
    | Sxpath.Ast.False -> False
    | Sxpath.Ast.Exists p -> Exists (wire (lower st p) Accept)
    | Sxpath.Ast.Eq (p, v) ->
      let p = lower st p in
      let v = lower_value st v in
      Eq (wire p (Equal v), v)
    | Sxpath.Ast.And (a, b) ->
      let a = lower_qual st a in
      And (a, lower_qual st b)
    | Sxpath.Ast.Or (a, b) ->
      let a = lower_qual st a in
      Or (a, lower_qual st b)
    | Sxpath.Ast.Not a -> Not (lower_qual st a)
  in
  { pid; test }

let compile p =
  let st =
    {
      var_slots = { names = []; count = 0 };
      label_slots = { names = []; count = 0 };
      ops = 0;
    }
  in
  match lower st p with
  | plan ->
    Ok
      {
        plan;
        vars = table st.var_slots;
        labels = table st.label_slots;
        operators = st.ops;
      }
  | exception Refuse reason -> Error reason
