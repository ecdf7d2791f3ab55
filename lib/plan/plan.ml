(* Physical-plan operator tree for the fragment.  One constructor per
   physical operator, not per AST form: descendant steps only exist in
   the label-headed shape the executor can answer with a binary-search
   interval join, labels are slots into the plan's label table
   (resolved to tag codes once per run), and [$var] references are
   slots into its variable table.

   Every operator carries its preorder number, fixed by the compiler:
   an operator's first child is [id + 1], and predicate subtrees are
   numbered inline.  It is the operator's slot in the executor's work
   counters and in explain's tree. *)

type value =
  | Const of string
  | Slot of int  (* index into {!Compile.vars} *)

type t = {
  id : int;
  op : op;
  next : next;  (* where a probe sends what this operator finds *)
}

and op =
  | Nothing  (* the empty query #empty *)
  | Self  (* ε *)
  | Child of int  (* child step l: a slot into {!Compile.labels} *)
  | Child_any  (* child step * *)
  | Attr of string  (* attribute step @a: string values, no nodes *)
  | Seq of t * t  (* p1/p2 *)
  | Desc of int * t  (* //l, l a label slot, then continuation: interval join *)
  | Branch of t * t  (* p1 ∪ p2: sorted merge *)
  | Filter of t * pred  (* p[q]: per-node probe with short-circuit *)

(* A qualifier's path runs as a probe: node at a time from one context,
   each operator handing what it finds to its continuation and stopping
   at the first success.  The compiler fixes every continuation when it
   lowers the qualifier, so a probe builds none.  A set-at-a-time
   operator's finds are its result: it carries [Accept], unread. *)
and next =
  | Accept  (* [Exists] holds *)
  | Equal of value
      (* [Eq] holds if the node's string value, or the attribute value,
         equals the value *)
  | Into of t
      (* a [Seq] head: probe [t] from the node; an attribute value
         goes no further *)
  | Check of pred * next
      (* a [Filter] base: the node goes on if it passes the predicate;
         an attribute value goes on unchecked *)

and pred = {
  pid : int;
  test : test;
}

and test =
  | True
  | False
  | Exists of t
  | Eq of t * value
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
