module A = Sxpath.Ast
module Dtd = Sdtd.Dtd

type t =
  | Denied_empty of string
  | Trivial
  | Needs_eval

let label = function
  | Denied_empty _ -> "denied"
  | Trivial -> "trivial"
  | Needs_eval -> "eval"

let classify prep q =
  let vdtd = Optimize.prepared_dtd prep in
  let witness = ref None in
  let note w = if !witness = None then witness := Some w in
  let issue = function
    | Walker.Dead_step (s, at) -> note (Walker.dead_step_message vdtd (s, at))
    | Walker.Undeclared_attribute (at, cs) ->
      note
        (Printf.sprintf "attribute @%s is declared on none of %s" at
           (Walker.comma cs))
  in
  let qual_hook ctxs qq =
    let live =
      List.filter
        (fun b ->
          (not (Dtd.mem vdtd b)) || Image.bool_of_qual vdtd qq b <> `False)
        ctxs
    in
    if live = [] && ctxs <> [] then
      note
        (Printf.sprintf "qualifier [%s] fails at every %s by DTD constraints"
           (Sxpath.Print.qual_to_string qq)
           (Walker.comma ctxs));
    live
  in
  let r = Walker.reach ~issue ~qual_hook vdtd [ Dtd.root vdtd ] q in
  if r = [] then
    Denied_empty
      (Option.value !witness
         ~default:"the query matches nothing under the view DTD")
  else if List.for_all (fun t -> String.length t > 0 && t.[0] = '@') r then
    Denied_empty
      "the query yields only attribute values, which top-level evaluation \
       drops — the answer is the empty node set on every instance"
  else
    let opt =
      try Optimize.optimize_prepared prep q with Image.Too_large -> q
    in
    if A.is_empty opt then
      Denied_empty
        (Option.value !witness
           ~default:
             "the optimizer reduces the query to the empty path under the \
              view DTD")
    else if A.equal_path opt A.Eps then Trivial
    else Needs_eval
