module Tree = Sxml.Tree
module Regex = Sdtd.Regex

let no_env : string -> string option = fun _ -> None

let abort fmt = Printf.ksprintf (fun s -> raise (Materialize.Abort s)) fmt

(* σ(A, B) from [source], in document order — or, when σ(A, B) is the
   child step B, a superset: all of [source]'s children, which the
   merge below filters by tag without building a list.  The
   interpreter runs only where the compiler refused the query or where
   the plan names a variable [env] leaves unbound: there the
   interpreter's lazier error behaviour is the reference. *)
let extract ~index ~env (x : View.extraction) (source : Tree.t) =
  match (x.query, x.plan) with
  | Sxpath.Ast.Label _, _ -> Tree.children source
  | _, Some plan
    when let vars = Splan.Compile.vars plan in
         Array.length vars = 0 || Array.for_all (fun v -> env v <> None) vars
    ->
    Splan.Exec.run plan ~index ~env source
  | _, (Some _ | None) ->
    Sxpath.Eval.run (Sxpath.Eval.Ctx.make ~env ~index ~root:source ()) x.query

let rec sorted = function
  | (a, _) :: ((b, _) :: _ as rest) -> String.compare a b <= 0 && sorted rest
  | [ _ ] | [] -> true

(* What one rendering fixes. *)
type walk = {
  env : string -> string option;
  spec : Spec.t;
  view : View.t;
  index : Sxml.Index.t;
  doc : Tree.t;
  accessible : Access.flags;
  buf : Buffer.t;
}

(* A view element's children are the candidates of its slots — one per
   element label of its production, holding σ's answer, plus one
   holding its source's children for its text — merged by document
   position, a node found under two labels going first under the
   earlier label.  A candidate counts when it is visible (accessible,
   or extracted for a dummy label), when it is text in the text slot,
   and when it carries the step's tag in a child-step slot.  The merge
   is written as top-level functions and loops so that it allocates
   nothing. *)
let counts w (c : View.content) i (n : Tree.t) =
  if i = Array.length c.extractions then
    Tree.is_text n && Access.flag w.accessible n.id
  else
    let x = c.extractions.(i) in
    (match x.query with
    | Sxpath.Ast.Label l -> (
      match n.desc with
      | Tree.Element e -> String.equal e.tag l
      | Tree.Text _ -> false)
    | _ -> true)
    && (x.dummy || Access.flag w.accessible n.id)

let rec skip w c i = function
  | n :: rest when not (counts w c i n) -> skip w c i rest
  | l -> l

(* The slot holding the next counted candidate, every slot advanced
   to its first counted one; [-1] when all are exhausted. *)
let next w (c : View.content) heads =
  let best = ref (-1) and best_id = ref max_int in
  for i = 0 to Array.length c.extractions do
    let l = skip w c i heads.(i) in
    heads.(i) <- l;
    match l with
    | (n : Tree.t) :: _ when n.id < !best_id ->
      best := i;
      best_id := n.id
    | _ -> ()
  done;
  !best

let pop heads i =
  match heads.(i) with
  | n :: rest ->
    heads.(i) <- rest;
    n
  | [] -> invalid_arg "View_text.pop"

let mismatch label (source : Tree.t) (c : View.content) =
  abort "children of <%s> (source node %d) do not match %s" label source.id
    (Regex.to_string c.model)

let rec element w label (source : Tree.t) =
  let c = View.content w.view label in
  let k = Array.length c.extractions in
  let slots = Array.make (k + 1) [] in
  for i = 0 to k - 1 do
    slots.(i) <- extract ~index:w.index ~env:w.env c.extractions.(i) source
  done;
  if c.pcdata then slots.(k) <- Tree.children source;
  (* the label word against the production first, as the construction
     does, before anything below is rendered *)
  let heads = Array.copy slots in
  let model = ref c.model and children = ref 0 and i = ref (next w c heads) in
  while !i >= 0 do
    ignore (pop heads !i : Tree.t);
    let sym = if !i = k then Regex.pcdata else c.extractions.(!i).child in
    (match Regex.deriv sym !model with
    | Regex.Empty -> mismatch label source c
    | r -> model := r);
    incr children;
    i := next w c heads
  done;
  if not (Regex.nullable !model) then mismatch label source c;
  let attrs =
    match source.desc with
    | Tree.Element { attrs = _ :: _; _ } ->
      let attrs =
        Access.accessible_attributes ~env:w.env ~accessible:w.accessible
          w.spec w.doc source
      in
      if sorted attrs then attrs
      else List.stable_sort (fun (a, _) (b, _) -> String.compare a b) attrs
    | Tree.Element _ | Tree.Text _ -> []
  in
  Sxml.Print.open_tag w.buf label attrs;
  if !children = 0 then Buffer.add_string w.buf "/>"
  else begin
    Buffer.add_char w.buf '>';
    Array.blit slots 0 heads 0 (k + 1);
    i := next w c heads;
    while !i >= 0 do
      (match pop heads !i with
      | { desc = Tree.Text s; _ } -> Sxml.Print.text w.buf s
      | n -> element w c.extractions.(!i).child n);
      i := next w c heads
    done;
    Sxml.Print.close_tag w.buf label
  end

let to_string ?(env = no_env) ?accessible ~spec ~view index =
  let doc = Sxml.Index.node index 0 in
  let accessible =
    match accessible with
    | Some flags -> flags
    | None -> Access.accessible_flags ~env spec doc
  in
  let buf = Buffer.create 4096 in
  let root = View.root view in
  match
    (match Tree.tag doc with
    | Some tag when String.equal tag root -> ()
    | Some tag ->
      abort "document root <%s> does not match the view root <%s>" tag root
    | None -> abort "document root is a text node");
    element { env; spec; view; index; doc; accessible; buf } root doc
  with
  | () -> Buffer.contents buf
  | exception Materialize.Abort _ -> ""

let digest ?env ?accessible ~spec ~view index =
  Digest.to_hex (Digest.string (to_string ?env ?accessible ~spec ~view index))
