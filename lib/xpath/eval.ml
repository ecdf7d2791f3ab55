exception Unbound_variable of string

(* Context items: ordinary tree nodes, plus the virtual document node
   sitting above the root element (used by [eval_doc]). *)
type item =
  | Node of Sxml.Tree.t
  | Docnode of Sxml.Tree.t

let item_id = function Node n -> n.Sxml.Tree.id | Docnode _ -> -1

let item_children = function
  | Node n -> Sxml.Tree.children n
  | Docnode root -> [ root ]

(* The descendant-or-self axis ranges over element nodes (and the
   virtual document node): in the paper's model text is "str data"
   attached to elements, not an addressable node, and all the
   DTD-level algorithms (rewrite, optimize) reason about element types
   only.  Text values are reached through string-value comparisons. *)
let item_descendants_or_self item =
  match item with
  | Node n ->
    List.filter_map
      (fun x -> if Sxml.Tree.is_element x then Some (Node x) else None)
      (Sxml.Tree.descendants_or_self n)
  | Docnode root ->
    item
    :: List.filter_map
         (fun x -> if Sxml.Tree.is_element x then Some (Node x) else None)
         (Sxml.Tree.descendants_or_self root)

let sort_dedup_items items =
  let sorted =
    List.sort (fun a b -> Int.compare (item_id a) (item_id b)) items
  in
  let rec dedup = function
    | a :: (b :: _ as rest) when item_id a = item_id b -> dedup rest
    | a :: rest -> a :: dedup rest
    | [] -> []
  in
  dedup sorted

(* A step result: node items plus attribute string values (attribute
   steps leave the node world; only existence and equality tests can
   observe them). *)
type result = { nodes : item list; attrs : string list }

let empty_result = { nodes = []; attrs = [] }

let merge_results rs =
  {
    nodes = sort_dedup_items (List.concat_map (fun r -> r.nodes) rs);
    attrs = List.concat_map (fun r -> r.attrs) rs;
  }

let is_nonempty r = r.nodes <> [] || r.attrs <> []

(* One evaluation's state: what its context fixes, plus its own work
   meter, so evaluations on different domains never write one shared
   counter. *)
type cfg = {
  env : string -> string option;
  index : Sxml.Index.t option;
  mutable visits : int;
}

let visit cfg = cfg.visits <- cfg.visits + 1

let resolve cfg = function
  | Ast.Const c -> c
  | Ast.Var name -> (
    match cfg.env name with
    | Some c -> c
    | None -> raise (Unbound_variable name))

(* Decompose a path whose first step is a label: [l/rest].  Gives the
   index-based descendant fast path its shape: //l/rest = the l-tagged
   descendants, then rest. *)
let rec head_label = function
  | Ast.Label l -> Some (l, Ast.Eps)
  | Ast.Slash (p1, p2) -> (
    match head_label p1 with
    | Some (l, Ast.Eps) -> Some (l, p2)
    | Some (l, k) -> Some (l, Ast.Slash (k, p2))
    | None -> None)
  | Ast.Qualify (p1, q) -> (
    match head_label p1 with
    | Some (l, k) -> Some (l, Ast.Qualify (k, q))
    | None -> None)
  | Ast.Empty | Ast.Eps | Ast.Wildcard | Ast.Attribute _ | Ast.Dslash _
  | Ast.Union _ ->
    None

let rec eval_result cfg (p : Ast.path) (ctx : item list) : result =
  match p with
  | Ast.Empty -> empty_result
  | Ast.Eps -> { nodes = ctx; attrs = [] }
  | Ast.Label l ->
    let step item =
      visit cfg;
      List.filter
        (fun child -> Sxml.Tree.tag child = Some l)
        (item_children item)
    in
    {
      nodes =
        sort_dedup_items
          (List.concat_map
             (fun item -> List.map (fun n -> Node n) (step item))
             ctx);
      attrs = [];
    }
  | Ast.Wildcard ->
    let step item =
      visit cfg;
      List.filter Sxml.Tree.is_element (item_children item)
    in
    {
      nodes =
        sort_dedup_items
          (List.concat_map
             (fun item -> List.map (fun n -> Node n) (step item))
             ctx);
      attrs = [];
    }
  | Ast.Attribute a ->
    let values =
      List.filter_map
        (fun item ->
          visit cfg;
          match item with
          | Node n -> Sxml.Tree.attr n a
          | Docnode _ -> None)
        ctx
    in
    { nodes = []; attrs = values }
  | Ast.Slash (p1, p2) ->
    let mid = eval_result cfg p1 ctx in
    (* Attribute values have no children: only node results flow on. *)
    eval_result cfg p2 mid.nodes
  | Ast.Dslash p1 -> (
    match (cfg.index, head_label p1) with
    | Some index, Some (l, continuation) ->
      (* fast path: l-tagged descendants via the tag index *)
      let hits =
        List.concat_map
          (fun item ->
            visit cfg;
            match item with
            | Node n ->
              List.map
                (fun x -> Node x)
                (Sxml.Index.descendants_with_tag index ~context:n l)
            | Docnode _ ->
              List.map (fun x -> Node x)
                (Array.to_list (Sxml.Index.by_tag index l)))
          ctx
      in
      eval_result cfg continuation (sort_dedup_items hits)
    | _, _ ->
      let expanded =
        sort_dedup_items
          (List.concat_map
             (fun item ->
               visit cfg;
               item_descendants_or_self item)
             ctx)
      in
      eval_result cfg p1 expanded)
  | Ast.Union (p1, p2) ->
    merge_results [ eval_result cfg p1 ctx; eval_result cfg p2 ctx ]
  | Ast.Qualify (p1, q) ->
    let base = eval_result cfg p1 ctx in
    {
      base with
      nodes = List.filter (fun item -> eval_qual cfg q item) base.nodes;
    }

and eval_qual cfg (q : Ast.qual) (item : item) : bool =
  match q with
  | Ast.True -> true
  | Ast.False -> false
  | Ast.Exists p -> is_nonempty (eval_result cfg p [ item ])
  | Ast.Eq (p, v) ->
    let c = resolve cfg v in
    let r = eval_result cfg p [ item ] in
    List.exists (String.equal c) r.attrs
    || List.exists
         (fun it ->
           match it with
           | Node n -> Sxml.Tree.string_value_equal n c
           | Docnode _ -> false)
         r.nodes
  | Ast.And (a, b) -> eval_qual cfg a item && eval_qual cfg b item
  | Ast.Or (a, b) -> eval_qual cfg a item || eval_qual cfg b item
  | Ast.Not a -> not (eval_qual cfg a item)

let no_env : string -> string option = fun _ -> None

let nodes_of_items items =
  List.filter_map (function Node n -> Some n | Docnode _ -> None) items

module Ctx = struct
  type t = {
    cfg : cfg;  (* a template: each evaluation counts in its own copy *)
    root : Sxml.Tree.t;
    start : item;
  }

  let make ?(env = no_env) ?index ?(at = `Root) ~root () =
    let start =
      match at with `Root -> Node root | `Document -> Docnode root
    in
    { cfg = { env; index; visits = 0 }; root; start }

  let root t = t.root

  let env t = t.cfg.env

  let index t = t.cfg.index

  let cfg t = { t.cfg with visits = 0 }
end

let run ?visits ctx p =
  let cfg = Ctx.cfg ctx in
  let nodes = nodes_of_items (eval_result cfg p [ ctx.Ctx.start ]).nodes in
  Option.iter (fun m -> m := !m + cfg.visits) visits;
  nodes

let run_nodes ctx p vs =
  nodes_of_items
    (eval_result (Ctx.cfg ctx) p
       (sort_dedup_items (List.map (fun v -> Node v) vs)))
      .nodes

let check ctx q v = eval_qual (Ctx.cfg ctx) q (Node v)
