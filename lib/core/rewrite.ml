module A = Sxpath.Ast

type mode = [ `Precise | `Paper ]

exception Unsupported of string

(* ------------------------------------------------------------------ *)
(* View graph plumbing                                                *)

type graph = {
  view : View.t;
  dtd : Sdtd.Dtd.t;
  topo : string list;  (* reachable nodes, parents-first *)
}

let graph_of view =
  let dtd = View.dtd view in
  match Sdtd.Dtd.topological_order dtd with
  | None ->
    raise
      (Unsupported
         "recursive view DTD: unfold it first (use rewrite_with_height)")
  | Some topo -> { view; dtd; topo }

let children g a = Sdtd.Dtd.children_of g.dtd a
let sigma g a b = View.sigma_exn g.view ~parent:a ~child:b
let label_of = Sdtd.Unfold.label_of

(* ------------------------------------------------------------------ *)
(* recProc: all-paths translations for //                             *)

(* Left-factor a union of (prefix, tail) pairs: group by tail so that
   recrw(A,B) = ∪_tails (∪ prefixes)/tail, keeping shared prefixes
   factored as in the paper's symbolic-variable construction. *)
let factored_union contributions =
  let groups =
    List.fold_left
      (fun groups (prefix, tail) ->
        let rec insert = function
          | [] -> [ (tail, [ prefix ]) ]
          | (t, ps) :: rest when A.equal_path t tail ->
            (t, prefix :: ps) :: rest
          | g :: rest -> g :: insert rest
        in
        insert groups)
      [] contributions
  in
  A.union_all
    (List.map
       (fun (tail, prefixes) ->
         A.slash (A.union_all (List.rev prefixes)) tail)
       groups)

(* recrw(a, -) over the DAG below [a]: process nodes parents-first;
   each edge (p, c) contributes recrw(a,p)/σ(p,c) to c.  Results are
   returned as an association list, [a] (with ε) first, in topological
   order — the order [reach(//, a)] is consumed in. *)
let compute_recrw g a =
  let table : (string, A.path) Hashtbl.t = Hashtbl.create 16 in
  let contribs : (string, (A.path * A.path) list) Hashtbl.t =
    Hashtbl.create 16
  in
  Hashtbl.replace table a A.Eps;
  let out = ref [] in
  List.iter
    (fun p ->
      let here =
        if String.equal p a then Some A.Eps
        else
          match Hashtbl.find_opt contribs p with
          | None -> None (* not below [a] *)
          | Some pairs -> Some (factored_union (List.rev pairs))
      in
      match here with
      | None -> ()
      | Some q ->
        Hashtbl.replace table p q;
        out := (p, q) :: !out;
        List.iter
          (fun c ->
            let prev =
              Option.value (Hashtbl.find_opt contribs c) ~default:[]
            in
            Hashtbl.replace contribs c ((q, sigma g p c) :: prev))
          (children g p))
    g.topo;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* The dynamic program                                                *)
(*                                                                    *)
(* For every sub-query p' and view node A we keep the translation as  *)
(* an association list from reached view type B to the document query *)
(* leading from A-sources to B-sources ([`Precise]).  [`Paper] mode   *)
(* collapses the association list at every composition, reproducing   *)
(* the published combination rw(p1,A)/(∪_B rw(p2,B)).                 *)

type entry = (string * A.path) list

let merge_entries (entries : entry list) : entry =
  List.fold_left
    (fun acc entry ->
      List.fold_left
        (fun acc (b, q) ->
          let rec add = function
            | [] -> [ (b, q) ]
            | (b', q') :: rest when String.equal b b' ->
              (b', A.union q' q) :: rest
            | e :: rest -> e :: add rest
          in
          add acc)
        acc entry)
    [] entries

let drop_empty (entry : entry) : entry =
  List.filter (fun (_, q) -> not (A.is_empty q)) entry

(* Per-query state is the DP table alone; recProc entries depend on the
   view only and live in it (View.recproc), shared by every query. *)
type dp = {
  g : graph;
  mode : mode;
  recproc : (string * A.path) list Memo.t;
  table : (A.path * string, entry) Hashtbl.t;
}

let recrw_at dp a =
  Memo.find_or_add dp.recproc a (fun () -> compute_recrw dp.g a)

(* Collapse an entry to the paper's coarse form: every reached type is
   associated with the same union query. *)
let collapse mode (entry : entry) : entry =
  match mode with
  | `Precise -> entry
  | `Paper -> (
    match entry with
    | [] | [ _ ] -> entry
    | entries ->
      let q = A.union_all (List.map snd entries) in
      List.map (fun (b, _) -> (b, q)) entries)

let rec rw dp (p : A.path) (a : string) : entry =
  match Hashtbl.find_opt dp.table (p, a) with
  | Some e -> e
  | None ->
    let e = drop_empty (compute dp p a) in
    Hashtbl.replace dp.table (p, a) e;
    e

and compute dp p a =
  match p with
  | A.Empty -> []
  | A.Eps -> [ (a, A.Eps) ]
  | A.Label l ->
    List.filter_map
      (fun c ->
        if String.equal (label_of c) l then Some (c, sigma dp.g a c)
        else None)
      (children dp.g a)
  | A.Wildcard -> List.map (fun c -> (c, sigma dp.g a c)) (children dp.g a)
  | A.Attribute at ->
    (* attribute steps (the paper's deferred extension): valid when the
       view DTD declares the attribute on the context type; the source
       element carries the same attribute, so the step passes through.
       Undeclared attributes are simply invisible (∅ / false). *)
    if List.mem at (Sdtd.Dtd.attributes dp.g.dtd a) then
      [ ("@" ^ at, p) ]
    else []
  | A.Slash (p1, p2) -> (
    let first = collapse dp.mode (rw dp p1 a) in
    match dp.mode with
    | `Precise ->
      merge_entries
        (List.map
           (fun (b, q1) ->
             List.map (fun (c, q2) -> (c, A.slash q1 q2)) (rw dp p2 b))
           first)
    | `Paper ->
      (* qq = ∪_{B ∈ reach(p1,A)} rw(p2, B), applied to the single
         coarse translation of p1. *)
      let continuations = List.map (fun (b, _) -> rw dp p2 b) first in
      let qq =
        A.union_all
          (List.concat_map (fun e -> List.map snd e) continuations)
      in
      let reach =
        List.sort_uniq String.compare
          (List.concat_map (fun e -> List.map fst e) continuations)
      in
      if A.is_empty qq then []
      else
        let q1 = match first with (_, q) :: _ -> q | [] -> A.Empty in
        List.map (fun c -> (c, A.slash q1 qq)) reach)
  | A.Dslash p1 ->
    let entries =
      List.map
        (fun (b, rr) ->
          List.map (fun (c, q) -> (c, A.slash rr q)) (rw dp p1 b))
        (recrw_at dp a)
    in
    collapse dp.mode (merge_entries entries)
  | A.Union (p1, p2) ->
    collapse dp.mode (merge_entries [ rw dp p1 a; rw dp p2 a ])
  | A.Qualify (p1, q) -> (
    let base = rw dp p1 a in
    match dp.mode with
    | `Precise ->
      List.filter_map
        (fun (b, qp) ->
          match rw_qual dp q b with
          | A.False -> None
          | rq -> Some (b, A.qualify qp rq))
        base
    | `Paper ->
      (* p[q] ≡ p/ε[q]: the qualifier is rewritten at each reached
         type and the ε[q'] branches are unioned. *)
      let base = collapse dp.mode base in
      let qq =
        A.union_all
          (List.map
             (fun (b, _) -> A.qualify A.Eps (rw_qual dp q b))
             base)
      in
      if A.is_empty qq then []
      else
        let q1 = match base with (_, q) :: _ -> q | [] -> A.Empty in
        List.map (fun (b, _) -> (b, A.slash q1 qq)) base)

and rw_qual dp (q : A.qual) (a : string) : A.qual =
  match q with
  | A.True | A.False -> q
  | A.Exists p -> A.exists (A.union_all (List.map snd (rw dp p a)))
  | A.Eq (p, v) -> (
    match A.union_all (List.map snd (rw dp p a)) with
    | A.Empty -> A.False
    | p' -> A.Eq (p', v))
  | A.And (q1, q2) -> A.qand (rw_qual dp q1 a) (rw_qual dp q2 a)
  | A.Or (q1, q2) -> A.qor (rw_qual dp q1 a) (rw_qual dp q2 a)
  | A.Not q1 -> A.qnot (rw_qual dp q1 a)

(* ------------------------------------------------------------------ *)
(* Entry points                                                       *)

let make_dp ?(mode = `Precise) view =
  {
    g = graph_of view;
    mode;
    recproc = View.recproc view;
    table = Hashtbl.create 64;
  }

let factored entry = List.map (fun (b, q) -> (b, Sxpath.Simplify.factor q)) entry

let targets ?mode view p =
  let dp = make_dp ?mode view in
  factored (rw dp p (Sdtd.Dtd.root dp.g.dtd))

let rewrite ?mode view p =
  Trace.span "rewrite" @@ fun () ->
  let dp = make_dp ?mode view in
  let entry = rw dp p (Sdtd.Dtd.root dp.g.dtd) in
  Sxpath.Simplify.factor (A.union_all (List.map snd entry))

let rewrite_with_height ?mode view ~height p =
  if Trace.enabled () then Trace.value "rewrite.unfold_height" height;
  let unfolded = Trace.span "unfold" (fun () -> View.unfolded view ~height) in
  rewrite ?mode unfolded p

let recrw view a = factored (recrw_at (make_dp view) a)
