module A = Sxpath.Ast

(* The optimizer mirrors the rewriting algorithm's table shape: for a
   sub-query and a context type it keeps one optimized path per element
   type the sub-query can reach, with the invariant that each path,
   evaluated at a context-type element, returns only nodes of its
   target type.  That invariant is what makes per-target qualifier
   decisions sound (a qualifier false at one reached type prunes only
   that type's entry) and what lets dead union branches disappear —
   Example 5.1's (a ∪ b)/c ↦ a/c.  The wildcard consequently expands
   into labels, exactly as Fig. 10's case (3) does.

   On recursive DTDs the [//] axis has no finite expansion; such
   sub-queries fall back to a single "coarse" entry carrying the
   original query text (with targets still tracked for emptiness
   detection), and coarse entries flow through compositions without
   per-target simplification. *)

type entry = {
  targets : (string * A.path) list;
  coarse : bool;
      (* when true, [targets] all share one path which may reach any of
         the target types; per-target reasoning is disabled *)
}

let empty_entry = { targets = []; coarse = false }

let is_empty_entry e = e.targets = []

let entry_path e =
  match e.targets with
  | [] -> A.Empty
  | (_, q) :: _ when e.coarse -> q
  | ts -> A.union_all (List.map snd ts)

let merge_targets lists =
  List.fold_left
    (fun acc (b, q) ->
      let rec add = function
        | [] -> [ (b, q) ]
        | (b', q') :: rest when String.equal b b' ->
          (b', A.union q' q) :: rest
        | e :: rest -> e :: add rest
      in
      add acc)
    [] (List.concat lists)

let coarse_entry path targets =
  { targets = List.map (fun b -> (b, path)) targets; coarse = true }

(* Everything the optimizer consults that depends on the DTD alone:
   built once per DTD and shared by every call (and every domain) that
   optimizes against it.  [//] expands through the identity view's
   recProc table, which fills one context type at a time, on first
   use. *)
type prepared = {
  dtd : Sdtd.Dtd.t;
  idview : View.t option;  (* identity view, for // expansion *)
}

let prepare dtd =
  {
    dtd;
    idview =
      (if Sdtd.Dtd.is_recursive dtd then None else Some (View.identity_of dtd));
  }

let prepared_dtd prep = prep.dtd

(* Per-call state: the memo over (sub-query, context type). *)
type ctx = {
  prep : prepared;
  memo : (A.path * string, entry) Hashtbl.t;
}

let make_ctx prep = { prep; memo = Hashtbl.create 64 }

let recrw ctx a = Rewrite.recrw (Option.get ctx.prep.idview) a

let children ctx a = Sdtd.Dtd.children_of ctx.prep.dtd a

let rec go ctx (p : A.path) (a : string) : entry =
  match Hashtbl.find_opt ctx.memo (p, a) with
  | Some e -> e
  | None ->
    let e = compute ctx p a in
    let e = { e with targets = List.filter (fun (_, q) -> q <> A.Empty) e.targets } in
    Hashtbl.replace ctx.memo (p, a) e;
    e

and compute ctx p a : entry =
  match p with
  | A.Empty -> empty_entry
  | A.Eps -> { targets = [ (a, A.Eps) ]; coarse = false }
  | A.Label l ->
    if List.mem l (children ctx a) then
      { targets = [ (l, A.Label l) ]; coarse = false }
    else empty_entry
  | A.Wildcard ->
    (* expand into labels (Fig. 10 case 3), preserving the per-target
       invariant *)
    {
      targets = List.map (fun c -> (c, A.Label c)) (children ctx a);
      coarse = false;
    }
  | A.Attribute _ ->
    (* outside the DTD model: keep as-is, a single opaque entry *)
    coarse_entry p []
  | A.Slash (p1, p2) -> (
    let first = go ctx p1 a in
    if is_empty_entry first then empty_entry
    else if first.coarse then begin
      (* compose coarsely with the original continuation *)
      let conts = List.map (fun (b, _) -> (b, go ctx p2 b)) first.targets in
      let reach =
        List.sort_uniq String.compare
          (List.concat_map (fun (_, e) -> List.map fst e.targets) conts)
      in
      if reach = [] then empty_entry
      else coarse_entry (A.slash (entry_path first) p2) reach
    end
    else begin
      let products =
        List.map
          (fun (b, q1) ->
            let cont = go ctx p2 b in
            if cont.coarse then
              (* a coarse tail poisons the composition *)
              `Coarse (b, q1, cont)
            else
              `Fine
                (List.map (fun (c, q2) -> (c, A.slash q1 q2)) cont.targets))
          first.targets
      in
      if
        List.exists (function `Coarse _ -> true | `Fine _ -> false) products
      then begin
        (* fall back: original p2 after the optimized-but-unsplit p1 *)
        let reach =
          List.sort_uniq String.compare
            (List.concat_map
               (fun (b, _) -> List.map fst (go ctx p2 b).targets)
               first.targets)
        in
        if reach = [] then empty_entry
        else coarse_entry (A.slash (entry_path first) p2) reach
      end
      else
        {
          targets =
            merge_targets
              (List.map
                 (function `Fine ts -> ts | `Coarse _ -> [])
                 products);
          coarse = false;
        }
    end)
  | A.Dslash p1 ->
    let closure = Image.descendant_or_self_types ctx.prep.dtd a in
    if Sdtd.Dtd.is_recursive ctx.prep.dtd then begin
      let reaches =
        List.concat_map
          (fun b -> List.map fst (go ctx p1 b).targets)
          closure
        |> List.sort_uniq String.compare
      in
      if reaches = [] then empty_entry else coarse_entry (A.dslash p1) reaches
    end
    else begin
      let parts =
        List.concat_map
          (fun (b, rr) ->
            let cont = go ctx p1 b in
            if cont.coarse then [] (* cannot happen: DTD non-recursive *)
            else List.map (fun (c, q) -> (c, A.slash rr q)) cont.targets)
          (recrw ctx a)
      in
      { targets = merge_targets [ parts ]; coarse = false }
    end
  | A.Union (p1, p2) -> (
    let e1 = go ctx p1 a in
    let e2 = go ctx p2 a in
    match (is_empty_entry e1, is_empty_entry e2) with
    | true, _ -> e2
    | _, true -> e1
    | false, false ->
      if e1.coarse || e2.coarse then
        coarse_entry
          (A.union (entry_path e1) (entry_path e2))
          (List.sort_uniq String.compare
             (List.map fst e1.targets @ List.map fst e2.targets))
      else if Simulate.contained ctx.prep.dtd p1 p2 a then e2
      else if Simulate.contained ctx.prep.dtd p2 p1 a then e1
      else { targets = merge_targets [ e1.targets; e2.targets ]; coarse = false })
  | A.Qualify (p1, q) -> (
    let base = go ctx p1 a in
    if is_empty_entry base then empty_entry
    else if base.coarse then begin
      let live =
        List.filter
          (fun (b, _) -> Image.bool_of_qual ctx.prep.dtd q b <> `False)
          base.targets
      in
      if live = [] then empty_entry
      else coarse_entry (A.qualify (entry_path base) q) (List.map fst live)
    end
    else
      {
        targets =
          List.filter_map
            (fun (b, qp) ->
              match Image.bool_of_qual ctx.prep.dtd q b with
              | `False -> None
              | `True -> Some (b, qp)
              | `Unknown -> (
                match simplify_qual_at ctx b q with
                | A.False -> None
                | rq -> Some (b, A.qualify qp rq)))
            base.targets;
        coarse = false;
      })

and simplify_qual_at ctx b (q : A.qual) : A.qual =
  match Image.bool_of_qual ctx.prep.dtd q b with
  | `True -> A.True
  | `False -> A.False
  | `Unknown -> (
    match q with
    | A.True | A.False -> q
    | A.Exists p ->
      if A.mem_attribute p then q
      else A.exists (entry_path (go ctx p b))
    | A.Eq (p, v) ->
      if A.mem_attribute p then q
      else (
        match entry_path (go ctx p b) with
        | A.Empty -> A.False
        | opt -> A.Eq (opt, v))
    | A.And (q1, q2) -> (
      let s1 = simplify_qual_at ctx b q1 in
      let s2 = simplify_qual_at ctx b q2 in
      match (implies ctx b q1 q2, implies ctx b q2 q1) with
      | true, _ -> s1
      | _, true -> s2
      | false, false -> A.qand s1 s2)
    | A.Or (q1, q2) -> (
      let s1 = simplify_qual_at ctx b q1 in
      let s2 = simplify_qual_at ctx b q2 in
      match (implies ctx b q1 q2, implies ctx b q2 q1) with
      | true, _ -> s2
      | _, true -> s1
      | false, false -> A.qor s1 s2)
    | A.Not q1 -> A.qnot (simplify_qual_at ctx b q1))

(* [q1] implies [q2] at b-elements: via path containment for the
   existential atoms the paper's C⁻ covers. *)
and implies ctx b q1 q2 =
  match (q1, q2) with
  | _ when A.qual_mem_attribute q1 || A.qual_mem_attribute q2 -> false
  | A.Exists p1, A.Exists p2 -> Simulate.contained ctx.prep.dtd p1 p2 b
  | A.Eq (p1, v1), A.Eq (p2, v2) ->
    v1 = v2 && Simulate.contained ctx.prep.dtd p1 p2 b
  | A.Eq (p1, _), A.Exists p2 -> Simulate.contained ctx.prep.dtd p1 p2 b
  | _ -> false

let run ?at prep p =
  let ctx = make_ctx prep in
  let a = Option.value at ~default:(Sdtd.Dtd.root prep.dtd) in
  let e = go ctx p a in
  (Sxpath.Simplify.factor (entry_path e), List.map fst e.targets)

let optimize_with_reach ?at dtd p =
  Trace.span "optimize" @@ fun () -> run ?at (prepare dtd) p

let optimize ?at dtd p = fst (optimize_with_reach ?at dtd p)

let optimize_prepared prep p =
  Trace.span "optimize" @@ fun () -> fst (run prep p)

let simplify_qual dtd a q = simplify_qual_at (make_ctx (prepare dtd)) a q
