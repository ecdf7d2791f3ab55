module A = Sxpath.Ast
module R = Sdtd.Regex

type node = {
  id : int;
  label : string;
  mutable kids : node list;
  mutable quals : node list;
  mutable ambiguous : bool;
  mutable ends : node list;
}

type t = {
  root : node;
  frontier : node list;
}

exception Too_large

(* Image graphs of reasonable queries are small, but deeply nested //
   over unions can multiply construction work; rather than risk
   exponential blow-up we budget node allocations per top-level
   analysis and let callers treat overflow as "undecided" (sound in
   every use: qualifiers stay `Unknown, containment is not claimed). *)
let node_budget = 20_000

(* All mutable analysis state — the construction budget, the node-id
   counter, and the schema-level memo tables — lives in one
   domain-local record.  Domains never share it, so parallel workers
   analyze without synchronizing with each other; threads *within* a
   domain do share it, so the public entry points serialize on
   [mlock] (the lock is uncontended whenever a domain runs a single
   worker, which is the server's layout). *)
type memo = {
  mlock : Mutex.t;
  mutable active : bool;
  mutable nodes_left : int;
  mutable counter : int;
  reach_cache : (int * Sxpath.Ast.path * string, string list) Hashtbl.t;
  dos_cache : (int * string, string list) Hashtbl.t;
  guaranteed_cache : (int * Sxpath.Ast.path * string, bool) Hashtbl.t;
  qual_cache :
    (int * Sxpath.Ast.qual * string, [ `True | `False | `Unknown ]) Hashtbl.t;
}

let memo_key : memo Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        mlock = Mutex.create ();
        active = false;
        nodes_left = node_budget;
        counter = 0;
        reach_cache = Hashtbl.create 512;
        dos_cache = Hashtbl.create 128;
        guaranteed_cache = Hashtbl.create 512;
        qual_cache = Hashtbl.create 512;
      })

let memo () = Domain.DLS.get memo_key

let with_budget f =
  let m = memo () in
  if m.active then f ()
  else begin
    m.active <- true;
    m.nodes_left <- node_budget;
    Fun.protect ~finally:(fun () -> m.active <- false) f
  end

let fresh label =
  let m = memo () in
  if m.active then begin
    m.nodes_left <- m.nodes_left - 1;
    if m.nodes_left <= 0 then raise Too_large
  end;
  m.counter <- m.counter + 1;
  { id = m.counter; label; kids = []; quals = []; ambiguous = false;
    ends = [] }

let children dtd a = Sdtd.Dtd.children_of dtd a

let dedup_nodes nodes =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun n ->
      if Hashtbl.mem seen n.id then false
      else begin
        Hashtbl.add seen n.id ();
        true
      end)
    nodes

(* ------------------------------------------------------------------ *)
(* Structural facts about productions                                 *)

(* Every word of L(rg) contains the symbol l. *)
let rec mandatory_symbol rg l =
  match rg with
  | R.Empty -> true (* vacuously: no words at all *)
  | R.Epsilon -> false
  | R.Str -> String.equal l R.pcdata
  | R.Elt x -> String.equal x l
  | R.Seq rs -> List.exists (fun r -> mandatory_symbol r l) rs
  | R.Choice rs -> List.for_all (fun r -> mandatory_symbol r l) rs
  | R.Star _ -> false

(* Every word of L(rg) contains at least one symbol from the set. *)
let rec mandatory_one_of rg labels =
  match rg with
  | R.Empty -> true
  | R.Epsilon | R.Str -> false
  | R.Elt x -> List.mem x labels
  | R.Seq rs -> List.exists (fun r -> mandatory_one_of r labels) rs
  | R.Choice rs -> List.for_all (fun r -> mandatory_one_of r labels) rs
  | R.Star _ -> false

(* Every word of L(rg) contains at least one element symbol. *)
let rec always_has_element = function
  | R.Empty -> true
  | R.Epsilon | R.Str -> false
  | R.Elt _ -> true
  | R.Seq rs -> List.exists always_has_element rs
  | R.Choice rs -> List.for_all always_has_element rs
  | R.Star _ -> false

(* Some word of L(rg) contains an element symbol (over-approximated by
   label presence, which errs on the safe side of the exclusive
   rule). *)
let can_have_element rg = R.labels rg <> []

(* Every word of L(rg) contains at most one element symbol — the
   "exclusive" structural constraint of disjunctive productions. *)
let rec at_most_one_element = function
  | R.Empty | R.Epsilon | R.Str | R.Elt _ -> true
  | R.Choice rs -> List.for_all at_most_one_element rs
  | R.Star r -> not (can_have_element r)
  | R.Seq rs ->
    List.for_all at_most_one_element rs
    && List.length (List.filter can_have_element rs) <= 1

(* ------------------------------------------------------------------ *)
(* Syntactic path facts                                                *)

let rec requires_child = function
  | A.Eps | A.Attribute _ -> false
  | A.Empty -> true (* vacuous: no witnesses at all *)
  | A.Label _ | A.Wildcard -> true
  | A.Slash (p1, p2) -> requires_child p1 || requires_child p2
  | A.Dslash p -> requires_child p
  | A.Union (p1, p2) -> requires_child p1 && requires_child p2
  | A.Qualify (p, _) -> requires_child p

(* Could p yield the context node itself?  (Over-approximation.) *)
let rec can_match_self = function
  | A.Eps -> true
  | A.Empty | A.Label _ | A.Wildcard | A.Attribute _ -> false
  | A.Slash (p1, p2) -> can_match_self p1 && can_match_self p2
  | A.Dslash p -> can_match_self p
  | A.Union (p1, p2) -> can_match_self p1 || can_match_self p2
  | A.Qualify (p, _) -> can_match_self p

(* ------------------------------------------------------------------ *)
(* Reachability of element types through a path                        *)

let descendant_or_self_types dtd a =
  let m = memo () in
  let key = (Sdtd.Dtd.stamp dtd, a) in
  match Hashtbl.find_opt m.dos_cache key with
  | Some r -> r
  | None ->
    let seen = Hashtbl.create 16 in
    let queue = Queue.create () in
    Hashtbl.add seen a ();
    Queue.add a queue;
    let out = ref [] in
    while not (Queue.is_empty queue) do
      let t = Queue.pop queue in
      out := t :: !out;
      List.iter
        (fun c ->
          if not (Hashtbl.mem seen c) then begin
            Hashtbl.add seen c ();
            Queue.add c queue
          end)
        (children dtd t)
    done;
    let r = List.rev !out in
    Hashtbl.replace m.dos_cache key r;
    r

let rec reach dtd p a =
  let m = memo () in
  let key = (Sdtd.Dtd.stamp dtd, p, a) in
  match Hashtbl.find_opt m.reach_cache key with
  | Some r -> r
  | None ->
    let r = compute_reach dtd p a in
    Hashtbl.replace m.reach_cache key r;
    r

and compute_reach dtd p a =
  match p with
  | A.Empty | A.Attribute _ -> []
  | A.Eps -> [ a ]
  | A.Label l -> if List.mem l (children dtd a) then [ l ] else []
  | A.Wildcard -> children dtd a
  | A.Slash (p1, p2) ->
    List.sort_uniq String.compare
      (List.concat_map (fun b -> reach dtd p2 b) (reach dtd p1 a))
  | A.Dslash p1 ->
    List.sort_uniq String.compare
      (List.concat_map (fun b -> reach dtd p1 b)
         (descendant_or_self_types dtd a))
  | A.Union (p1, p2) ->
    List.sort_uniq String.compare (reach dtd p1 a @ reach dtd p2 a)
  | A.Qualify (p1, q) ->
    List.filter (fun b -> bool_of_qual dtd q b <> `False) (reach dtd p1 a)

(* ------------------------------------------------------------------ *)
(* Guaranteed non-emptiness (co-existence constraints)                 *)

and guaranteed dtd p a =
  let m = memo () in
  let key = (Sdtd.Dtd.stamp dtd, p, a) in
  match Hashtbl.find_opt m.guaranteed_cache key with
  | Some r -> r
  | None ->
    let r = compute_guaranteed dtd p a in
    Hashtbl.replace m.guaranteed_cache key r;
    r

and compute_guaranteed dtd p a =
  match p with
  | A.Empty | A.Attribute _ -> false
  | A.Eps -> true
  | A.Label l -> mandatory_symbol (Sdtd.Dtd.production dtd a) l
  | A.Wildcard -> always_has_element (Sdtd.Dtd.production dtd a)
  | A.Slash (p1, p2) ->
    guaranteed dtd p1 a
    && (match reach dtd p1 a with
       | [] -> false
       | bs -> List.for_all (fun b -> guaranteed dtd p2 b) bs)
  | A.Dslash p1 -> guaranteed dtd p1 a (* self counts; deeper is a bonus *)
  | A.Union _ -> (
    (* A union of guaranteed-nothing branches can still be guaranteed
       jointly: b ∪ c under a -> (b | c).  Recognize unions whose
       branches all start with a plain label step and whose
       continuations (if any) are guaranteed there. *)
    let branch_label = function
      | A.Label l -> Some (l, None)
      | A.Slash (A.Label l, rest) -> Some (l, Some rest)
      | _ -> None
    in
    let branches = A.union_branches p in
    if List.exists (fun b -> guaranteed dtd b a) branches then true
    else
      match
        List.map branch_label branches
        |> List.fold_left
             (fun acc b ->
               match (acc, b) with
               | Some acc, Some entry -> Some (entry :: acc)
               | _, _ -> None)
             (Some [])
      with
      | None -> false
      | Some entries ->
        let labels = List.map fst entries in
        mandatory_one_of (Sdtd.Dtd.production dtd a) labels
        && List.for_all
             (fun (l, rest) ->
               match rest with
               | None -> true
               | Some rest ->
                 Sdtd.Dtd.mem dtd l && guaranteed dtd rest l)
             entries)
  | A.Qualify (p1, q) ->
    guaranteed dtd p1 a
    && (match reach dtd p1 a with
       | [] -> false
       | bs -> List.for_all (fun b -> bool_of_qual dtd q b = `True) bs)

(* ------------------------------------------------------------------ *)
(* Deciding qualifiers from DTD constraints                            *)

(* Child types of [a] through which witnesses of [p] can pass
   (over-approximation, as the exclusive rule requires). *)
and first_children dtd p a =
  match p with
  | A.Empty | A.Eps | A.Attribute _ -> []
  | A.Label l -> if List.mem l (children dtd a) then [ l ] else []
  | A.Wildcard -> children dtd a
  | A.Slash (p1, p2) ->
    let via_p1 = first_children dtd p1 a in
    if can_match_self p1 then
      List.sort_uniq String.compare (via_p1 @ first_children dtd p2 a)
    else via_p1
  | A.Dslash p1 ->
    (* Witnesses of //p pass either directly through p's own first
       step at the context, or through a child whose subtree lets p
       match somewhere. *)
    let deep =
      List.filter
        (fun c ->
          List.exists
            (fun t -> reach dtd p1 t <> [] || can_match_self p1)
            (descendant_or_self_types dtd c))
        (children dtd a)
    in
    List.sort_uniq String.compare (first_children dtd p1 a @ deep)
  | A.Union (p1, p2) ->
    List.sort_uniq String.compare
      (first_children dtd p1 a @ first_children dtd p2 a)
  | A.Qualify (p1, _) -> first_children dtd p1 a

and flatten_conjuncts = function
  | A.And (q1, q2) -> flatten_conjuncts q1 @ flatten_conjuncts q2
  | q -> [ q ]

and exclusive_violation dtd conjuncts a =
  (* Under a production whose words carry at most one element child,
     two conjuncts that each require a child and can only be satisfied
     through disjoint child sets cannot both hold. *)
  at_most_one_element (Sdtd.Dtd.production dtd a)
  &&
  let demands =
    List.filter_map
      (fun q ->
        match q with
        | A.Exists p | A.Eq (p, _) ->
          if requires_child p then
            match first_children dtd p a with
            | [] -> None (* empty image: handled as `False elsewhere *)
            | cs -> Some cs
          else None
        | A.True | A.False | A.And _ | A.Or _ | A.Not _ -> None)
      conjuncts
  in
  let disjoint cs1 cs2 = not (List.exists (fun c -> List.mem c cs2) cs1) in
  let rec any_disjoint_pair = function
    | [] -> false
    | cs :: rest ->
      List.exists (disjoint cs) rest || any_disjoint_pair rest
  in
  any_disjoint_pair demands

and bool_of_qual dtd q a : [ `True | `False | `Unknown ] =
  let m = memo () in
  let key = (Sdtd.Dtd.stamp dtd, q, a) in
  match Hashtbl.find_opt m.qual_cache key with
  | Some r -> r
  | None ->
    let r = compute_bool_of_qual dtd q a in
    Hashtbl.replace m.qual_cache key r;
    r

and compute_bool_of_qual dtd q a : [ `True | `False | `Unknown ] =
  match q with
  | A.True -> `True
  | A.False -> `False
  | A.Exists p -> (
    match p with
    | A.Attribute at ->
      (* undeclared attributes can never exist *)
      if List.mem at (Sdtd.Dtd.attributes dtd a) then `Unknown else `False
    | _ when A.mem_attribute p -> `Unknown
    | _ -> (
      match image dtd p a with
      | None -> `False
      | Some _ -> if guaranteed dtd p a then `True else `Unknown
      | exception Too_large -> `Unknown))
  | A.Eq (p, _) -> (
    match p with
    | A.Attribute at ->
      if List.mem at (Sdtd.Dtd.attributes dtd a) then `Unknown else `False
    | _ when A.mem_attribute p -> `Unknown
    | _ -> (
      match image dtd p a with
      | None -> `False
      | Some _ -> `Unknown
      | exception Too_large -> `Unknown))
  | A.And (q1, q2) -> (
    match (bool_of_qual dtd q1 a, bool_of_qual dtd q2 a) with
    | `False, _ | _, `False -> `False
    | `True, `True -> `True
    | (`True | `Unknown), (`True | `Unknown) ->
      if exclusive_violation dtd (flatten_conjuncts q) a then `False
      else `Unknown)
  | A.Or (q1, q2) -> (
    match (bool_of_qual dtd q1 a, bool_of_qual dtd q2 a) with
    | `True, _ | _, `True -> `True
    | `False, `False -> `False
    | (`False | `Unknown), (`False | `Unknown) -> `Unknown)
  | A.Not q1 -> (
    match bool_of_qual dtd q1 a with
    | `True -> `False
    | `False -> `True
    | `Unknown -> `Unknown)

(* ------------------------------------------------------------------ *)
(* Image construction                                                  *)

and qual_nodes dtd q a : node list =
  (* '[]' roots for a qualifier already known to be `Unknown at [a]. *)
  let relabel label g =
    let m = memo () in
    m.counter <- m.counter + 1;
    let n =
      {
        id = m.counter;
        label;
        kids = g.root.kids;
        quals = g.root.quals;
        ambiguous = g.root.ambiguous;
        ends = [];
      }
    in
    (* the image's frontier stays with the qualifier: a frontier entry
       that is the image's root becomes the '[]' node itself *)
    n.ends <-
      (if List.memq g.root g.frontier then n :: g.frontier else g.frontier);
    n
  in
  let opaque () =
    let n = fresh ("[]?" ^ Sxpath.Print.qual_to_string q) in
    n.ends <- [ n ];
    [ n ]
  in
  match q with
  | A.True -> []
  | A.False -> opaque () (* unreachable when callers pre-decide *)
  | A.And (q1, q2) ->
    let part qq =
      match bool_of_qual dtd qq a with
      | `True -> []
      | `False -> assert false (* the conjunction would be `False *)
      | `Unknown -> qual_nodes dtd qq a
    in
    part q1 @ part q2
  | A.Exists p -> (
    if A.mem_attribute p then opaque ()
    else
      match image dtd p a with
      | Some g -> [ relabel "[]" g ]
      | None | (exception Too_large) -> opaque ())
  | A.Eq (p, _) -> (
    (* The label carries the whole atom: the graph keeps [p]'s shape
       but not which of its nodes the value test applies to, so [t3 =
       c] would otherwise imply [. = c].  Two [=] atoms match only when
       they compare the same path with the same value. *)
    if A.mem_attribute p then opaque ()
    else
      match image dtd p a with
      | Some g -> [ relabel ("[]=" ^ Sxpath.Print.qual_to_string q) g ]
      | None | (exception Too_large) -> opaque ())
  | A.Or _ | A.Not _ -> opaque ()

and image dtd p a : t option =
  with_budget (fun () ->
      match build dtd p a with
      | None -> None
      | Some g ->
        prune g;
        Some g)

and build dtd p a : t option =
  match p with
  | A.Empty | A.Attribute _ -> None
  | A.Eps ->
    let n = fresh a in
    Some { root = n; frontier = [ n ] }
  | A.Label l ->
    if List.mem l (children dtd a) then begin
      let root = fresh a in
      let kid = fresh l in
      root.kids <- [ kid ];
      Some { root; frontier = [ kid ] }
    end
    else None
  | A.Wildcard -> (
    match children dtd a with
    | [] -> None
    | cs ->
      let root = fresh a in
      let kids = List.map fresh cs in
      root.kids <- kids;
      Some { root; frontier = kids })
  | A.Slash (p1, p2) -> (
    match build dtd p1 a with
    | None -> None
    | Some g ->
      let conts = Hashtbl.create 4 in
      let continuation label =
        match Hashtbl.find_opt conts label with
        | Some c -> c
        | None ->
          let c = build dtd p2 label in
          Hashtbl.add conts label c;
          c
      in
      let frontier = ref [] in
      List.iter
        (fun f ->
          match continuation f.label with
          | None -> () (* dead end; pruned later *)
          | Some cont ->
            f.kids <- dedup_nodes (f.kids @ cont.root.kids);
            f.quals <- f.quals @ cont.root.quals;
            f.ambiguous <- f.ambiguous || cont.root.ambiguous;
            (* the continuation's root merges into the host node: a
               frontier entry that IS the root (ε-like continuations)
               must become the host, not a disconnected copy *)
            let adopted =
              List.map
                (fun fr -> if fr.id = cont.root.id then f else fr)
                cont.frontier
            in
            frontier := adopted @ !frontier)
        (dedup_nodes g.frontier);
      (match dedup_nodes !frontier with
      | [] -> None
      | fs -> Some { root = g.root; frontier = fs }))
  | A.Dslash p1 -> (
    (* Type-keyed closure of the DTD below [a], then p1 grafted at
       every closure node (descendant-or-self). *)
    let keyed = Hashtbl.create 16 in
    let node_of t =
      match Hashtbl.find_opt keyed t with
      | Some n -> n
      | None ->
        let n = fresh t in
        Hashtbl.add keyed t n;
        n
    in
    let closure = descendant_or_self_types dtd a in
    List.iter
      (fun t ->
        let n = node_of t in
        n.kids <- dedup_nodes (n.kids @ List.map node_of (children dtd t)))
      closure;
    let frontier = ref [] in
    List.iter
      (fun t ->
        match build dtd p1 t with
        | None -> ()
        | Some cont ->
          let n = node_of t in
          n.kids <- dedup_nodes (n.kids @ cont.root.kids);
          n.quals <- n.quals @ cont.root.quals;
          n.ambiguous <- n.ambiguous || cont.root.ambiguous;
          let adopted =
            List.map
              (fun fr -> if fr.id = cont.root.id then n else fr)
              cont.frontier
          in
          frontier := adopted @ !frontier)
      closure;
    match dedup_nodes !frontier with
    | [] -> None
    | fs -> Some { root = node_of a; frontier = fs })
  | A.Union (p1, p2) -> (
    match (build dtd p1 a, build dtd p2 a) with
    | None, None -> None
    | Some g, None | None, Some g -> Some g
    | Some g1, Some g2 ->
      let root = fresh a in
      root.kids <- dedup_nodes (g1.root.kids @ g2.root.kids);
      root.quals <- g1.root.quals @ g2.root.quals;
      root.ambiguous <-
        g1.root.ambiguous || g2.root.ambiguous
        || (g1.root.quals <> [] && g2.root.quals <> []);
      let remap f =
        if f.id = g1.root.id || f.id = g2.root.id then root else f
      in
      let frontier = dedup_nodes (List.map remap (g1.frontier @ g2.frontier)) in
      Some { root; frontier })
  | A.Qualify (p1, q) -> (
    match build dtd p1 a with
    | None -> None
    | Some g ->
      let kept =
        List.filter_map
          (fun f ->
            match bool_of_qual dtd q f.label with
            | `False -> None
            | `True -> Some f
            | `Unknown ->
              f.quals <- f.quals @ qual_nodes dtd q f.label;
              Some f)
          (dedup_nodes g.frontier)
      in
      match kept with
      | [] -> None
      | fs -> Some { root = g.root; frontier = fs })

(* Remove branches that died before reaching the frontier: keep the
   nodes from which a frontier node is reachable (frontier included),
   drop other kid edges.  Qualifier subgraphs of kept nodes are kept
   whole — they encode constraints, not result paths. *)
and prune g =
  (* keep = nodes from which a frontier node is reachable; computed by
     a reverse-edge BFS so pruning stays linear in the graph size *)
  let all_nodes =
    let seen = Hashtbl.create 32 in
    let acc = ref [] in
    let rec go n =
      if not (Hashtbl.mem seen n.id) then begin
        Hashtbl.add seen n.id ();
        acc := n :: !acc;
        List.iter go n.kids
      end
    in
    go g.root;
    !acc
  in
  let parents : (int, node list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun n ->
      List.iter
        (fun k ->
          let prev = Option.value (Hashtbl.find_opt parents k.id) ~default:[] in
          Hashtbl.replace parents k.id (n :: prev))
        n.kids)
    all_nodes;
  let keep = Hashtbl.create 64 in
  let queue = Queue.create () in
  let mark n =
    if not (Hashtbl.mem keep n.id) then begin
      Hashtbl.replace keep n.id ();
      Queue.add n queue
    end
  in
  List.iter mark g.frontier;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    List.iter mark (Option.value (Hashtbl.find_opt parents n.id) ~default:[])
  done;
  Hashtbl.replace keep g.root.id ();
  List.iter
    (fun n ->
      if Hashtbl.mem keep n.id then
        n.kids <- List.filter (fun k -> Hashtbl.mem keep k.id) n.kids)
    all_nodes

(* ------------------------------------------------------------------ *)

(* Public entry points serialize the calling domain's threads over its
   memo state; the internal recursion above never re-locks.  Pure
   helpers ([requires_child]) touch no state and stay unguarded. *)
let locked f =
  let m = memo () in
  Mutex.lock m.mlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock m.mlock) f

let image dtd p a = locked (fun () -> image dtd p a)
let bool_of_qual dtd q a = locked (fun () -> bool_of_qual dtd q a)
let guaranteed dtd p a = locked (fun () -> guaranteed dtd p a)
let reach dtd p a = locked (fun () -> reach dtd p a)

let descendant_or_self_types dtd a =
  locked (fun () -> descendant_or_self_types dtd a)
