module SMap = Map.Make (String)
module SSet = Set.Make (String)

(* The DTD graph's facts, computed once when a value is built: every
   rewriting, optimization and analysis asks for them, often once per
   query node. *)
type graph = {
  kids : string list SMap.t;  (* children_of, per declared type *)
  reach : string list;  (* reachable from the root, BFS order *)
  cyclic : string list;  (* reachable types on a cycle, in [reach] order *)
  topo : string list option;  (* parents-first; None when [cyclic <> []] *)
}

type t = {
  stamp : int;
  root : string;
  prods : Regex.t SMap.t;
  attrs : string list SMap.t;  (* declared attributes per element type *)
  order : string list;  (* declaration order, for stable printing *)
  graph : graph;
}

let next_stamp =
  let counter = Atomic.make 0 in
  fun () -> 1 + Atomic.fetch_and_add counter 1

let kids_of kids name = Option.value (SMap.find_opt name kids) ~default:[]

let bfs kids root =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let queue = Queue.create () in
  Queue.add root queue;
  Hashtbl.add seen root ();
  while not (Queue.is_empty queue) do
    let name = Queue.pop queue in
    out := name :: !out;
    List.iter
      (fun child ->
        if not (Hashtbl.mem seen child) then begin
          Hashtbl.add seen child ();
          Queue.add child queue
        end)
      (kids_of kids name)
  done;
  List.rev !out

(* DFS postorder reversed = parents-first topological order, or None
   when the walk from the root meets a type still on its own path. *)
let topological kids root =
  let state = Hashtbl.create 16 in
  let out = ref [] in
  let rec go name =
    match Hashtbl.find_opt state name with
    | Some on_path -> not on_path
    | None ->
      Hashtbl.add state name true;
      let acyclic = List.for_all go (kids_of kids name) in
      Hashtbl.replace state name false;
      out := name :: !out;
      acyclic
  in
  if go root then Some !out else None

(* A type is on a cycle iff it is reachable from one of its children:
   one walk per type, paid only by recursive DTDs, once per value. *)
let on_cycle kids name =
  let seen = Hashtbl.create 16 in
  let rec go n =
    String.equal n name
    || (not (Hashtbl.mem seen n))
       && begin
            Hashtbl.add seen n ();
            List.exists go (kids_of kids n)
          end
  in
  List.exists go (kids_of kids name)

let graph_of ~root prods =
  let kids = SMap.map Regex.labels prods in
  let reach = bfs kids root in
  let topo = topological kids root in
  let cyclic =
    match topo with Some _ -> [] | None -> List.filter (on_cycle kids) reach
  in
  { kids; reach; cyclic; topo }

let build ~root ~prods ~attrs ~order =
  {
    stamp = next_stamp ();
    root;
    prods;
    attrs;
    order;
    graph = graph_of ~root prods;
  }

let create ?(attlist = []) ~root decls =
  let prods, order =
    List.fold_left
      (fun (m, order) (name, rg) ->
        if SMap.mem name m then
          invalid_arg (Printf.sprintf "Dtd.create: duplicate type %S" name)
        else (SMap.add name (Regex.normalize rg) m, name :: order))
      (SMap.empty, []) decls
  in
  let order = List.rev order in
  (* Implicitly declare referenced-but-undeclared types as EMPTY. *)
  let referenced =
    SMap.fold
      (fun _ rg acc -> SSet.union acc (SSet.of_list (Regex.labels rg)))
      prods SSet.empty
  in
  let missing =
    SSet.elements (SSet.diff referenced (SSet.of_list (SMap.bindings prods |> List.map fst)))
  in
  let prods =
    List.fold_left (fun m name -> SMap.add name Regex.Epsilon m) prods missing
  in
  let order = order @ missing in
  if not (SMap.mem root prods) then
    invalid_arg (Printf.sprintf "Dtd.create: root %S undeclared" root);
  let attrs =
    List.fold_left
      (fun m (name, attr_names) ->
        if not (SMap.mem name prods) then
          invalid_arg
            (Printf.sprintf "Dtd.create: attlist for undeclared type %S" name);
        let previous = Option.value (SMap.find_opt name m) ~default:[] in
        SMap.add name
          (List.sort_uniq String.compare (previous @ attr_names))
          m)
      SMap.empty attlist
  in
  build ~root ~prods ~attrs ~order

let root d = d.root

let stamp d = d.stamp

let attributes d name =
  Option.value (SMap.find_opt name d.attrs) ~default:[]

let with_attributes d name attr_names =
  if not (SMap.mem name d.prods) then
    invalid_arg
      (Printf.sprintf "Dtd.with_attributes: undeclared type %S" name);
  {
    d with
    stamp = next_stamp ();
    attrs = SMap.add name (List.sort_uniq String.compare attr_names) d.attrs;
  }

let element_types d =
  d.root :: List.filter (fun name -> name <> d.root) d.order

let mem d name = SMap.mem name d.prods

let production d name =
  match SMap.find_opt name d.prods with
  | Some rg -> rg
  | None -> raise Not_found

let production_opt d name = SMap.find_opt name d.prods

let children_of d name = kids_of d.graph.kids name

let size d =
  let rec regex_size = function
    | Regex.Empty | Regex.Epsilon | Regex.Str | Regex.Elt _ -> 1
    | Regex.Seq rs | Regex.Choice rs ->
      1 + List.fold_left (fun acc r -> acc + regex_size r) 0 rs
    | Regex.Star r -> 1 + regex_size r
  in
  SMap.fold (fun _ rg acc -> acc + 1 + regex_size rg) d.prods 0

let in_normal_form d =
  SMap.for_all (fun _ rg -> Regex.shape rg <> None) d.prods

let equal a b =
  String.equal a.root b.root
  && SMap.equal Regex.equal a.prods b.prods
  && SMap.equal
       (fun x y -> List.sort compare x = List.sort compare y)
       (SMap.filter (fun _ l -> l <> []) a.attrs)
       (SMap.filter (fun _ l -> l <> []) b.attrs)

let with_production d name rg =
  let order = if SMap.mem name d.prods then d.order else d.order @ [ name ] in
  build ~root:d.root ~prods:(SMap.add name rg d.prods) ~attrs:d.attrs ~order

let reachable d = d.graph.reach

(* Dropping unreachable types changes no fact about the reachable
   ones, so the graph is carried over rather than recomputed. *)
let restrict_reachable d =
  let keep = SSet.of_list (reachable d) in
  let live m = SMap.filter (fun name _ -> SSet.mem name keep) m in
  {
    stamp = next_stamp ();
    root = d.root;
    prods = live d.prods;
    attrs = live d.attrs;
    order = List.filter (fun name -> SSet.mem name keep) d.order;
    graph = { d.graph with kids = live d.graph.kids };
  }

let recursive_types d = d.graph.cyclic
let is_recursive d = d.graph.cyclic <> []
let topological_order d = d.graph.topo

let min_height d name =
  (* Fixpoint: heights start at max_int and decrease monotonically. *)
  let heights = Hashtbl.create 16 in
  let get n = Option.value (Hashtbl.find_opt heights n) ~default:max_int in
  let rec regex_height rg =
    (* Minimum over words of (max over symbols of child height);
       [Some 0] when the empty word suffices. *)
    match rg with
    | Regex.Empty -> None
    | Regex.Epsilon | Regex.Str -> Some 0
    | Regex.Elt l -> if get l = max_int then None else Some (get l)
    | Regex.Star _ -> Some 0
    | Regex.Seq rs ->
      List.fold_left
        (fun acc r ->
          match (acc, regex_height r) with
          | Some a, Some b -> Some (max a b)
          | _, None | None, _ -> None)
        (Some 0) rs
    | Regex.Choice rs ->
      List.fold_left
        (fun acc r ->
          match (acc, regex_height r) with
          | Some a, Some b -> Some (min a b)
          | Some a, None -> Some a
          | None, h -> h)
        None rs
  in
  let changed = ref true in
  while !changed do
    changed := false;
    SMap.iter
      (fun n rg ->
        match regex_height rg with
        | None -> ()
        | Some h ->
          let candidate = if h = max_int then max_int else 1 + h in
          if candidate < get n then begin
            Hashtbl.replace heights n candidate;
            changed := true
          end)
      d.prods
  done;
  get name

(* Star contents may still require children once iterated: Star counts
   as height 0 because zero iterations are allowed, which is what
   min_height needs. *)

let is_consistent d =
  List.for_all (fun name -> min_height d name < max_int) (reachable d)

let pp ppf d =
  List.iter
    (fun name ->
      let rg = production d name in
      let body =
        match rg with
        | Regex.Epsilon -> "EMPTY"
        | Regex.Str -> "(#PCDATA)"
        | Regex.Seq _ | Regex.Choice _ -> Regex.to_string rg
        | _ -> "(" ^ Regex.to_string rg ^ ")"
      in
      Format.fprintf ppf "<!ELEMENT %s %s>@." name body;
      match attributes d name with
      | [] -> ()
      | attr_names ->
        List.iter
          (fun a ->
            Format.fprintf ppf "<!ATTLIST %s %s CDATA #IMPLIED>@." name a)
          attr_names)
    (element_types d)

let to_string d = Format.asprintf "%a" pp d
