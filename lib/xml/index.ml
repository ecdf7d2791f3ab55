(* The elements of one tag, in document order: their identifiers and
   the nodes themselves. *)
type tagged = {
  ids : int array;
  elems : Tree.t array;
}

type t = {
  nodes : Tree.t array;  (* by identifier *)
  extents : int array;
  tagged : (string, tagged) Hashtbl.t;
}

let build root =
  if root.Tree.id <> 0 then
    invalid_arg "Index.build: expected a document root (identifier 0)";
  let n = Tree.size root in
  let nodes = Array.make n root in
  let extents = Array.make n 0 in
  let tag_lists : (string, Tree.t list ref) Hashtbl.t = Hashtbl.create 32 in
  (* returns the last identifier of the subtree *)
  let rec fill (node : Tree.t) =
    if node.Tree.id >= n then
      invalid_arg "Index.build: identifiers are not dense preorder";
    nodes.(node.Tree.id) <- node;
    (match Tree.tag node with
    | Some tag ->
      let cell =
        match Hashtbl.find_opt tag_lists tag with
        | Some cell -> cell
        | None ->
          let cell = ref [] in
          Hashtbl.add tag_lists tag cell;
          cell
      in
      cell := node :: !cell
    | None -> ());
    let last =
      List.fold_left (fun _ child -> fill child) node.Tree.id
        (Tree.children node)
    in
    extents.(node.Tree.id) <- last;
    last
  in
  let last = fill root in
  if last <> n - 1 then
    invalid_arg "Index.build: identifiers are not dense preorder";
  let tagged = Hashtbl.create (Hashtbl.length tag_lists) in
  Hashtbl.iter
    (fun tag cell ->
      let elems = Array.of_list (List.rev !cell) in
      Hashtbl.replace tagged tag
        { ids = Array.map (fun node -> node.Tree.id) elems; elems })
    tag_lists;
  { nodes; extents; tagged }

let size idx = Array.length idx.nodes

let extent idx id = idx.extents.(id)

let node idx id = idx.nodes.(id)

let no_tagged = { ids = [||]; elems = [||] }

let find_tagged idx tag =
  Option.value (Hashtbl.find_opt idx.tagged tag) ~default:no_tagged

let by_tag idx tag = (find_tagged idx tag).elems

let tag_ids idx tag = (find_tagged idx tag).ids

let tags idx =
  List.sort String.compare
    (Hashtbl.fold (fun tag _ acc -> tag :: acc) idx.tagged [])

(* first index in [arr] whose node id is >= [target] *)
let lower_bound (arr : Tree.t array) target =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid).Tree.id < target then lo := mid + 1 else hi := mid
  done;
  !lo

let descendants_with_tag idx ~context tag =
  let arr = by_tag idx tag in
  let lo = lower_bound arr (context.Tree.id + 1) in
  let last = extent idx context.Tree.id in
  let out = ref [] in
  let i = ref lo in
  while !i < Array.length arr && arr.(!i).Tree.id <= last do
    out := arr.(!i) :: !out;
    incr i
  done;
  List.rev !out

(* ---- editing ---------------------------------------------------- *)

type position =
  | Into
  | Before
  | After

type op =
  | Delete
  | Replace of Tree.spec
  | Insert of position * Tree.spec

type edited = {
  index : t;
  copies : int list;
  parents : int list;
  runs : (int * int * int) list;
}

(* first index in the ascending [ids] whose value is >= [target] *)
let ids_lower_bound (ids : int array) target =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ids.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

(* [resize a len fill]: [a]'s first [len] entries, padded with [fill]. *)
let resize a len fill =
  let n = Array.length a in
  if len <= n then Array.sub a 0 len
  else Array.append a (Array.make (len - n) fill)

(* The edit walks the pinned tree in preorder beside the position
   [pos] the current node takes in the new version.  A subtree whose
   position has not moved ([pos] is its identifier) and whose extent
   holds no edit point is the pinned one, shared by reference; any
   other surviving node is rebuilt with identifier [pos], and the
   content is frozen afresh at every edit point.  The new index is
   then derived from the pinned one and what the walk built and
   removed. *)
let edit idx op targets =
  let content, removes, into, before, after =
    match op with
    | Delete -> (None, true, false, false, false)
    | Replace c -> (Some c, true, false, false, false)
    | Insert (Into, c) -> (Some c, false, true, false, false)
    | Insert (Before, c) -> (Some c, false, false, true, false)
    | Insert (After, c) -> (Some c, false, false, false, true)
  in
  let n = size idx in
  let targets = Array.of_list targets in
  let ntargets = Array.length targets in
  Array.iteri
    (fun i id ->
      if id < 0 || id >= n || (i > 0 && targets.(i - 1) >= id) then
        invalid_arg "Index.edit: targets must be ascending identifiers";
      if into && Tree.is_text idx.nodes.(id) then
        invalid_arg "Index.edit: cannot insert into a text node";
      if (not into) && id = 0 then
        invalid_arg "Index.edit: the root cannot be removed or get siblings")
    targets;
  let mem id =
    let i = ids_lower_bound targets id in
    i < ntargets && targets.(i) = id
  in
  (* an edit point with identifier in [lo, hi] *)
  let any_in lo hi =
    let i = ids_lower_bound targets lo in
    i < ntargets && targets.(i) <= hi
  in
  let next = ref 0 (* the next identifier of the new version *)
  and built = ref [] (* every node built, with its last identifier *)
  and elements = ref [] (* built elements' identifiers, descending *)
  and copies = ref []
  and parents = ref []
  and removed = ref []
  and runs = ref [] in
  (* a node claims identifier [!next] on entry, then builds its
     children, then itself *)
  let claim () =
    let pos = !next in
    incr next;
    pos
  in
  let alloc pos desc =
    let node = { Node.id = pos; desc } in
    built := (node, !next - 1) :: !built;
    node
  in
  (* survivors as maximal runs of consecutive old and new identifiers;
     a run breaks only where the edit removed or spliced something *)
  let run_old = ref 0 and run_new = ref 0 and run_len = ref 0 in
  let survive old pos len =
    if old = !run_old + !run_len && pos = !run_new + !run_len then
      run_len := !run_len + len
    else begin
      if !run_len > 0 then runs := (!run_old, !run_new, !run_len) :: !runs;
      run_old := old;
      run_new := pos;
      run_len := len
    end
  in
  let rec freeze = function
    | Tree.T s -> alloc (claim ()) (Node.Text s)
    | Tree.E (tag, attrs, cs) ->
      let pos = claim () in
      elements := pos :: !elements;
      let children = List.map freeze cs in
      alloc pos (Node.Element { tag; attrs; children })
  in
  let emit acc =
    copies := !next :: !copies;
    freeze (Option.get content) :: acc
  in
  let rec go (x : Tree.t) =
    let pos = !next and last = idx.extents.(x.id) in
    if pos = x.id && not (any_in (if into then x.id else x.id + 1) last)
    then begin
      survive x.id pos (last - x.id + 1);
      next := last + 1;
      x
    end
    else begin
      survive x.id (claim ()) 1;
      match x.desc with
      | Tree.Text s -> alloc pos (Node.Text s)
      | Tree.Element e ->
        elements := pos :: !elements;
        let edited = ref false in
        let rec children acc = function
          | [] ->
            if into && mem x.id then begin
              edited := true;
              emit acc
            end
            else acc
          | (c : Tree.t) :: rest ->
            let hit = mem c.id in
            if hit && not into then edited := true;
            let acc = if hit && before then emit acc else acc in
            let acc =
              if not (hit && removes) then go c :: acc
              else begin
                removed := c.id :: !removed;
                if Option.is_some content then emit acc else acc
              end
            in
            children (if hit && after then emit acc else acc) rest
        in
        let children = List.rev (children [] e.children) in
        if !edited then parents := pos :: !parents;
        alloc pos (Node.Element { e with Node.children })
    end
  in
  ignore (go idx.nodes.(0));
  runs := (!run_old, !run_new, !run_len) :: !runs;
  (* The new node array is a copy of the pinned one with the built
     nodes written in; a shared subtree's entries are already right.
     The extents are copied only if the size or one of them changes. *)
  let size' = !next in
  let nodes = resize idx.nodes size' idx.nodes.(0) in
  let extents =
    if
      size' = n
      && List.for_all
           (fun ((x : Tree.t), last) -> idx.extents.(x.id) = last)
           !built
    then idx.extents
    else resize idx.extents size' 0
  in
  List.iter
    (fun ((x : Tree.t), last) ->
      nodes.(x.id) <- x;
      if extents != idx.extents then extents.(x.id) <- last)
    !built;
  (* A tag's arrays change only if an element of it was built or
     removed.  Its pinned entries that survive are the shared ones —
     exactly those still at their identifier in [nodes] — and they
     merge with the built ones in identifier order. *)
  let fresh : (string, int list) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun id ->
      let tag = Option.get (Tree.tag nodes.(id)) in
      Hashtbl.replace fresh tag
        (id :: Option.value (Hashtbl.find_opt fresh tag) ~default:[]))
    !elements;
  let touched = Hashtbl.copy fresh in
  List.iter
    (fun r ->
      for id = r to idx.extents.(r) do
        match Tree.tag idx.nodes.(id) with
        | Some tag when not (Hashtbl.mem touched tag) ->
          Hashtbl.replace touched tag []
        | Some _ | None -> ()
      done)
    !removed;
  let tagged = Hashtbl.copy idx.tagged in
  Hashtbl.iter
    (fun tag fresh ->
      let old = find_tagged idx tag in
      let len = Array.length old.ids in
      let kept k =
        let id = old.ids.(k) in
        id < size' && nodes.(id) == old.elems.(k)
      in
      (* [f] on the tag's new identifiers, ascending *)
      let merged f =
        let rec go k fresh =
          if k < len && not (kept k) then go (k + 1) fresh
          else
            match fresh with
            | id :: rest when k >= len || id < old.ids.(k) ->
              f id;
              go k rest
            | _ when k < len ->
              f old.ids.(k);
              go (k + 1) fresh
            | _ -> ()
        in
        go 0 fresh
      in
      let count = ref 0 and same = ref true in
      merged (fun id ->
          same := !same && !count < len && old.ids.(!count) = id;
          incr count);
      let count = !count in
      if count = 0 then Hashtbl.remove tagged tag
      else begin
        let same = !same && count = len in
        let ids = if same then old.ids else Array.make count 0
        and elems = Array.make count nodes.(0)
        and i = ref 0 in
        merged (fun id ->
            if not same then ids.(!i) <- id;
            elems.(!i) <- nodes.(id);
            incr i);
        Hashtbl.replace tagged tag { ids; elems }
      end)
    touched;
  {
    index = { nodes; extents; tagged };
    copies = !copies;
    parents = List.sort Int.compare !parents;
    runs = List.rev !runs;
  }
