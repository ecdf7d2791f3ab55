type tag = {
  code : int;
  ids : int array;
}

type t = {
  nodes : Tree.t array;  (* by identifier *)
  extents : int array;
  codes : int array;  (* tag code by identifier, [text_code] on text *)
  tagged : (string, tag) Hashtbl.t;
      (* every tag the document has had, with the identifiers of its
         elements; codes are numbered from 0 in order of first sight *)
}

let text_code = -1

(* a tag no element has ever carried: its code is on no node *)
let absent = { code = -2; ids = [||] }

let build root =
  if root.Tree.id <> 0 then
    invalid_arg "Index.build: expected a document root (identifier 0)";
  let n = Tree.size root in
  let nodes = Array.make n root in
  let extents = Array.make n 0 in
  let codes = Array.make n text_code in
  let tag_lists : (string, int * int list ref) Hashtbl.t = Hashtbl.create 32 in
  (* returns the last identifier of the subtree *)
  let rec fill (node : Tree.t) =
    if node.Tree.id >= n then
      invalid_arg "Index.build: identifiers are not dense preorder";
    nodes.(node.Tree.id) <- node;
    (match node.Tree.desc with
    | Tree.Element e ->
      let code, cell =
        match Hashtbl.find_opt tag_lists e.Tree.tag with
        | Some entry -> entry
        | None ->
          let entry = (Hashtbl.length tag_lists, ref []) in
          Hashtbl.add tag_lists e.Tree.tag entry;
          entry
      in
      codes.(node.Tree.id) <- code;
      cell := node.Tree.id :: !cell
    | Tree.Text _ -> ());
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
    (fun tag (code, cell) ->
      Hashtbl.replace tagged tag { code; ids = Array.of_list (List.rev !cell) })
    tag_lists;
  { nodes; extents; codes; tagged }

let size idx = Array.length idx.nodes

let extent idx id = idx.extents.(id)

let extents idx = idx.extents

let codes idx = idx.codes

let node idx id = idx.nodes.(id)

let tag idx name =
  match Hashtbl.find_opt idx.tagged name with Some t -> t | None -> absent

let tag_ids idx name = (tag idx name).ids

let by_tag idx name = Array.map (node idx) (tag_ids idx name)

let tags idx =
  List.sort String.compare
    (Hashtbl.fold
       (fun name t acc -> if Array.length t.ids = 0 then acc else name :: acc)
       idx.tagged [])

(* first index in the ascending [ids] whose value is >= [target] *)
let ids_lower_bound (ids : int array) target =
  let lo = ref 0 and hi = ref (Array.length ids) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ids.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

let descendants_with_tag idx ~context tag =
  let ids = tag_ids idx tag in
  let last = extent idx context.Tree.id in
  let out = ref [] in
  let i = ref (ids_lower_bound ids (context.Tree.id + 1)) in
  while !i < Array.length ids && ids.(!i) <= last do
    out := idx.nodes.(ids.(!i)) :: !out;
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
     The extents and the codes are copied only if the size or one of
     them changes: a bill replaced by a bill keeps both columns.  A
     tag new to the document takes the next code in a copy of the
     tag table. *)
  let size' = !next in
  let tagged = Hashtbl.copy idx.tagged in
  let code_of name =
    match Hashtbl.find_opt tagged name with
    | Some t -> t.code
    | None ->
      let code = Hashtbl.length tagged in
      Hashtbl.add tagged name { code; ids = [||] };
      code
  in
  let code_at (x : Tree.t) =
    match x.desc with
    | Tree.Element e -> code_of e.Tree.tag
    | Tree.Text _ -> text_code
  in
  let unchanged column value =
    size' = n
    && List.for_all
         (fun ((x : Tree.t), last) -> column.(x.id) = value x last)
         !built
  in
  let nodes = resize idx.nodes size' idx.nodes.(0) in
  let extents =
    if unchanged idx.extents (fun _ last -> last) then idx.extents
    else resize idx.extents size' 0
  in
  let codes =
    if unchanged idx.codes (fun x _ -> code_at x) then idx.codes
    else resize idx.codes size' text_code
  in
  List.iter
    (fun ((x : Tree.t), last) ->
      nodes.(x.id) <- x;
      if extents != idx.extents then extents.(x.id) <- last;
      if codes != idx.codes then codes.(x.id) <- code_at x)
    !built;
  (* A tag's identifiers change only if an element of it was built or
     removed, and then only if one was removed or moved: a survivor
     rebuilt in place keeps its identifier.  Its pinned identifiers
     that survive are the shared nodes' — exactly those whose slot in
     [nodes] still holds the pinned node — and they merge with the
     built ones in identifier order.  A tag keeps its code when its
     last element goes. *)
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
  Hashtbl.iter
    (fun tag fresh ->
      let old = tag_ids idx tag in
      let len = Array.length old in
      let kept k =
        let id = old.(k) in
        id < size' && nodes.(id) == idx.nodes.(id)
      in
      (* [f] on the tag's new identifiers, ascending *)
      let merged f =
        let rec go k fresh =
          if k < len && not (kept k) then go (k + 1) fresh
          else
            match fresh with
            | id :: rest when k >= len || id < old.(k) ->
              f id;
              go k rest
            | _ when k < len ->
              f old.(k);
              go (k + 1) fresh
            | _ -> ()
        in
        go 0 fresh
      in
      let count = ref 0 and same = ref true in
      merged (fun id ->
          same := !same && !count < len && old.(!count) = id;
          incr count);
      let count = !count in
      if not (!same && count = len) then begin
        let ids = Array.make count 0 and i = ref 0 in
        merged (fun id ->
            ids.(!i) <- id;
            incr i);
        Hashtbl.replace tagged tag { code = code_of tag; ids }
      end)
    touched;
  {
    index = { nodes; extents; codes; tagged };
    copies = !copies;
    parents = List.sort Int.compare !parents;
    runs = List.rev !runs;
  }
