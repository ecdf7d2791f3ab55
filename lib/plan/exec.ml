let visited = ref 0

(* Per-operator work counters, one slot per plan node in preorder
   ({!Plan.size} numbering: node [i]'s first child is [i + 1], the
   second [i + 1 + size first]).  Allocated per run by the caller
   (explain, slow-query probes); execution is unchanged when absent. *)
module Stats = struct
  type t = {
    scanned : int array;
    probes : int array;
    joined : int array;
    emitted : int array;
  }

  let create n =
    {
      scanned = Array.make n 0;
      probes = Array.make n 0;
      joined = Array.make n 0;
      emitted = Array.make n 0;
    }

  let for_plan compiled = create (Plan.size (Compile.plan compiled))
  let sum = Array.fold_left ( + ) 0

  let totals s =
    [
      ("scanned", sum s.scanned);
      ("probes", sum s.probes);
      ("joined", sum s.joined);
      ("rows", if Array.length s.emitted = 0 then 0 else s.emitted.(0));
    ]
end

type st = {
  index : Sxml.Index.t;
  env : string -> string option;
  vars : string array;
  stats : Stats.t option;
}

let add_scanned st id n =
  match st.stats with
  | None -> ()
  | Some s -> s.Stats.scanned.(id) <- s.Stats.scanned.(id) + n

let add_probes st id n =
  match st.stats with
  | None -> ()
  | Some s -> s.Stats.probes.(id) <- s.Stats.probes.(id) + n

let add_joined st id n =
  match st.stats with
  | None -> ()
  | Some s -> s.Stats.joined.(id) <- s.Stats.joined.(id) + n

let add_emitted st id n =
  match st.stats with
  | None -> ()
  | Some s -> s.Stats.emitted.(id) <- s.Stats.emitted.(id) + n

let resolve st = function
  | Plan.Const c -> c
  | Plan.Slot i -> (
    let name = st.vars.(i) in
    match st.env name with
    | Some c -> c
    | None -> raise (Sxpath.Eval.Unbound_variable name))

(* first position in [arr] holding an id >= [target] *)
let lower_bound (arr : int array) target =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

(* Growable id buffer.  Pushes remember whether they arrived in
   ascending order so [contents] only sorts when a nested context
   actually interleaved ids (child steps from nested contexts). *)
module Buf = struct
  type t = {
    mutable a : int array;
    mutable len : int;
    mutable sorted : bool;
    mutable last : int;
  }

  let create () = { a = Array.make 16 0; len = 0; sorted = true; last = min_int }

  let push b x =
    if b.len = Array.length b.a then begin
      let a = Array.make (2 * b.len) 0 in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end;
    b.a.(b.len) <- x;
    b.len <- b.len + 1;
    if x < b.last then b.sorted <- false;
    b.last <- x

  let contents b =
    let out = Array.sub b.a 0 b.len in
    if not b.sorted then Array.sort Int.compare out;
    out
end

let empty_ids : int array = [||]

(* Merge two sorted duplicate-free id arrays into one. *)
let merge a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 then b
  else if lb = 0 then a
  else begin
    let out = Array.make (la + lb) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let push x =
      if !k = 0 || out.(!k - 1) <> x then begin
        out.(!k) <- x;
        incr k
      end
    in
    while !i < la && !j < lb do
      if a.(!i) <= b.(!j) then begin
        if a.(!i) = b.(!j) then incr j;
        push a.(!i);
        incr i
      end
      else begin
        push b.(!j);
        incr j
      end
    done;
    while !i < la do
      push a.(!i);
      incr i
    done;
    while !j < lb do
      push b.(!j);
      incr j
    done;
    if !k = la + lb then out else Array.sub out 0 !k
  end

let node st id = Sxml.Index.node st.index id

(* Set-at-a-time execution: contexts are sorted duplicate-free id
   arrays, and every operator preserves that invariant — child steps
   because distinct contexts have disjoint children (sort repairs
   interleaving from nested contexts), descendant joins because
   contexts nested inside an already-covered extent are skipped, so
   the emitted slices are disjoint and ascending.

   [id] is the plan node's preorder number — the slot its work lands
   in when [st.stats] is present. *)
let rec run_plan st (plan : Plan.t) (id : int) (ctx : int array) : int array =
  let out =
    match plan with
    | Plan.Nothing -> empty_ids
    | Plan.Self -> ctx
    | Plan.Child l ->
      let b = Buf.create () in
      let seen = ref 0 in
      Array.iter
        (fun c ->
          incr visited;
          List.iter
            (fun child ->
              incr seen;
              match Sxml.Tree.tag child with
              | Some t when String.equal t l -> Buf.push b child.Sxml.Tree.id
              | _ -> ())
            (Sxml.Tree.children (node st c)))
        ctx;
      add_scanned st id !seen;
      Buf.contents b
    | Plan.Child_any ->
      let b = Buf.create () in
      let seen = ref 0 in
      Array.iter
        (fun c ->
          incr visited;
          List.iter
            (fun child ->
              incr seen;
              if Sxml.Tree.is_element child then Buf.push b child.Sxml.Tree.id)
            (Sxml.Tree.children (node st c)))
        ctx;
      add_scanned st id !seen;
      Buf.contents b
    | Plan.Attr _ ->
      (* attribute values leave the node world; only probes see them *)
      empty_ids
    | Plan.Seq (a, b) ->
      run_plan st b (id + 1 + Plan.size a) (run_plan st a (id + 1) ctx)
    | Plan.Desc (l, k) ->
      let tagged = Sxml.Index.tag_ids st.index l in
      let b = Buf.create () in
      let covered = ref (-1) in
      let seen = ref 0 and joins = ref 0 in
      Array.iter
        (fun c ->
          if c > !covered then begin
            incr visited;
            incr joins;
            let last = Sxml.Index.extent st.index c in
            covered := last;
            let i = ref (lower_bound tagged (c + 1)) in
            while !i < Array.length tagged && tagged.(!i) <= last do
              incr seen;
              Buf.push b tagged.(!i);
              incr i
            done
          end)
        ctx;
      add_probes st id !joins;
      add_joined st id !joins;
      add_scanned st id !seen;
      run_plan st k (id + 1) (Buf.contents b)
    | Plan.Branch (a, b) ->
      merge (run_plan st a (id + 1) ctx)
        (run_plan st b (id + 1 + Plan.size a) ctx)
    | Plan.Filter (p, q) ->
      let base = run_plan st p (id + 1) ctx in
      let qid = id + 1 + Plan.size p in
      let b = Buf.create () in
      add_scanned st id (Array.length base);
      Array.iter (fun c -> if pred st q qid c then Buf.push b c) base;
      Buf.contents b
  in
  add_emitted st id (Array.length out);
  out

(* Node-at-a-time probe for qualifier evaluation: walk the plan from
   one context node, feeding result nodes to [on_node] and attribute
   string values to [on_attr], stopping as soon as either returns
   [true].  Mirrors the interpreter's result flow: a Seq drops its
   head's attribute values, a Filter filters nodes but passes its
   base's attribute values through unfiltered.  Probes count scanned
   candidates and index probes but not emitted rows — short-circuit
   means a probe's "output" is one boolean. *)
and probe st (plan : Plan.t) (id : int) (c : int) ~(on_node : int -> bool)
    ~(on_attr : string -> bool) : bool =
  match plan with
  | Plan.Nothing -> false
  | Plan.Self -> on_node c
  | Plan.Child l ->
    incr visited;
    let seen = ref 0 in
    let hit =
      List.exists
        (fun child ->
          incr seen;
          match Sxml.Tree.tag child with
          | Some t when String.equal t l -> on_node child.Sxml.Tree.id
          | _ -> false)
        (Sxml.Tree.children (node st c))
    in
    add_scanned st id !seen;
    hit
  | Plan.Child_any ->
    incr visited;
    let seen = ref 0 in
    let hit =
      List.exists
        (fun child ->
          incr seen;
          Sxml.Tree.is_element child && on_node child.Sxml.Tree.id)
        (Sxml.Tree.children (node st c))
    in
    add_scanned st id !seen;
    hit
  | Plan.Attr a -> (
    incr visited;
    add_scanned st id 1;
    match Sxml.Tree.attr (node st c) a with
    | Some v -> on_attr v
    | None -> false)
  | Plan.Seq (a, b) ->
    probe st a (id + 1) c
      ~on_node:(fun nid -> probe st b (id + 1 + Plan.size a) nid ~on_node ~on_attr)
      ~on_attr:(fun _ -> false)
  | Plan.Desc (l, k) ->
    incr visited;
    let tagged = Sxml.Index.tag_ids st.index l in
    let last = Sxml.Index.extent st.index c in
    let i = ref (lower_bound tagged (c + 1)) in
    add_probes st id 1;
    add_joined st id 1;
    let seen = ref 0 in
    let stop = ref false in
    while (not !stop) && !i < Array.length tagged && tagged.(!i) <= last do
      incr seen;
      if probe st k (id + 1) tagged.(!i) ~on_node ~on_attr then stop := true;
      incr i
    done;
    add_scanned st id !seen;
    !stop
  | Plan.Branch (a, b) ->
    probe st a (id + 1) c ~on_node ~on_attr
    || probe st b (id + 1 + Plan.size a) c ~on_node ~on_attr
  | Plan.Filter (p, q) ->
    let qid = id + 1 + Plan.size p in
    probe st p (id + 1) c
      ~on_node:(fun nid -> pred st q qid nid && on_node nid)
      ~on_attr

and pred st (q : Plan.pred) (id : int) (c : int) : bool =
  match q with
  | Plan.True -> true
  | Plan.False -> false
  | Plan.Exists p ->
    add_scanned st id 1;
    probe st p (id + 1) c ~on_node:(fun _ -> true) ~on_attr:(fun _ -> true)
  | Plan.Eq (p, v) ->
    add_scanned st id 1;
    let cst = resolve st v in
    probe st p (id + 1) c
      ~on_node:(fun nid ->
        Sxml.Tree.string_value_equal (node st nid) cst)
      ~on_attr:(fun a -> String.equal a cst)
  | Plan.And (a, b) ->
    pred st a (id + 1) c && pred st b (id + 1 + Plan.size_pred a) c
  | Plan.Or (a, b) ->
    pred st a (id + 1) c || pred st b (id + 1 + Plan.size_pred a) c
  | Plan.Not a -> not (pred st a (id + 1) c)

let no_env : string -> string option = fun _ -> None

let run_ids ?stats compiled ~index ?(env = no_env) ctx =
  let st = { index; env; vars = Compile.vars compiled; stats } in
  run_plan st (Compile.plan compiled) 0 ctx

let run ?stats compiled ~index ?(env = no_env) (root : Sxml.Tree.t) =
  let ids = run_ids ?stats compiled ~index ~env [| root.Sxml.Tree.id |] in
  Array.to_list (Array.map (Sxml.Index.node index) ids)
