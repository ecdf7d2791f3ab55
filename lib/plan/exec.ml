(* Per-operator work counters, one slot per operator, indexed by its
   preorder number ({!Plan.t}'s [id], a predicate's [pid]).  Allocated
   per run by the caller (explain, slow-query probes); execution is
   unchanged when absent. *)
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

  let for_plan compiled = create (Compile.operators compiled)
  let sum = Array.fold_left ( + ) 0

  let totals s =
    [
      ("scanned", sum s.scanned);
      ("probes", sum s.probes);
      ("joined", sum s.joined);
      ("rows", if Array.length s.emitted = 0 then 0 else s.emitted.(0));
    ]
end

(* The identifier sets of a run are slices of one growable array used
   as a stack: an operator reads its contexts below the top and leaves
   its result on top, writing nothing below the top it was called
   with. *)
module Arena = struct
  type t = {
    mutable ids : int array;
    mutable top : int;
  }

  let create () = { ids = Array.make 256 0; top = 0 }

  (* room for [n] more identifiers *)
  let reserve ar n =
    let need = ar.top + n in
    if need > Array.length ar.ids then begin
      let ids = Array.make (max need (2 * Array.length ar.ids)) 0 in
      Array.blit ar.ids 0 ids 0 ar.top;
      ar.ids <- ids
    end

  let push ar x =
    if ar.top = Array.length ar.ids then reserve ar 1;
    ar.ids.(ar.top) <- x;
    ar.top <- ar.top + 1
end

(* An arena outlives its run: each domain keeps one spare, which a run
   takes and gives back, so a run's sets reach the major heap only
   while the spare grows to the largest run's size.  A run that finds
   no spare (another thread's run on the domain holds it) makes its
   own; an arena grown past [kept] identifiers is not kept. *)
let spare : Arena.t option Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make None)

let kept = 1 lsl 16

let take () =
  match Atomic.exchange (Domain.DLS.get spare) None with
  | Some ar -> ar
  | None -> Arena.create ()

let give (ar : Arena.t) =
  if Array.length ar.ids <= kept then
    Atomic.set (Domain.DLS.get spare) (Some ar)

(* One run's state: the index's columns, each label slot resolved to
   its tag, each variable slot's value once looked up.  [visits] is
   the run's own work meter, handed to the caller once at the end, so
   runs on different domains never write one shared counter. *)
type st = {
  index : Sxml.Index.t;
  extents : int array;
  codes : int array;
  tags : Sxml.Index.tag array;  (* by label slot *)
  env : string -> string option;
  vars : string array;
  values : string option array;  (* by variable slot *)
  stats : Stats.t option;
  arena : Arena.t;
  mutable visits : int;
}

let visit st = st.visits <- st.visits + 1

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

let value st = function
  | Plan.Const c -> c
  | Plan.Slot i -> (
    match st.values.(i) with
    | Some c -> c
    | None -> (
      let name = st.vars.(i) in
      match st.env name with
      | Some c as v ->
        st.values.(i) <- v;
        c
      | None -> raise (Sxpath.Eval.Unbound_variable name)))

(* first position in [arr] holding an id >= [target] *)
let lower_bound (arr : int array) target =
  let lo = ref 0 and hi = ref (Array.length arr) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if arr.(mid) < target then lo := mid + 1 else hi := mid
  done;
  !lo

let node st id = Sxml.Index.node st.index id

(* the code a [*] step wants: every element's *)
let any = min_int

let passes st code k =
  let c = st.codes.(k) in
  c = code || (code = any && c >= 0)

(* Write the sorted union of the slices [a, ea) and [b, eb) on top,
   each ascending and duplicate-free, and return its start. *)
let merge (ar : Arena.t) a ea b eb =
  Arena.reserve ar (ea - a + (eb - b));
  let ids = ar.ids and start = ar.top in
  let i = ref a and j = ref b and k = ref start in
  while !i < ea || !j < eb do
    if !j >= eb || (!i < ea && ids.(!i) <= ids.(!j)) then begin
      if !j < eb && ids.(!j) = ids.(!i) then incr j;
      ids.(!k) <- ids.(!i);
      incr i
    end
    else begin
      ids.(!k) <- ids.(!j);
      incr j
    end;
    incr k
  done;
  ar.top <- !k;
  start

(* Set-at-a-time execution: [run_plan st p lo hi] answers [p] from the
   contexts in the arena slice [lo, hi), ascending and duplicate-free,
   and returns the start of its result, left on top of the arena and
   ascending and duplicate-free too.  Child steps keep that order
   because distinct contexts have disjoint children (a sort repairs
   the interleaving of nested contexts), descendant joins because
   contexts nested inside an already-covered extent are skipped, so
   the emitted slices are disjoint and ascending.  Each operator's
   work lands in the counters at its number when [st.stats] is
   present. *)
let rec run_plan st (p : Plan.t) lo hi : int =
  let ar = st.arena in
  let start = ar.top in
  let out =
    match p.op with
    | Plan.Nothing | Plan.Attr _ ->
      (* attribute values leave the node world; only probes see them *)
      start
    | Plan.Self ->
      if hi = start then lo
      else begin
        Arena.reserve ar (hi - lo);
        Array.blit ar.ids lo ar.ids start (hi - lo);
        ar.top <- start + (hi - lo);
        start
      end
    | Plan.Child l -> children st p st.tags.(l).code lo hi
    | Plan.Child_any -> children st p any lo hi
    | Plan.Seq (a, b) ->
      let mid = run_plan st a lo hi in
      run_plan st b mid ar.top
    | Plan.Desc (l, k) ->
      let tagged = st.tags.(l).ids in
      let covered = ref (-1) and seen = ref 0 and joins = ref 0 in
      for i = lo to hi - 1 do
        let c = ar.ids.(i) in
        if c > !covered then begin
          visit st;
          incr joins;
          let last = st.extents.(c) in
          covered := last;
          let j = ref (lower_bound tagged (c + 1)) in
          while !j < Array.length tagged && tagged.(!j) <= last do
            incr seen;
            Arena.push ar tagged.(!j);
            incr j
          done
        end
      done;
      add_probes st p.id !joins;
      add_joined st p.id !joins;
      add_scanned st p.id !seen;
      run_plan st k start ar.top
    | Plan.Branch (a, b) ->
      let sa = run_plan st a lo hi in
      let ea = ar.top in
      let sb = run_plan st b lo hi in
      merge ar sa ea sb ar.top
    | Plan.Filter (base, q) ->
      let s = run_plan st base lo hi in
      let e = ar.top in
      add_scanned st p.id (e - s);
      for i = s to e - 1 do
        let c = ar.ids.(i) in
        if pred st q c then Arena.push ar c
      done;
      e
  in
  add_emitted st p.id (ar.top - out);
  out

(* A child step from every context: each context's children are the
   identifiers [c + 1], then [extent k + 1] after child [k], up to
   [extent c]; each is tested against the code column, text children
   included in [scanned]. *)
and children st (p : Plan.t) code lo hi =
  let ar = st.arena in
  let start = ar.top in
  let seen = ref 0 and sorted = ref true in
  for i = lo to hi - 1 do
    let c = ar.ids.(i) in
    visit st;
    let last = st.extents.(c) in
    let k = ref (c + 1) in
    while !k <= last do
      let x = !k in
      incr seen;
      if passes st code x then begin
        if ar.top > start && x < ar.ids.(ar.top - 1) then sorted := false;
        Arena.push ar x
      end;
      k := st.extents.(x) + 1
    done
  done;
  add_scanned st p.id !seen;
  if not !sorted then begin
    let s = Array.sub ar.ids start (ar.top - start) in
    Array.sort Int.compare s;
    Array.blit s 0 ar.ids start (Array.length s)
  end;
  start

(* Node-at-a-time probe for qualifier evaluation: walk [p] from one
   context node, handing each node or attribute value an operator
   finds to its continuation ({!Plan.next}), and stop at the first
   that succeeds.  Probes use no arena and build no closure.  They
   count scanned candidates and index probes but not emitted rows —
   short-circuit means a probe's "output" is one boolean. *)
and probe st (p : Plan.t) c =
  match p.op with
  | Plan.Nothing -> false
  | Plan.Self -> found st p.next c
  | Plan.Child l -> probe_children st p st.tags.(l).code c
  | Plan.Child_any -> probe_children st p any c
  | Plan.Attr a -> (
    visit st;
    add_scanned st p.id 1;
    match Sxml.Tree.attr (node st c) a with
    | Some v -> found_value st p.next v
    | None -> false)
  | Plan.Seq (a, _) -> probe st a c
  | Plan.Desc (l, k) ->
    visit st;
    let tagged = st.tags.(l).ids in
    let last = st.extents.(c) in
    add_probes st p.id 1;
    add_joined st p.id 1;
    let i = ref (lower_bound tagged (c + 1)) in
    let seen = ref 0 and hit = ref false in
    while (not !hit) && !i < Array.length tagged && tagged.(!i) <= last do
      incr seen;
      if probe st k tagged.(!i) then hit := true;
      incr i
    done;
    add_scanned st p.id !seen;
    !hit
  | Plan.Branch (a, b) -> probe st a c || probe st b c
  | Plan.Filter (base, _) -> probe st base c

and probe_children st (p : Plan.t) code c =
  visit st;
  let last = st.extents.(c) in
  let k = ref (c + 1) and seen = ref 0 and hit = ref false in
  while (not !hit) && !k <= last do
    let x = !k in
    incr seen;
    if passes st code x && found st p.next x then hit := true
    else k := st.extents.(x) + 1
  done;
  add_scanned st p.id !seen;
  !hit

and found st (next : Plan.next) c =
  match next with
  | Plan.Accept -> true
  | Plan.Equal v -> Sxml.Tree.string_value_equal (node st c) (value st v)
  | Plan.Into p -> probe st p c
  | Plan.Check (q, next) -> pred st q c && found st next c

and found_value st (next : Plan.next) v =
  match next with
  | Plan.Accept -> true
  | Plan.Equal w -> String.equal v (value st w)
  | Plan.Into _ -> false
  | Plan.Check (_, next) -> found_value st next v

and pred st (q : Plan.pred) c =
  match q.test with
  | Plan.True -> true
  | Plan.False -> false
  | Plan.Exists p ->
    add_scanned st q.pid 1;
    probe st p c
  | Plan.Eq (p, v) ->
    add_scanned st q.pid 1;
    ignore (value st v);
    probe st p c
  | Plan.And (a, b) -> pred st a c && pred st b c
  | Plan.Or (a, b) -> pred st a c || pred st b c
  | Plan.Not a -> not (pred st a c)

(* the nodes of the slice [start, i], consed onto [acc] *)
let rec answer st start i acc =
  if i < start then acc
  else answer st start (i - 1) (node st st.arena.ids.(i) :: acc)

let no_env : string -> string option = fun _ -> None

let run ?stats ?visits compiled ~index ?(env = no_env) (root : Sxml.Tree.t) =
  let arena = take () in
  let vars = Compile.vars compiled in
  let st =
    {
      index;
      extents = Sxml.Index.extents index;
      codes = Sxml.Index.codes index;
      tags = Array.map (Sxml.Index.tag index) (Compile.labels compiled);
      env;
      vars;
      values = Array.make (Array.length vars) None;
      stats;
      arena;
      visits = 0;
    }
  in
  arena.top <- 0;
  Arena.push arena root.Sxml.Tree.id;
  match run_plan st (Compile.plan compiled) 0 1 with
  | start ->
    (match visits with Some m -> m := !m + st.visits | None -> ());
    let nodes = answer st start (arena.top - 1) [] in
    give arena;
    nodes
  | exception e ->
    give arena;
    raise e
