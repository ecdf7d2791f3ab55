type source =
  | Loaded of Sxml.Tree.t
  | File of string

(* A snapshot is one immutable incarnation of a document plus its
   lazily-memoized derived facts.  Mutation never touches a snapshot
   in place: applying an update builds a fresh tree and swaps a fresh
   snapshot into the entry, so a reader that pinned the old one keeps
   a consistent {version, doc, height, index} quadruple for as long as
   it holds the pin — in-flight reads are never torn.  The write path
   adds two facts of its own: conformance to a DTD (keyed by the DTD's
   stamp, memoized like height) and one policy's accessibility flags
   (keyed by the policy value and the values bound to its variables),
   which only the write that publishes the snapshot sets. *)
type snapshot = {
  version : int;
  slock : Mutex.t;
  mutable source : source;
  mutable height : int option;
  mutable index : Sxml.Index.t option;
  mutable conforms : (int * bool) option;
  access : (access_key * Access.flags) option;
}

and access_key = Spec.t * string option list

type entry = {
  name : string option;
  elock : Mutex.t;  (* serializes snapshot swaps *)
  mutable snap : snapshot;
}

type t = {
  lock : Mutex.t;
  named : (string, entry) Hashtbl.t;
  mutable order : string list;  (* registration order, newest first *)
  mutable interned : entry list;  (* anonymous, newest first *)
  intern_capacity : int;
  height_walks : int Atomic.t;
}

let create ?(intern_capacity = 64) () =
  {
    lock = Mutex.create ();
    named = Hashtbl.create 8;
    order = [];
    interned = [];
    intern_capacity = max 1 intern_capacity;
    height_walks = Atomic.make 0;
  }

(* Version stamps are process-global and monotonic: re-registering a
   document under an existing name — or applying an update — yields a
   snapshot with a higher version, so provenance records (flight
   recorder, audit) can tell which incarnation of a document answered
   a request, and caches keyed on the stamp invalidate on bump. *)
let next_version = Atomic.make 1

let make_snapshot ?conforms ?access source =
  {
    version = Atomic.fetch_and_add next_version 1;
    slock = Mutex.create ();
    source;
    height = None;
    index = None;
    conforms;
    access;
  }

let make_entry ?name source =
  { name; elock = Mutex.create (); snap = make_snapshot source }

let register t ~name entry =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.named name) then t.order <- name :: t.order;
      Hashtbl.replace t.named name entry);
  entry

let add t ~name doc = register t ~name (make_entry ~name (Loaded doc))
let add_file t ~name path = register t ~name (make_entry ~name (File path))

let find t name =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.named name)

let names t = Mutex.protect t.lock (fun () -> List.rev t.order)

let name e = e.name

(* Reading [snap] is a single mutable-field load — atomic in the
   OCaml memory model — so pinning costs nothing and sees either the
   old or the new snapshot, never a mix. *)
let pin e = e.snap
let snapshot_version s = s.version
let version e = e.snap.version

let snapshot_doc s =
  Mutex.protect s.slock (fun () ->
      match s.source with
      | Loaded d -> d
      | File path ->
        let d = Sxml.Parse.of_file path in
        s.source <- Loaded d;
        d)

let doc e = snapshot_doc e.snap

let element_height doc =
  let rec go (n : Sxml.Tree.t) =
    match Sxml.Tree.element_children n with
    | [] -> 1
    | cs -> 1 + List.fold_left (fun acc c -> max acc (go c)) 0 cs
  in
  go doc

let snapshot_memoized_height s = Mutex.protect s.slock (fun () -> s.height)
let memoized_height e = snapshot_memoized_height e.snap

let snapshot_height t s =
  let d = snapshot_doc s in
  Mutex.protect s.slock (fun () ->
      match s.height with
      | Some h -> h
      | None ->
        let h = element_height d in
        Atomic.incr t.height_walks;
        s.height <- Some h;
        h)

let height t e = snapshot_height t e.snap

let snapshot_index s =
  let d = snapshot_doc s in
  Mutex.protect s.slock (fun () ->
      match s.index with
      | Some i -> i
      | None ->
        let i = Sxml.Index.build d in
        s.index <- Some i;
        i)

let index e = snapshot_index e.snap

(* Conformance is computed outside the snapshot lock: readers take it
   for the document, height and index, and must not wait on a writer's
   whole-document pass.  Two racing computations agree, so the later
   store is harmless. *)
let snapshot_conforms s dtd =
  let d = snapshot_doc s in
  let stamp = Sdtd.Dtd.stamp dtd in
  match Mutex.protect s.slock (fun () -> s.conforms) with
  | Some (st, c) when st = stamp -> c
  | _ ->
    let c = Sdtd.Validate.conforms dtd d in
    Mutex.protect s.slock (fun () -> s.conforms <- Some (stamp, c));
    c

let no_env : string -> string option = fun _ -> None
let access_key ~env spec = (spec, List.map env (Spec.variables spec))

(* Only [Engine.apply] asks, after admitting a write that then
   supersedes this snapshot, so a flag set computed here would never
   be read again: a miss computes without storing. *)
let snapshot_access ?(env = no_env) s spec =
  match s.access with
  | Some ((sp, values), flags)
    when sp == spec && values = snd (access_key ~env spec) ->
    flags
  | _ -> Access.accessible_flags ~env spec (snapshot_doc s)

let update ~conforms ~access:(spec, env, flags) e doc =
  let conforms = (Sdtd.Dtd.stamp conforms, true)
  and access = (access_key ~env spec, flags) in
  Mutex.protect e.elock (fun () ->
      let s = make_snapshot ~conforms ~access (Loaded doc) in
      e.snap <- s;
      s.version)

(* Interning looks the document up by physical identity: the named
   table first (a server answers requests over catalog documents it
   loaded itself), then the bounded anonymous list.  The bound keeps a
   caller that streams throwaway documents through [Pipeline.answer]
   from leaking entries; eviction drops the oldest. *)
let intern t d =
  let is_loaded e =
    (* no lock: [source] only ever steps File -> Loaded, and a racing
       reader that misses the update just falls through to a fresh
       anonymous entry with the same memoized-height semantics *)
    match e.snap.source with Loaded d' -> d' == d | File _ -> false
  in
  Mutex.protect t.lock (fun () ->
      let named =
        Hashtbl.fold
          (fun _ e acc -> if acc = None && is_loaded e then Some e else acc)
          t.named None
      in
      match named with
      | Some e -> e
      | None -> (
        match List.find_opt is_loaded t.interned with
        | Some e -> e
        | None ->
          let e = make_entry (Loaded d) in
          let kept =
            if List.length t.interned >= t.intern_capacity then
              List.filteri (fun i _ -> i < t.intern_capacity - 1) t.interned
            else t.interned
          in
          t.interned <- e :: kept;
          e))

let height_walks t = Atomic.get t.height_walks

let entries t =
  Mutex.protect t.lock (fun () ->
      List.rev_map (fun n -> Hashtbl.find t.named n) t.order)
