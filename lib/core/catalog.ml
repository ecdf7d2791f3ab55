(* A snapshot is one immutable incarnation of a document plus its
   lazily-memoized derived facts.  Mutation never touches a snapshot
   in place: applying an update builds a fresh tree and swaps a fresh
   snapshot into the entry, so a reader that pinned the old one keeps
   a consistent {version, doc, height, index} quadruple for as long as
   it holds the pin — in-flight reads are never torn.  The write path
   adds two facts of its own: conformance to a DTD (keyed by the DTD's
   stamp, memoized like height) and one policy's accessibility flags
   (keyed by the policy value and the values bound to its variables),
   which only the write that publishes the snapshot sets.

   Height and index are whole-document builds, so each has a lock of
   its own: a writer reading the document never waits on a reader's
   build. *)
type snapshot = {
  version : int;
  doc : Sxml.Tree.t;
  height : int memo;
  index : Sxml.Index.t memo;
  conforms : (int * bool) option Atomic.t;
  access : (access_key * Access.flags) option;
}

(* A fact computed at most once: a filled memo is read without a lock;
   the first reader to find it empty builds it under the memo's lock,
   and readers arriving meanwhile wait for that build. *)
and 'a memo = {
  mlock : Mutex.t;
  value : 'a option Atomic.t;
}

and access_key = Spec.t * string option list

type entry = {
  elock : Mutex.t;  (* serializes snapshot swaps *)
  mutable snap : snapshot;
}

type t = {
  lock : Mutex.t;
  named : (string, entry) Hashtbl.t;
  mutable order : string list;  (* registration order, newest first *)
  mutable interned : entry list;  (* anonymous, newest first *)
  height_walks : int Atomic.t;
}

let intern_capacity = 64

let create () =
  {
    lock = Mutex.create ();
    named = Hashtbl.create 8;
    order = [];
    interned = [];
    height_walks = Atomic.make 0;
  }

(* Version stamps are process-global and monotonic: re-registering a
   document under an existing name — or applying an update — yields a
   snapshot with a higher version, so provenance records (flight
   recorder, audit) can tell which incarnation of a document answered
   a request, and caches keyed on the stamp invalidate on bump. *)
let next_version = Atomic.make 1

let memo ?value () = { mlock = Mutex.create (); value = Atomic.make value }

(* [build x] runs only on a miss; a hit allocates nothing. *)
let force m build x =
  match Atomic.get m.value with
  | Some v -> v
  | None ->
    Mutex.protect m.mlock (fun () ->
        match Atomic.get m.value with
        | Some v -> v
        | None ->
          let v = build x in
          Atomic.set m.value (Some v);
          v)

let make_snapshot ?conforms ?access ?index doc =
  {
    version = Atomic.fetch_and_add next_version 1;
    doc;
    height = memo ();
    index = memo ?value:index ();
    conforms = Atomic.make conforms;
    access;
  }

let make_entry doc = { elock = Mutex.create (); snap = make_snapshot doc }

let register t ~name entry =
  Mutex.protect t.lock (fun () ->
      if not (Hashtbl.mem t.named name) then t.order <- name :: t.order;
      Hashtbl.replace t.named name entry);
  entry

let add t ~name doc = register t ~name (make_entry doc)

let find t name =
  Mutex.protect t.lock (fun () -> Hashtbl.find_opt t.named name)

let names t = Mutex.protect t.lock (fun () -> List.rev t.order)

(* Reading [snap] is a single mutable-field load — atomic in the
   OCaml memory model — so pinning costs nothing and sees either the
   old or the new snapshot, never a mix. *)
let pin e = e.snap
let snapshot_version s = s.version
let version e = e.snap.version

let snapshot_doc s = s.doc
let doc e = e.snap.doc

let element_height doc =
  let rec go (n : Sxml.Tree.t) =
    match Sxml.Tree.element_children n with
    | [] -> 1
    | cs -> 1 + List.fold_left (fun acc c -> max acc (go c)) 0 cs
  in
  go doc

let snapshot_memoized_height s = Atomic.get s.height.value

let snapshot_height t s =
  force s.height
    (fun s ->
      Atomic.incr t.height_walks;
      element_height s.doc)
    s

let build_index s = Sxml.Index.build s.doc
let snapshot_index s = force s.index build_index s

let index e = snapshot_index e.snap

(* Conformance is computed without a lock: two racing computations
   agree, so the later store is harmless. *)
let snapshot_conforms s dtd =
  let stamp = Sdtd.Dtd.stamp dtd in
  match Atomic.get s.conforms with
  | Some (st, c) when st = stamp -> c
  | _ ->
    let c = Sdtd.Validate.conforms dtd s.doc in
    Atomic.set s.conforms (Some (stamp, c));
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
  | _ -> Access.accessible_flags ~env spec s.doc

let update ~conforms ~access:(spec, env, flags) e index =
  let conforms = (Sdtd.Dtd.stamp conforms, true)
  and access = (access_key ~env spec, flags) in
  Mutex.protect e.elock (fun () ->
      let s =
        make_snapshot ~conforms ~access ~index (Sxml.Index.node index 0)
      in
      e.snap <- s;
      s.version)

(* Interning looks the document up by physical identity: the named
   table first (a server answers requests over catalog documents it
   loaded itself), then the bounded anonymous list.  It hands back the
   snapshot holding [d], read once: a write may swap a named entry's
   snapshot at any moment, and a caller that went back to the entry
   would get the new tree's height or index for the old tree.  The
   bound keeps a caller that streams throwaway documents through
   [Session.answer] from leaking entries; eviction drops the oldest. *)
let intern t d =
  let holding e =
    let s = e.snap in
    if s.doc == d then Some s else None
  in
  Mutex.protect t.lock (fun () ->
      let named =
        Hashtbl.fold
          (fun _ e acc -> if Option.is_none acc then holding e else acc)
          t.named None
      in
      match named with
      | Some s -> s
      | None -> (
        match List.find_map holding t.interned with
        | Some s -> s
        | None ->
          let e = make_entry d in
          let kept =
            if List.length t.interned >= intern_capacity then
              List.filteri (fun i _ -> i < intern_capacity - 1) t.interned
            else t.interned
          in
          t.interned <- e :: kept;
          e.snap))

let height_walks t = Atomic.get t.height_walks
