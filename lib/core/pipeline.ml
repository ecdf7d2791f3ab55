type group = {
  name : string;
  view : View.t;
}

(* Cached translation entry: the rewritten+optimized query plus the
   lazily compiled physical plan for it.  Entries live in a Session's
   caches, which have a single owner — no locking. *)
type plan_state =
  | Unplanned
  | Planned of Splan.Compile.t
  | Fallback of string  (* compile refusal reason; use the interpreter *)

type centry = {
  translated : Sxpath.Ast.path;
  mutable plan : plan_state;
}

type admission = Admission.t =
  | Denied_empty of string
  | Trivial
  | Needs_eval

let admission_label = Admission.label

(* The one per-group counter shape: translation cache, plan cache and
   admission verdicts together, so every consumer (CLI --stats, the
   server's stats verb, GET /metrics) renders and merges the same
   record through the same code path. *)
type stats = {
  hits : int;
  misses : int;
  plan_hits : int;
  plan_misses : int;
  plan_compiles : int;
  plan_fallbacks : int;
  denied : int;
  trivial : int;
  eval : int;
}

let stats_zero =
  {
    hits = 0;
    misses = 0;
    plan_hits = 0;
    plan_misses = 0;
    plan_compiles = 0;
    plan_fallbacks = 0;
    denied = 0;
    trivial = 0;
    eval = 0;
  }

let stats_merge a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    plan_hits = a.plan_hits + b.plan_hits;
    plan_misses = a.plan_misses + b.plan_misses;
    plan_compiles = a.plan_compiles + b.plan_compiles;
    plan_fallbacks = a.plan_fallbacks + b.plan_fallbacks;
    denied = a.denied + b.denied;
    trivial = a.trivial + b.trivial;
    eval = a.eval + b.eval;
  }

(* Canonical field spelling, in canonical order — the single authority
   every JSON/metrics rendering of a stats record goes through. *)
let stats_fields s =
  [
    ("hits", s.hits);
    ("misses", s.misses);
    ("plan_hits", s.plan_hits);
    ("plan_misses", s.plan_misses);
    ("plan_compiles", s.plan_compiles);
    ("plan_fallbacks", s.plan_fallbacks);
    ("denied", s.denied);
    ("trivial", s.trivial);
    ("eval", s.eval);
  ]

(* The same record as metrics counters, [pipeline.<family>.<group>]:
   the one spelling of the sessions' traffic in a registry.  A field at
   zero is left out, as a counter nothing incremented is. *)
let stats_counters ~group s =
  List.filter_map
    (fun (family, v) ->
      if v = 0 then None
      else Some (String.concat "." [ "pipeline"; family; group ], v))
    [
      ("cache.hit", s.hits);
      ("cache.miss", s.misses);
      ("plan.hit", s.plan_hits);
      ("plan.miss", s.plan_misses);
      ("plan.compile", s.plan_compiles);
      ("plan.fallback", s.plan_fallbacks);
      ("admission.denied", s.denied);
      ("admission.trivial", s.trivial);
      ("admission.eval", s.eval);
    ]

type outcome = {
  o_results : Sxml.Tree.t list;
  o_translated : Sxpath.Ast.path;
  o_height : int option;
  o_plan : (Splan.Compile.t * Splan.Exec.Stats.t) option;
  o_fallback : string option;
}

type explanation = {
  x_admission : admission;
  x_translated : Sxpath.Ast.path;
  x_height : int option;
  x_plan : (Splan.Compile.t * Splan.Exec.Stats.t) option;
  x_fallback : string option;
  x_results : int;
  x_doc_version : int;
  x_generation : int;
}

(* ---- Service: the immutable, domain-shareable layer ------------------ *)

module Service = struct
  type gview = {
    g_info : group;
    g_spec : Spec.t;
    g_recursive : bool;
    g_opt : Optimize.prepared;  (* the view DTD's, for admission *)
  }

  type t = {
    s_dtd : Sdtd.Dtd.t;
    s_opt : Optimize.prepared;  (* the optimizer's per-DTD context *)
    s_views : (string, gview) Hashtbl.t;  (* read-only after create *)
    s_order : string list;
    s_catalog : Catalog.t;
    s_writes : int Atomic.t;  (* admitted writes, for provenance *)
  }

  let create ?catalog dtd ~groups =
    List.iter
      (fun (_, spec) ->
        if Sdtd.Dtd.stamp (Spec.dtd spec) <> Sdtd.Dtd.stamp dtd then
          invalid_arg "Pipeline.create: specification over a different DTD")
      groups;
    let views = Hashtbl.create 8 in
    List.iter
      (fun (name, spec) ->
        let view = Derive.derive spec in
        if Hashtbl.mem views name then
          invalid_arg (Printf.sprintf "Pipeline: duplicate group %S" name);
        Hashtbl.replace views name
          {
            g_info = { name; view };
            g_spec = spec;
            g_recursive = Sdtd.Dtd.is_recursive (View.dtd view);
            g_opt = Optimize.prepare (View.dtd view);
          })
      groups;
    let catalog =
      match catalog with Some c -> c | None -> Catalog.create ()
    in
    {
      s_dtd = dtd;
      s_opt = Optimize.prepare dtd;
      s_views = views;
      s_order = List.map fst groups;
      s_catalog = catalog;
      s_writes = Atomic.make 0;
    }

  let dtd t = t.s_dtd
  let catalog t = t.s_catalog
  let order t = t.s_order

  let groups t =
    List.map (fun name -> (Hashtbl.find t.s_views name).g_info) t.s_order

  let gview t name =
    match Hashtbl.find_opt t.s_views name with
    | Some gv -> gv
    | None -> raise Not_found

  let view t ~group = (gview t group).g_info.view
  let view_dtd t ~group = View.dtd (gview t group).g_info.view
  let spec t ~group = (gview t group).g_spec
  let generation t = Atomic.get t.s_writes

  (* Translations and plans depend on the query and the unfolding
     height only, never on document content, so a write evicts
     nothing: the count exists so [explain] can tell two runs apart
     by the writes between them. *)
  let record_write t = Atomic.incr t.s_writes
end

(* ---- Session: the per-domain caching layer --------------------------- *)

module Session = struct
  (* Counters are Atomics so another domain (the stats/metrics scrape
     path) can read a session's traffic without synchronizing with its
     owner; the owner is the only writer. *)
  type counters = {
    c_hits : int Atomic.t;
    c_misses : int Atomic.t;
    c_plan_hits : int Atomic.t;
    c_plan_misses : int Atomic.t;
    c_plan_compiles : int Atomic.t;
    c_plan_fallbacks : int Atomic.t;
    c_denied : int Atomic.t;
    c_trivial : int Atomic.t;
    c_eval : int Atomic.t;
  }

  let fresh_counters () =
    {
      c_hits = Atomic.make 0;
      c_misses = Atomic.make 0;
      c_plan_hits = Atomic.make 0;
      c_plan_misses = Atomic.make 0;
      c_plan_compiles = Atomic.make 0;
      c_plan_fallbacks = Atomic.make 0;
      c_denied = Atomic.make 0;
      c_trivial = Atomic.make 0;
      c_eval = Atomic.make 0;
    }

  let read_counters c =
    {
      hits = Atomic.get c.c_hits;
      misses = Atomic.get c.c_misses;
      plan_hits = Atomic.get c.c_plan_hits;
      plan_misses = Atomic.get c.c_plan_misses;
      plan_compiles = Atomic.get c.c_plan_compiles;
      plan_fallbacks = Atomic.get c.c_plan_fallbacks;
      denied = Atomic.get c.c_denied;
      trivial = Atomic.get c.c_trivial;
      eval = Atomic.get c.c_eval;
    }

  type sgroup = {
    gv : Service.gview;
    cache : (Sxpath.Ast.path * int option, centry) Hashtbl.t;
    admission_cache : (Sxpath.Ast.path, admission) Hashtbl.t;
    ctr : counters;
  }

  type t = {
    svc : Service.t;
    tbl : (string, sgroup) Hashtbl.t;
  }

  let create (svc : Service.t) =
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun name ->
        Hashtbl.replace tbl name
          {
            gv = Hashtbl.find svc.Service.s_views name;
            cache = Hashtbl.create 32;
            admission_cache = Hashtbl.create 32;
            ctr = fresh_counters ();
          })
      svc.Service.s_order;
    { svc; tbl }

  let sgroup sess name =
    match Hashtbl.find_opt sess.tbl name with
    | Some sg -> sg
    | None -> raise Not_found

  (* Warm lookups are one Hashtbl probe, no locks: the caches belong
     to this session alone.  Cold translations run the rewriter and
     optimizer right here — the schema tables they share fill by
     compare-and-set and Image's memo tables are domain-local, so
     concurrent sessions on different domains translate in parallel.
     Exactly one of hits/misses is bumped per
     call, so per-group [hits + misses] equals calls issued.  These
     counters are the only count of the traffic ([stats_counters]). *)
  let translate_entry sess sg ?height q =
    let key = (q, height) in
    match Hashtbl.find_opt sg.cache key with
    | Some ce ->
      Atomic.incr sg.ctr.c_hits;
      ce
    | None ->
      Atomic.incr sg.ctr.c_misses;
      let optimized =
        Trace.span "translate" @@ fun () ->
        let rewritten =
          match (sg.gv.Service.g_recursive, height) with
          | true, Some h ->
            Rewrite.rewrite_with_height sg.gv.Service.g_info.view ~height:h q
          | true, None ->
            raise
              (Rewrite.Unsupported
                 "recursive view: Pipeline.translate needs ~height")
          | false, _ -> Rewrite.rewrite sg.gv.Service.g_info.view q
        in
        Optimize.optimize_prepared sess.svc.Service.s_opt rewritten
      in
      let ce = { translated = optimized; plan = Unplanned } in
      Hashtbl.replace sg.cache key ce;
      ce

  let translate sess ~group ?height q =
    (translate_entry sess (sgroup sess group) ?height q).translated

  (* Static admission: decide the (group, query) pair from the view
     DTD alone — no document, no rewriting.  Cached per group and
     query (the verdict depends only on the view DTD, not on heights
     or documents).  Counters are bumped per call, not per distinct
     query, so they measure request traffic like the server's. *)
  let classify_sg sg q =
    let verdict =
      match Hashtbl.find_opt sg.admission_cache q with
      | Some v -> v
      | None ->
        let v =
          Trace.span "admission" @@ fun () ->
          Admission.classify sg.gv.Service.g_opt q
        in
        Hashtbl.replace sg.admission_cache q v;
        v
    in
    (match verdict with
    | Denied_empty _ -> Atomic.incr sg.ctr.c_denied
    | Trivial -> Atomic.incr sg.ctr.c_trivial
    | Needs_eval -> Atomic.incr sg.ctr.c_eval);
    verdict

  let classify sess ~group q =
    match sgroup sess group with
    | exception Not_found ->
      Error (Error.Unknown_group { group; known = sess.svc.Service.s_order })
    | sg -> Ok (classify_sg sg q)

  (* The physical plan for a cached translation, compiled at most once
     per entry (same hit/miss discipline as translation). *)
  let plan_of sg ce =
    match ce.plan with
    | Planned p ->
      Atomic.incr sg.ctr.c_plan_hits;
      Ok p
    | Fallback reason ->
      Atomic.incr sg.ctr.c_plan_hits;
      Error reason
    | Unplanned -> (
      Atomic.incr sg.ctr.c_plan_misses;
      let compiled =
        Trace.span "plan" (fun () -> Splan.Compile.compile ce.translated)
      in
      match compiled with
      | Ok p ->
        ce.plan <- Planned p;
        Atomic.incr sg.ctr.c_plan_compiles;
        Ok p
      | Error reason ->
        ce.plan <- Fallback reason;
        Atomic.incr sg.ctr.c_plan_fallbacks;
        Error reason)

  let doc_height sess snap =
    match Catalog.snapshot_memoized_height snap with
    | Some h ->
      if Trace.enabled () then Trace.count "pipeline.height.memo_hit" 1;
      h
    | None ->
      let h =
        Trace.span "height" (fun () ->
            Catalog.snapshot_height sess.svc.Service.s_catalog snap)
      in
      if Trace.enabled () then Trace.count "pipeline.height.computed" 1;
      h

  (* [thunk] gets the request's work meter: every run it starts counts
     in its own state and adds its total to the meter once, so the
     recorded value is this request's alone under parallel load *)
  let eval thunk =
    if Trace.enabled () then begin
      let visits = ref 0 in
      Fun.protect
        ~finally:(fun () -> Trace.value "eval.visited" !visits)
        (fun () -> Trace.span "eval" (fun () -> thunk visits))
    end
    else thunk (ref 0)

  let interp ?env ?index visits translated doc =
    Sxpath.Eval.run ~visits
      (Sxpath.Eval.Ctx.make ?env ?index ~root:doc ())
      translated

  (* The one execution body: translate through the cache, evaluate.
     Tree, height and index all come from the snapshot the caller
     pinned, so the answer is that version's however many writes land
     meanwhile, and the catalog is never searched.  An indexed document
     root runs the compiled plan over the snapshot's index; the
     interpreter answers, with the reason, when the plan compiler
     refuses the query or the context is not a document root (only a
     bare subtree handed to [answer] is not one).  [want_stats] sizes
     per-operator counters only when a consumer asked. *)
  let run sess sg ~want_stats ?env q snap =
    let doc = Catalog.snapshot_doc snap in
    let height =
      if sg.gv.Service.g_recursive then Some (doc_height sess snap) else None
    in
    let ce = translate_entry sess sg ?height q in
    let plan, fallback, results =
      if doc.Sxml.Tree.id <> 0 then
        ( None, Some "context is not an indexed document root",
          eval (fun v -> interp ?env v ce.translated doc) )
      else
        let index = Catalog.snapshot_index snap in
        match plan_of sg ce with
        | Error reason ->
          ( None, Some reason,
            eval (fun v -> interp ?env ~index v ce.translated doc) )
        | Ok compiled ->
          let stats =
            if want_stats then Some (Splan.Exec.Stats.for_plan compiled)
            else None
          in
          ( Option.map (fun s -> (compiled, s)) stats,
            None,
            eval (fun visits ->
                Splan.Exec.run ?stats ~visits compiled ~index ?env doc) )
    in
    {
      o_results = results;
      o_translated = ce.translated;
      o_height = height;
      o_plan = plan;
      o_fallback = fallback;
    }

  (* Resolve the group, run [k] on it and map the pipeline's failures
     to [Error.t] values. *)
  let with_group sess ~group k =
    match sgroup sess group with
    | exception Not_found ->
      Error (Error.Unknown_group { group; known = sess.svc.Service.s_order })
    | sg -> (
      match k sg with
      | v -> Ok v
      | exception Rewrite.Unsupported msg -> Error (Error.Unsupported msg)
      | exception Sxpath.Eval.Unbound_variable name ->
        Error (Error.Unbound_variable name))

  let answer_pinned sess ~group ?(counts = false) ?env q snap =
    with_group sess ~group @@ fun sg ->
    if Trace.enabled () then
      Trace.span "answer" (fun () ->
          run sess sg ~want_stats:counts ?env q snap)
    else run sess sg ~want_stats:counts ?env q snap

  let answer sess ~group ?env q doc =
    Result.map
      (fun o -> o.o_results)
      (answer_pinned sess ~group ?env q
         (Catalog.intern sess.svc.Service.s_catalog doc))

  let answer_exn sess ~group ?env q doc =
    match answer sess ~group ?env q doc with
    | Ok results -> results
    | Error e -> raise (Error.E e)

  (* EXPLAIN is the answer body run with per-operator counters, plus
     the admission verdict and the provenance.  It shares [answer]'s
     caches, so explaining a query warms them.  An explanation is
     operator introspection, not a data answer: results are counted,
     not returned. *)
  let explain sess ~group ?env q snap =
    with_group sess ~group @@ fun sg ->
    let admission = classify_sg sg q in
    let generation = Service.generation sess.svc in
    let o = run sess sg ~want_stats:true ?env q snap in
    {
      x_admission = admission;
      x_translated = o.o_translated;
      x_height = o.o_height;
      x_plan = o.o_plan;
      x_fallback = o.o_fallback;
      x_results = List.length o.o_results;
      x_doc_version = Catalog.snapshot_version snap;
      x_generation = generation;
    }

  let stats_of sess ~group =
    read_counters (sgroup sess group).ctr

  let all_stats sess =
    List.map
      (fun name -> (name, read_counters (sgroup sess name).ctr))
      sess.svc.Service.s_order

end
