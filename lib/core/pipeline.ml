type group = {
  name : string;
  view : View.t;
}

type engine =
  | Interp
  | Plan

let engine_label = function Interp -> "interp" | Plan -> "plan"

let engine_of_string = function
  | "interp" -> Some Interp
  | "plan" -> Some Plan
  | _ -> None

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

type admission =
  | Denied_empty of string
  | Trivial
  | Needs_eval

let admission_label = function
  | Denied_empty _ -> "denied"
  | Trivial -> "trivial"
  | Needs_eval -> "eval"

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

(* ---- registration hooks (analysis sublibrary) ----------------------- *)

let strict_gate :
    (dtd:Sdtd.Dtd.t -> ?spec:Spec.t -> View.t -> string list) option ref =
  ref None

let set_strict_gate f = strict_gate := Some f

(* The admission analyzer is registered by the analysis sublibrary
   (Sanalysis.Semantic) the same way the strict gate is: lib/core
   cannot depend on lib/analysis, so classification degrades to
   [Needs_eval] when that library is not linked.  Both hooks are set
   once at link time (module initialization) and only read afterwards,
   so sharing them across domains is safe. *)
let admission_analyzer :
    (Sdtd.Dtd.t -> Sxpath.Ast.path -> admission) option ref =
  ref None

let set_admission_analyzer f = admission_analyzer := Some f

(* [pairs]: (group, view, policy if we have one). *)
let run_strict_gate dtd pairs =
  match !strict_gate with
  | None ->
    invalid_arg
      "Pipeline: ?strict requires the static-analysis gate; link the \
       analysis sublibrary (Sanalysis.Lint) or drop ~strict:true"
  | Some gate ->
    let errors =
      List.concat_map
        (fun (name, view, spec) ->
          List.map
            (fun e -> Printf.sprintf "group %S: %s" name e)
            (gate ~dtd ?spec view))
        pairs
    in
    if errors <> [] then
      invalid_arg
        ("Pipeline: strict validation failed:\n" ^ String.concat "\n" errors)

type outcome = {
  o_results : Sxml.Tree.t list;
  o_translated : Sxpath.Ast.path;
  o_engine : engine;
  o_counts : (string * int) list;
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
    g_spec : Spec.t option;  (* None: view-only construction — no writes *)
    g_recursive : bool;
  }

  type t = {
    s_dtd : Sdtd.Dtd.t;
    s_views : (string, gview) Hashtbl.t;  (* read-only after create *)
    s_order : string list;
    s_catalog : Catalog.t;
    s_writes : int Atomic.t;  (* admitted writes, for provenance *)
  }

  let of_views ?catalog dtd pairs =
    let views = Hashtbl.create 8 in
    List.iter
      (fun (name, view, spec) ->
        if Hashtbl.mem views name then
          invalid_arg (Printf.sprintf "Pipeline: duplicate group %S" name);
        Hashtbl.replace views name
          {
            g_info = { name; view };
            g_spec = spec;
            g_recursive = Sdtd.Dtd.is_recursive (View.dtd view);
          })
      pairs;
    let catalog =
      match catalog with Some c -> c | None -> Catalog.create ()
    in
    {
      s_dtd = dtd;
      s_views = views;
      s_order = List.map (fun (name, _, _) -> name) pairs;
      s_catalog = catalog;
      s_writes = Atomic.make 0;
    }

  let create ?(strict = false) ?catalog dtd ~groups =
    List.iter
      (fun (_, spec) ->
        if Sdtd.Dtd.stamp (Spec.dtd spec) <> Sdtd.Dtd.stamp dtd then
          invalid_arg "Pipeline.create: specification over a different DTD")
      groups;
    let derived =
      List.map (fun (name, spec) -> (name, Derive.derive spec, spec)) groups
    in
    if strict then
      run_strict_gate dtd
        (List.map (fun (name, view, spec) -> (name, view, Some spec)) derived);
    of_views ?catalog dtd
      (List.map (fun (name, view, spec) -> (name, view, Some spec)) derived)

  let create_with_views ?(strict = false) ?catalog dtd ~groups =
    if strict then
      run_strict_gate dtd
        (List.map (fun (name, view) -> (name, view, None)) groups);
    of_views ?catalog dtd
      (List.map (fun (name, view) -> (name, view, None)) groups)

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

  type slot = t Atomic.t

  let slot t = Atomic.make t
  let current slot = Atomic.get slot
  let publish slot t = Atomic.set slot t
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
    slot : Service.slot;
    mutable svc : Service.t;
    tbl : (string, sgroup) Hashtbl.t;
  }

  let fresh_sgroup ?ctr gv =
    {
      gv;
      cache = Hashtbl.create 32;
      admission_cache = Hashtbl.create 32;
      ctr = (match ctr with Some c -> c | None -> fresh_counters ());
    }

  (* (Re)build the per-group cache table for a service.  Counters
     survive a rebuild — they measure this session's traffic, not one
     service's. *)
  let rebuild sess (svc : Service.t) =
    let old = Hashtbl.copy sess.tbl in
    Hashtbl.reset sess.tbl;
    List.iter
      (fun name ->
        let gv = Hashtbl.find svc.Service.s_views name in
        let ctr =
          match Hashtbl.find_opt old name with
          | Some sg -> Some sg.ctr
          | None -> None
        in
        Hashtbl.replace sess.tbl name (fresh_sgroup ?ctr gv))
      svc.Service.s_order;
    sess.svc <- svc

  let of_slot slot =
    let svc = Service.current slot in
    let sess = { slot; svc; tbl = Hashtbl.create 8 } in
    rebuild sess svc;
    sess

  let create svc = of_slot (Service.slot svc)

  (* Catch up with a republished service (a policy reload) by
     rebuilding the cache table.  Called on every public entry — one
     atomic load on the warm path. *)
  let sync sess =
    let svc = Service.current sess.slot in
    if svc != sess.svc then rebuild sess svc

  let service sess =
    sync sess;
    sess.svc

  let sgroup sess name =
    match Hashtbl.find_opt sess.tbl name with
    | Some sg -> sg
    | None -> raise Not_found

  (* Warm lookups are one Hashtbl probe, no locks: the caches belong
     to this session alone.  Cold translations run the rewriter and
     optimizer right here — Image's memo tables are domain-local and
     guard themselves, so concurrent sessions on different domains
     translate in parallel.  Exactly one of hits/misses is bumped per
     call, so per-group [hits + misses] equals calls issued. *)
  let translate_entry sess sg ~group ?height q =
    let key = (q, height) in
    match Hashtbl.find_opt sg.cache key with
    | Some ce ->
      Atomic.incr sg.ctr.c_hits;
      if Trace.enabled () then Trace.count ("pipeline.cache.hit." ^ group) 1;
      ce
    | None ->
      Atomic.incr sg.ctr.c_misses;
      if Trace.enabled () then Trace.count ("pipeline.cache.miss." ^ group) 1;
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
        Optimize.optimize sess.svc.Service.s_dtd rewritten
      in
      let ce = { translated = optimized; plan = Unplanned } in
      Hashtbl.replace sg.cache key ce;
      ce

  let translate sess ~group ?height q =
    sync sess;
    (translate_entry sess (sgroup sess group) ~group ?height q).translated

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
          match !admission_analyzer with
          | None -> Needs_eval
          | Some analyze ->
            Trace.span "admission" @@ fun () ->
            analyze (View.dtd sg.gv.Service.g_info.view) q
        in
        Hashtbl.replace sg.admission_cache q v;
        v
    in
    (match verdict with
    | Denied_empty _ -> Atomic.incr sg.ctr.c_denied
    | Trivial -> Atomic.incr sg.ctr.c_trivial
    | Needs_eval -> Atomic.incr sg.ctr.c_eval);
    Trace.count ("pipeline.admission." ^ admission_label verdict) 1;
    verdict

  let classify sess ~group q =
    sync sess;
    match sgroup sess group with
    | exception Not_found ->
      Error (Error.Unknown_group { group; known = sess.svc.Service.s_order })
    | sg -> Ok (classify_sg sg q)

  (* The physical plan for a cached translation, compiled at most once
     per entry (same hit/miss discipline as translation). *)
  let plan_of sess sg ~group ce =
    match ce.plan with
    | Planned p ->
      Atomic.incr sg.ctr.c_plan_hits;
      if Trace.enabled () then Trace.count ("pipeline.plan.hit." ^ group) 1;
      Ok p
    | Fallback reason ->
      Atomic.incr sg.ctr.c_plan_hits;
      if Trace.enabled () then Trace.count ("pipeline.plan.hit." ^ group) 1;
      Error reason
    | Unplanned -> (
      Atomic.incr sg.ctr.c_plan_misses;
      if Trace.enabled () then Trace.count ("pipeline.plan.miss." ^ group) 1;
      let compiled =
        Trace.span "plan" (fun () ->
            (* With the admission analyzer linked, statically-empty
               top-level union branches of the translated document
               query are dropped before lowering (the verdict is over
               the document DTD here — the query is past rewriting). *)
            match
              (!admission_analyzer, Sxpath.Ast.union_branches ce.translated)
            with
            | None, _ | _, ([] | [ _ ]) ->
              (* nothing to prune on a single branch: the provably-empty
                 whole-query case is [classify]'s job, before planning *)
              Splan.Compile.compile ce.translated
            | Some analyze, branches ->
              let dead =
                List.filter
                  (fun b ->
                    match analyze sess.svc.Service.s_dtd b with
                    | Denied_empty _ -> true
                    | Trivial | Needs_eval -> false)
                  branches
              in
              Splan.Compile.compile ~prune:dead ce.translated)
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

  let doc_height sess doc =
    let entry = Catalog.intern sess.svc.Service.s_catalog doc in
    match Catalog.memoized_height entry with
    | Some h ->
      if Trace.enabled () then Trace.count "pipeline.height.memo_hit" 1;
      h
    | None ->
      let h =
        Trace.span "height" (fun () ->
            Catalog.height sess.svc.Service.s_catalog entry)
      in
      if Trace.enabled () then Trace.count "pipeline.height.computed" 1;
      h

  let request_height sess sg ?height doc =
    if not sg.gv.Service.g_recursive then None
    else
      match height with Some _ -> height | None -> Some (doc_height sess doc)

  (* The index the plan engine executes over: the caller's if given,
     else the catalog's memoized one.  A context that is not a
     document root cannot be indexed — the engine falls back to the
     interpreter (only reachable through direct library use; the CLI
     and server always answer at document roots). *)
  let exec_index sess ?index (doc : Sxml.Tree.t) =
    match index with
    | Some _ -> index
    | None ->
      if doc.Sxml.Tree.id = 0 then
        Some (Catalog.index (Catalog.intern sess.svc.Service.s_catalog doc))
      else None

  let interp ?env ?index translated doc =
    Sxpath.Eval.run (Sxpath.Eval.Ctx.make ?env ?index ~root:doc ()) translated

  (* Pick the engine that will actually run: (engine used, per-operator
     stats when the plan engine runs and the caller asked, thunk).
     [want_stats] keeps the hot path allocation-free — counters are
     only sized and threaded through when an outcome consumer asked. *)
  let run_engine sess sg ~group ~engine ~want_stats ?env ?index ce doc =
    match engine with
    | Interp -> (Interp, None, fun () -> interp ?env ?index ce.translated doc)
    | Plan -> (
      match exec_index sess ?index doc with
      | None -> (Interp, None, fun () -> interp ?env ?index ce.translated doc)
      | Some idx -> (
        match plan_of sess sg ~group ce with
        | Ok compiled ->
          let stats =
            if want_stats then Some (Splan.Exec.Stats.for_plan compiled)
            else None
          in
          (Plan, stats,
           fun () -> Splan.Exec.run ?stats compiled ~index:idx ?env doc)
        | Error _ ->
          (Interp, None, fun () -> interp ?env ~index:idx ce.translated doc)))

  let answer_observed sess sg ~group ~engine ~want_stats ?env ?index ?height q
      doc =
    Trace.span "answer" @@ fun () ->
    let height = request_height sess sg ?height doc in
    let cache_hit = Hashtbl.mem sg.cache (q, height) in
    let finish translated results error =
      Trace.audit { Trace.group; query = q; translated; cache_hit; height;
                    results; error }
    in
    match translate_entry sess sg ~group ?height q with
    | exception e ->
      if Trace.audit_enabled () then
        finish None 0 (Some (Printexc.to_string e));
      raise e
    | ce -> (
      (* [visited] is a trace-only work meter shared by every domain's
         evaluators without synchronization: lost updates under
         parallel load are acceptable, a per-request delta observed on
         one domain is exact *)
      let v0 = !Sxpath.Eval.visited + !Splan.Exec.visited in
      let used, stats, thunk =
        run_engine sess sg ~group ~engine ~want_stats ?env ?index ce doc
      in
      match Trace.span "eval" thunk with
      | exception e ->
        Trace.value "eval.visited"
          (!Sxpath.Eval.visited + !Splan.Exec.visited - v0);
        if Trace.audit_enabled () then
          finish (Some ce.translated) 0 (Some (Printexc.to_string e));
        raise e
      | results ->
        Trace.value "eval.visited"
          (!Sxpath.Eval.visited + !Splan.Exec.visited - v0);
        if Trace.audit_enabled () then
          finish (Some ce.translated) (List.length results) None;
        (results, ce, used, stats))

  let answer_outcome sess ~group ?(engine = Plan) ?(counts = false) ?env
      ?index ?height q doc =
    sync sess;
    match sgroup sess group with
    | exception Not_found ->
      Error (Error.Unknown_group { group; known = sess.svc.Service.s_order })
    | sg -> (
      match
        if Trace.enabled () || Trace.audit_enabled () then
          answer_observed sess sg ~group ~engine ~want_stats:counts ?env
            ?index ?height q doc
        else
          let height = request_height sess sg ?height doc in
          let ce = translate_entry sess sg ~group ?height q in
          let used, stats, thunk =
            run_engine sess sg ~group ~engine ~want_stats:counts ?env ?index
              ce doc
          in
          (thunk (), ce, used, stats)
      with
      | results, ce, used, stats ->
        Ok
          {
            o_results = results;
            o_translated = ce.translated;
            o_engine = used;
            o_counts =
              (match stats with
              | Some s -> Splan.Exec.Stats.totals s
              | None -> []);
          }
      | exception Rewrite.Unsupported msg -> Error (Error.Unsupported msg)
      | exception Sxpath.Eval.Unbound_variable name ->
        Error (Error.Unbound_variable name))

  let answer sess ~group ?engine ?env ?index ?height q doc =
    Result.map
      (fun o -> o.o_results)
      (answer_outcome sess ~group ?engine ?env ?index ?height q doc)

  let answer_exn sess ~group ?engine ?env ?index ?height q doc =
    match answer sess ~group ?engine ?env ?index ?height q doc with
    | Ok results -> results
    | Error e -> raise (Error.E e)

  (* EXPLAIN: run the request once, preferring the plan engine with
     per-operator counters; report why when the interpreter had to
     answer instead.  Uses the same caches as [answer], so explaining
     a query warms it.  The audit hook does not fire — an explanation
     is operator introspection, not a data answer (results are
     counted, not returned). *)
  let explain sess ~group ?env ?index ?height q doc =
    sync sess;
    match sgroup sess group with
    | exception Not_found ->
      Error (Error.Unknown_group { group; known = sess.svc.Service.s_order })
    | sg -> (
      let admission = classify_sg sg q in
      let doc_version =
        Catalog.version (Catalog.intern sess.svc.Service.s_catalog doc)
      in
      let generation = Service.generation sess.svc in
      match
        let height = request_height sess sg ?height doc in
        let ce = translate_entry sess sg ~group ?height q in
        match exec_index sess ?index doc with
        | None ->
          let results = interp ?env ?index ce.translated doc in
          ( ce.translated, height, None,
            Some "context is not an indexed document root",
            List.length results )
        | Some idx -> (
          match plan_of sess sg ~group ce with
          | Error reason ->
            let results = interp ?env ~index:idx ce.translated doc in
            (ce.translated, height, None, Some reason, List.length results)
          | Ok compiled ->
            let stats = Splan.Exec.Stats.for_plan compiled in
            let results =
              Splan.Exec.run ~stats compiled ~index:idx ?env doc
            in
            ( ce.translated, height, Some (compiled, stats), None,
              List.length results ))
      with
      | translated, height, plan, fallback, results ->
        Ok
          {
            x_admission = admission;
            x_translated = translated;
            x_height = height;
            x_plan = plan;
            x_fallback = fallback;
            x_results = results;
            x_doc_version = doc_version;
            x_generation = generation;
          }
      | exception Rewrite.Unsupported msg -> Error (Error.Unsupported msg)
      | exception Sxpath.Eval.Unbound_variable name ->
        Error (Error.Unbound_variable name))

  let stats_of sess ~group =
    sync sess;
    read_counters (sgroup sess group).ctr

  let all_stats sess =
    sync sess;
    List.map
      (fun name -> (name, read_counters (sgroup sess name).ctr))
      sess.svc.Service.s_order

end

(* ---- deprecated single-handle facade --------------------------------- *)

(* One PR of compatibility: the old mutex-everywhere [Pipeline.t] is
   now a Session behind one lock.  Correct from any number of threads,
   but the whole request — evaluation included — serializes; new code
   should hold a [Service.t] and give each domain its own
   [Session.t]. *)
type t = {
  lk : Mutex.t;
  sess : Session.t;
}

type cache_stats = {
  hits : int;
  misses : int;
  plan_hits : int;
  plan_misses : int;
  plan_compiles : int;
  plan_fallbacks : int;
}

type admission_stats = {
  denied : int;
  trivial : int;
  eval : int;
}

let wrap svc = { lk = Mutex.create (); sess = Session.create svc }

let create ?strict ?catalog dtd ~groups =
  wrap (Service.create ?strict ?catalog dtd ~groups)

let create_with_views ?strict ?catalog dtd ~groups =
  wrap (Service.create_with_views ?strict ?catalog dtd ~groups)

let locked t f = Mutex.protect t.lk f
let service t = locked t (fun () -> Session.service t.sess)
let dtd t = Service.dtd (service t)
let catalog t = Service.catalog (service t)
let groups t = Service.groups (service t)
let view t ~group = Service.view (service t) ~group
let view_dtd t ~group = Service.view_dtd (service t) ~group
let spec t ~group = Service.spec (service t) ~group
let generation t = Service.generation (service t)

let translate t ~group ?height q =
  locked t (fun () -> Session.translate t.sess ~group ?height q)

let classify t ~group q = locked t (fun () -> Session.classify t.sess ~group q)

let answer t ~group ?engine ?env ?index ?height q doc =
  locked t (fun () ->
      Session.answer t.sess ~group ?engine ?env ?index ?height q doc)

let answer_exn t ~group ?engine ?env ?index ?height q doc =
  locked t (fun () ->
      Session.answer_exn t.sess ~group ?engine ?env ?index ?height q doc)

let answer_outcome t ~group ?engine ?counts ?env ?index ?height q doc =
  locked t (fun () ->
      Session.answer_outcome t.sess ~group ?engine ?counts ?env ?index
        ?height q doc)

let explain t ~group ?env ?index ?height q doc =
  locked t (fun () ->
      Session.explain t.sess ~group ?env ?index ?height q doc)

let session_stats t ~group =
  locked t (fun () -> Session.stats_of t.sess ~group)

let to_cache_stats (s : stats) : cache_stats =
  {
    hits = s.hits;
    misses = s.misses;
    plan_hits = s.plan_hits;
    plan_misses = s.plan_misses;
    plan_compiles = s.plan_compiles;
    plan_fallbacks = s.plan_fallbacks;
  }

let cache_stats t ~group = to_cache_stats (session_stats t ~group)

let admission_stats t ~group : admission_stats =
  let s = session_stats t ~group in
  { denied = s.denied; trivial = s.trivial; eval = s.eval }

let stats t =
  locked t (fun () ->
      List.map
        (fun (g, s) -> (g, to_cache_stats s))
        (Session.all_stats t.sess))

