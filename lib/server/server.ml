module J = Sobs.Json
module Pipeline = Secview.Pipeline
module Catalog = Secview.Catalog

type config = {
  domains : int;
  queue_capacity : int;
  deadline : float option;
  debug : bool;
  slow_ms : float option;
}

let default_config =
  {
    domains = Domain.recommended_domain_count ();
    queue_capacity = 64;
    deadline = None;
    debug = false;
    slow_ms = None;
  }

type listener =
  | Unix_socket of string
  | Tcp of string * int
  | Metrics_http of string * int

type session = {
  sid : int;
  mutable group : string option;
  mutable peer : string;
  mutable rseq : int;  (* connection-thread only: per-session rid counter *)
}

(* Server-generated request-correlation id: deterministic per session
   ([r<sid>-<n>]), so golden tests and log correlation are stable.  A
   client-supplied rid takes precedence and does not consume a number. *)
let next_rid sess =
  sess.rseq <- sess.rseq + 1;
  Printf.sprintf "r%d-%d" sess.sid sess.rseq

type work =
  | Answer of Protocol.query
  | Explain_query of Protocol.query
  | Do_update of Protocol.query  (** [text] is the update's syntax *)
  | Nap of float

let work_verb = function
  | Answer _ -> "query"
  | Explain_query _ -> "explain"
  | Do_update _ -> "update"
  | Nap _ -> "sleep"

(* How long a job waited between its submission and the consumer that
   popped it: one series per verb, constant names, never per group. *)
let queue_wait_series = function
  | Answer _ -> "server.queue_wait_ms.query"
  | Explain_query _ -> "server.queue_wait_ms.explain"
  | Do_update _ -> "server.queue_wait_ms.update"
  | Nap _ -> "server.queue_wait_ms.sleep"

(* A connection's write side, owned by its connection thread: the
   socket, and the buffer that thread builds its own replies in.  A
   worker's reply arrives finished, built in the worker's buffer. *)
type link = {
  fd : Unix.file_descr;
  out : Buffer.t;
}

type job = {
  jsession : session;
  jgroup : string;
  jrid : string;
  work : work;
  submitted : float;
  deadline_at : float option;
  cell : string Deadline.cell;  (* the reply line, newline included *)
}

type t = {
  config : config;
  service : Pipeline.Service.t;
  catalog : Catalog.t;
  queue : job Bqueue.t;  (* read path: popped by the worker domains *)
  uqueue : job Bqueue.t;  (* write path: popped by the one coordinator *)
  (* Workers, connection threads and the tracer all write this one
     registry (it takes its own lock); a scrape copies it. *)
  registry : Sobs.Metrics.t;
  audit : Sobs.Audit_log.t option;
  tracer : Sobs.Tracer.t option;
  recorder : Sobs.Recorder.t option;
  runtime : Sobs.Runtime.t option;
  flight_snapshot : string option;
  capture : Sobs.Capture.t option;
  stopping : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  started : float;
  next_sid : int Atomic.t;
  (* connection threads created and not yet finished: the acceptor
     counts a connection before its thread starts, so [serve]'s drain
     can wait for the count to reach 0 without keeping the threads *)
  live_conns : int Atomic.t;
  busy_workers : int Atomic.t;
  (* The connection threads' session (admission fast path and the
     [analyze] verb run on them, concurrently): a Session is
     single-owner, so they share this one under its lock. *)
  adm : Pipeline.Session.t;
  adm_lock : Mutex.t;
  (* Every session answering for this server (the adm session plus
     one per worker/coordinator domain, registered at spawn): the
     [stats] verb merges their counters — atomics, safe to read while
     the owners work. *)
  mutable sessions : Pipeline.Session.t list;
  sess_lock : Mutex.t;
}

let create ?(config = default_config) ?audit ?metrics ?tracer ?recorder
    ?runtime ?flight_snapshot ?capture service =
  let wake_r, wake_w = Unix.pipe () in
  let adm = Pipeline.Session.create service in
  {
    config = { config with domains = max 1 config.domains };
    service;
    catalog = Pipeline.Service.catalog service;
    queue = Bqueue.create ~capacity:config.queue_capacity;
    uqueue = Bqueue.create ~capacity:config.queue_capacity;
    registry =
      (match metrics with Some m -> m | None -> Sobs.Metrics.create ());
    audit;
    tracer;
    recorder;
    runtime;
    flight_snapshot;
    capture;
    stopping = Atomic.make false;
    wake_r;
    wake_w;
    started = Deadline.now ();
    next_sid = Atomic.make 1;
    live_conns = Atomic.make 0;
    busy_workers = Atomic.make 0;
    adm;
    adm_lock = Mutex.create ();
    sessions = [ adm ];
    sess_lock = Mutex.create ();
  }

let register_session t psess =
  Mutex.protect t.sess_lock (fun () -> t.sessions <- psess :: t.sessions)

let count t name = Sobs.Metrics.incr t.registry name
let observe t name v = Sobs.Metrics.observe t.registry name v

(* The merged per-group pipeline counters: every registered session's
   record summed with [Pipeline.stats_merge] — the one merge path
   behind the [stats] verb and the [/metrics] exposition alike. *)
let merged_stats t =
  let sessions = Mutex.protect t.sess_lock (fun () -> t.sessions) in
  List.map
    (fun gname ->
      let s =
        List.fold_left
          (fun acc psess ->
            match Pipeline.Session.stats_of psess ~group:gname with
            | s -> Pipeline.stats_merge acc s
            | exception Not_found -> acc)
          Pipeline.stats_zero sessions
      in
      (gname, s))
    (Pipeline.Service.order t.service)

(* Runtime gauges, sampled on every scrape/metrics verb rather than on
   a timer: the values are cheap to read and a scraper only cares
   about the instant it asked.  They are written into the scrape's own
   snapshot, never the live registry — no staleness to merge. *)
let sample_gauges t reg =
  let g = Gc.quick_stat () in
  let set = Sobs.Metrics.set_gauge reg in
  set "server.queue.depth" (float_of_int (Bqueue.length t.queue));
  set "server.queue.capacity" (float_of_int t.config.queue_capacity);
  set "server.update_queue.depth" (float_of_int (Bqueue.length t.uqueue));
  set "server.connections.live" (float_of_int (Atomic.get t.live_conns));
  set "server.workers.busy" (float_of_int (Atomic.get t.busy_workers));
  set "server.workers.total" (float_of_int t.config.domains);
  set "server.uptime_s" (Deadline.now () -. t.started);
  (* [Gc.quick_stat] sees only the calling domain's counters: under
     [--domains N] these are the scraping acceptor thread's numbers,
     not the workers' — label them honestly.  The per-domain truth
     ([gc.heap_words.d<i>], pause histograms, allocation counters)
     comes from the [Sobs.Runtime] consumer, absorbed below when the
     server runs with [--runtime-events]. *)
  set "gc.heap_words.acceptor" (float_of_int g.Gc.heap_words);
  set "gc.minor_words.acceptor" g.Gc.minor_words;
  set "gc.major_collections.acceptor" (float_of_int g.Gc.major_collections)

(* One consistent view of everything: a copy of the registry, the
   sessions' merged counters, and gauges sampled now. *)
let metrics t =
  let snap = Sobs.Metrics.snapshot t.registry in
  Record.count_stats snap (merged_stats t);
  sample_gauges t snap;
  (* per-domain runtime telemetry last: absorbed under the consumer's
     own lock, so pause histograms merge torn-free like the registry *)
  (match t.runtime with
  | Some rt -> Sobs.Runtime.absorb_into ~into:snap rt
  | None -> ());
  snap

let openmetrics t = Sobs.Export.openmetrics (metrics t)

let metrics_reply t ~rid =
  let snap = metrics t in
  Protocol.ok ~rid
    [
      ("openmetrics", J.String (Sobs.Export.openmetrics snap));
      ("text", J.String (Format.asprintf "%a" Sobs.Metrics.pp snap));
    ]

let flight_reply t ~rid =
  match t.recorder with
  | None ->
    Protocol.error_of ~rid
      (Secview.Error.Bad_request
         "flight recorder is not enabled (start the server with --flight N)")
  | Some r -> (
    (* splice the recorder dump's fields into the reply envelope *)
    match Sobs.Recorder.to_json r with
    | J.Obj fields -> Protocol.ok ~rid fields
    | _ -> assert false)

let draining t = Atomic.get t.stopping

let wake t = ignore (try Unix.write t.wake_w (Bytes.of_string "!") 0 1 with _ -> 0)

(* Safe from a signal handler: one atomic store and one pipe write. *)
let request_drain t =
  Atomic.set t.stopping true;
  wake t

let install_sigint t =
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> request_drain t))

(* ---- request execution (worker side) ------------------------------- *)

let group_names t = Pipeline.Service.order t.service

let resolve_document t = function
  | Some name -> (
    match Catalog.find t.catalog name with
    | Some entry -> Ok entry
    | None ->
      Error
        (Secview.Error.Unknown_doc
           { doc = Some name; known = Catalog.names t.catalog }))
  | None -> (
    match Catalog.names t.catalog with
    | [ only ] -> Ok (Option.get (Catalog.find t.catalog only))
    | known -> Error (Secview.Error.Unknown_doc { doc = None; known }))

(* Failures come back as [Secview.Error.t]: the reply code and message
   are [Protocol.error_of]'s one mapping instead of per-site strings.
   [parsed_request] shares document resolution and query parsing
   between answer and explain. *)
let parsed_request t (q : Protocol.query) k =
  match resolve_document t q.doc with
  | Error _ as e -> e
  | Ok entry -> (
    match Secview.Error.parse_query q.text with
    | Error e -> Error e
    | Ok path -> (
      match k entry path with
      | (Ok _ | Error _) as r -> r
      | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
        Error (Secview.Error.Internal msg)
      | exception exn ->
        (* anything else the evaluator can raise: the request failed,
           the worker must survive *)
        Error (Secview.Error.Internal (Printexc.to_string exn))))

(* Ok: (the pipeline's outcome, pinned document version).  Counts are
   only collected when the slow-query log or the flight recorder could
   use them. *)
let answer_query t psess ~group (q : Protocol.query) =
  parsed_request t q (fun entry path ->
      let env name = List.assoc_opt name q.bind in
      (* Pin once: document, height and index all come from this
         snapshot.  Reading them through the entry as separate
         dereferences could straddle a concurrent update's swap, and
         the new snapshot's index ids (fresh dense preorder) name
         different nodes in the old tree — a torn read. *)
      let snap = Catalog.pin entry in
      match
        Pipeline.Session.answer_pinned psess ~group
          ~counts:(t.config.slow_ms <> None || Option.is_some t.recorder)
          ~env path snap
      with
      | Ok o -> Ok (o, Catalog.snapshot_version snap)
      | Error _ as e -> e)

let explain_query t psess ~rid ~group (q : Protocol.query) =
  parsed_request t q (fun entry path ->
      let env name = List.assoc_opt name q.bind in
      Result.map
        (fun x -> Protocol.ok ~rid (Protocol.explain_fields q.text x))
        (Pipeline.Session.explain psess ~group ~env path (Catalog.pin entry)))

(* The write path: resolve the document, then run check+swap.  Every
   update in the process goes through the single coordinator domain
   (the only consumer of [uqueue]), so writers are already serialized
   — the per-document lock table the threaded server kept is gone.
   The check pins a snapshot and the swap publishes a new one, so
   concurrent readers are never torn.  Returns the outcome plus the
   admission check's id-bearing denial detail, which goes to the
   audit log only — the client reply carries the sanitized message. *)
let run_update t ~group (q : Protocol.query) =
  match resolve_document t q.doc with
  | Error _ as e -> (e, None)
  | Ok entry ->
    Record.apply_update t.service ~group
      ~env:(fun name -> List.assoc_opt name q.bind)
      ~entry q.text

let doc_label t (q : Protocol.query) =
  match q.doc with
  | Some d -> d
  | None -> (
    (* the single-document default: audit the name it resolved to *)
    match Catalog.names t.catalog with [ n ] -> n | _ -> "-")

let doc_version t (q : Protocol.query) =
  match resolve_document t q.doc with
  | Ok entry -> Some (Catalog.version entry)
  | Error _ -> None

(* The record every exit path starts from — who asked what about which
   document — stamped now; each path fills in its outcome. *)
let request t sess ~rid ~group work : Sobs.Request.t =
  let r =
    {
      (Sobs.Request.make ~verb:(work_verb work) ~group "") with
      rid = Some rid;
      session = Some sess.sid;
      peer = Some sess.peer;
    }
  in
  match work with
  | Nap _ -> r
  | Answer q | Explain_query q | Do_update q ->
    {
      r with
      doc = q.doc;
      doc_label = Some (doc_label t q);
      doc_version = doc_version t q;
      query = q.text;
      bind = q.bind;
    }

(* The one fan-out: every sink is a projection of the request record.
   [mk] builds it only when some sink is on.  The debug [sleep] reaches
   no sink but the snapshot.  [slow] marks a worker-path query over the
   slow-query threshold; [queued] marks the paths a request takes after
   admission to the queue (worker, expired): only their bad or slow
   outcomes dump the flight ring — never a fast-path denial or an
   overload refusal.  Each sink serializes its own writes. *)
let publish t ?(slow = false) ?(queued = false) mk =
  if Option.is_some t.audit || Option.is_some t.recorder
     || Option.is_some t.capture
  then begin
    let r : Sobs.Request.t = mk () in
    if r.verb <> "sleep" then begin
      (match t.audit with
      | Some log ->
        (match t.config.slow_ms with
        | Some threshold_ms when slow ->
          Sobs.Audit_log.log_slow_query log ~threshold_ms r
        | _ -> ());
        Sobs.Audit_log.log log r
      | None -> ());
      Option.iter (fun rc -> Sobs.Recorder.record rc r) t.recorder;
      match t.capture with
      | Some cap ->
        Option.iter (Sobs.Capture.write cap) (Sobs.Capture.of_request r)
      | None -> ()
    end;
    match (t.flight_snapshot, t.recorder) with
    | Some path, Some rc when queued && (r.status <> "ok" || slow) -> (
      try Sobs.Recorder.dump_file rc path
      with Sys_error _ -> count t "server.flight.snapshot_failed")
    | _ -> ()
  end

(* [out] is the consuming loop's buffer: the reply line is built in
   it, an answer's nodes written straight into the line. *)
let run_job t psess ~out job =
  let latency () = 1000. *. (Deadline.now () -. job.submitted) in
  observe t (queue_wait_series job.work) (latency ());
  let base () =
    request t job.jsession ~rid:job.jrid ~group:job.jgroup job.work
  in
  let expired =
    match job.deadline_at with
    | Some d -> Deadline.now () > d
    | None -> false
  in
  if expired || Deadline.peek job.cell <> None then begin
    (* the connection thread answered [timeout] (or will, immediately):
       don't burn a worker on a reply nobody is waiting for.  As in
       the executed path below, observability precedes the fill. *)
    count t "server.expired_in_queue";
    let latency_ms = latency () in
    publish t ~queued:true (fun () ->
        {
          (base ()) with
          status = "timeout";
          error = Some "deadline exceeded in queue";
          latency_ms;
        });
    ignore
      (Deadline.fill job.cell
         (Protocol.line out
            (Protocol.error_of ~rid:job.jrid
               (Secview.Error.Timeout "deadline exceeded in queue"))))
  end
  else begin
    let rid = job.jrid in
    let line = Protocol.line out in
    (* each job yields its reply line, its status, and how its outcome
       fills the request record (applied only when a sink is on) *)
    let run_work () =
      match job.work with
      | Nap s ->
        Thread.delay s;
        ( line (Protocol.ok ~rid [ ("slept_ms", J.Float (1000. *. s)) ]),
          "ok",
          Fun.id )
      | Explain_query q -> (
        match explain_query t psess ~rid ~group:job.jgroup q with
        | Ok reply -> (line reply, "ok", Fun.id)
        | Error e as res ->
          (line (Protocol.error_of ~rid e), Record.status ~write:false res,
           Record.query res))
      | Do_update q ->
        (* the client-visible digest is of the group's view of the new
           document (Engine computed it) — the raw document's digest
           would be an equality oracle on hidden regions.  The record
           keeps the admission check's id-bearing detail; the reply
           goes out sanitized. *)
        let res, detail = run_update t ~group:job.jgroup q in
        ( line
            (match res with
            | Ok w -> Protocol.ok ~rid (Protocol.receipt_fields w)
            | Error e -> Protocol.error_of ~rid e),
          Record.status ~write:true res,
          Record.update ?detail res )
      | Answer q -> (
        match answer_query t psess ~group:job.jgroup q with
        | Ok (o, version) ->
          ( Protocol.answer_line out ~rid o.Pipeline.o_results,
            "ok",
            Record.query ~version (Ok o) )
        | Error e as res ->
          (line (Protocol.error_of ~rid e), Record.status ~write:false res,
           Record.query res))
    in
    (* the whole request runs inside a synthetic "request" root span:
       its children (per-thread) are exactly this request's stages,
       linked by [parent] — hierarchical attribution instead of the
       old watermark arithmetic *)
    let is_query = match job.work with Answer _ -> true | _ -> false in
    let want_spans =
      (t.config.slow_ms <> None || Option.is_some t.recorder) && is_query
    in
    let (reply_line, status, fill), spans =
      match t.tracer with
      | Some tr when want_spans -> Sobs.Tracer.with_request tr run_work
      | _ -> (run_work (), [])
    in
    (* Observability lands BEFORE the reply cell is filled: the
       moment a client sees its answer, the request must already be
       in the flight ring, the capture stream and the counters — a
       domain-parallel worker otherwise races clients that scrape or
       dump flight right after a reply.  Lateness therefore can't
       come from the fill outcome; the cell's own deadline decides it
       (if it has passed, the connection thread has answered
       [timeout] — or is about to, which loses the same way). *)
    let latency_ms = latency () in
    let status =
      match job.deadline_at with
      | Some d when Deadline.now () > d -> "late"
      | _ -> status
    in
    count t ("server.done." ^ status);
    observe t ("server.latency_ms." ^ job.jgroup) latency_ms;
    let slow =
      match t.config.slow_ms with
      | Some thr -> is_query && latency_ms > thr
      | None -> false
    in
    if slow then count t "server.slow_query";
    publish t ~slow ~queued:true (fun () ->
        {
          (fill
             {
               (base ()) with
               latency_ms;
               spans;
               gc = Sobs.Request.gc_overlap t.runtime spans;
             })
          with
          status;
        });
    ignore (Deadline.fill job.cell reply_line : bool)
  end

(* A reply buffer that grew past this is dropped after the reply, so
   one huge answer does not pin its size for the server's lifetime. *)
let out_keep = 1 lsl 16

(* One loop per consumer.  Read workers pop [t.queue]; the update
   coordinator pops [t.uqueue].  Each owns its [psess] — the whole
   point of the Session split: the hot path probes caches no other
   domain can touch — and its [out] buffer, which every answer it
   renders and every reply line it builds reuses.  The buffer belongs
   to the loop, not to a domain: on a one-domain server the read
   worker, the coordinator and every connection thread are threads of
   one domain, and a domain-local buffer would be shared among them. *)
let rec consumer_loop t psess ~out queue ~track_busy =
  match Bqueue.pop queue with
  | None -> ()
  | Some job ->
    if track_busy then Atomic.incr t.busy_workers;
    (try
       Fun.protect
         ~finally:(fun () ->
           if track_busy then Atomic.decr t.busy_workers)
         (fun () -> run_job t psess ~out job)
     with exn ->
       (* last line of defense: a worker that dies strands every
          queued request, so fill the cell and keep looping *)
       ignore
         (Deadline.fill job.cell
            (Protocol.line out
               (Protocol.error_of ~rid:job.jrid
                  (Secview.Error.Internal
                     ("internal error: " ^ Printexc.to_string exn)))));
       count t "server.done.internal_error");
    if Buffer.length out > out_keep then Buffer.reset out;
    consumer_loop t psess ~out queue ~track_busy

(* ---- connection handling ------------------------------------------- *)

(* Every reply the connection thread builds itself goes out through
   [Protocol.line], in the connection's own buffer. *)
let send link json = Conn.write_all link.fd (Protocol.line link.out json)

(* [stats_fields] is the single authority on spelling and order; the
   wire keeps the historical two-object shape ("cache" with the cache
   traffic, "admission" with the verdict counts) by partitioning the
   one merged record. *)
let admission_field = function
  | "denied" | "trivial" | "eval" -> true
  | _ -> false

let stats_json t ~rid =
  let snap = metrics t in
  let prefix = "server.latency_ms." in
  let latencies =
    List.filter_map
      (fun (name, s) ->
        if String.starts_with ~prefix name then
          Some
            ( String.sub name (String.length prefix)
                (String.length name - String.length prefix),
              s )
        else None)
      (Sobs.Metrics.summaries snap)
  in
  let stats = merged_stats t in
  let render keep =
    J.Obj
      (List.map
         (fun (group, s) ->
           ( group,
             J.Obj
               (List.filter_map
                  (fun (f, v) ->
                    if keep f then Some (f, J.Int v) else None)
                  (Pipeline.stats_fields s)) ))
         stats)
  in
  Protocol.ok ~rid
    [
      ("uptime_s", J.Float (Deadline.now () -. t.started));
      ("workers", J.Int t.config.domains);
      ("workers_busy", J.Int (Atomic.get t.busy_workers));
      ( "queue",
        J.Obj
          [
            ("length", J.Int (Bqueue.length t.queue));
            ("capacity", J.Int t.config.queue_capacity);
          ] );
      ( "runtime",
        match t.runtime with
        | Some rt -> Sobs.Runtime.to_json rt
        | None -> J.Obj [ ("enabled", J.Bool false) ] );
      ( "counters",
        J.Obj
          (List.map (fun (k, v) -> (k, J.Int v)) (Sobs.Metrics.counters snap))
      );
      ( "latency_ms",
        J.Obj
          (List.map
             (fun (group, (s : Sobs.Metrics.summary)) ->
               ( group,
                 J.Obj
                   [
                     ("count", J.Int s.count);
                     ("p50", J.Float s.p50);
                     ("p95", J.Float s.p95);
                     ("p99", J.Float s.p99);
                   ] ))
             latencies) );
      ("cache", render (fun f -> not (admission_field f)));
      ("admission", render admission_field);
      ( "documents",
        J.List (List.map (fun n -> J.String n) (Catalog.names t.catalog)) );
    ]

(* Classify on the connection thread: the shared [adm] session under
   its lock — classification is schema-level and cached, so the
   critical section is a hash probe on the warm path. *)
let classify_conn t ~group path =
  Mutex.protect t.adm_lock (fun () ->
      Pipeline.Session.classify t.adm ~group path)

(* The admission fast path: answer a provably-empty query on the
   connection thread — no queue slot, no plan, no document touched.
   The reply is byte-identical to what a worker would send for an
   empty result set.  Only fires when the request would otherwise
   succeed (document resolves, query parses): errors must keep coming
   from the one [Protocol.error_of] mapping in the worker path.
   Returns [true] when the request was answered here. *)
let admission_fast_path t sess link ~rid group (q : Protocol.query) =
  match resolve_document t q.doc with
  | Error _ -> false
  | Ok _ -> (
    match Secview.Error.parse_query q.text with
    | Error _ -> false
    | Ok path -> (
      let started = Deadline.now () in
      match classify_conn t ~group path with
      | Ok (Pipeline.Denied_empty witness) ->
        count t "server.admission.denied";
        let latency_ms = 1000. *. (Deadline.now () -. started) in
        publish t (fun () ->
            {
              (request t sess ~rid ~group (Answer q)) with
              admission = Some "denied";
              status = "denied_empty";
              error = Some witness;
              (* a denied query replays to the same empty answer, so
                 it belongs in the workload: capture it as such *)
              digest = Some (Sobs.Capture.digest []);
              latency_ms;
            });
        send link
          (Protocol.ok ~rid [ ("results", J.List []); ("count", J.Int 0) ]);
        true
      | Ok (Pipeline.Trivial | Pipeline.Needs_eval) | Error _ -> false
      | exception _ -> false))

let submit t sess link ~rid work =
  if draining t then
    send link (Protocol.error_of ~rid Secview.Error.Draining)
  else begin
    let submitted = Deadline.now () in
    let job =
      {
        jsession = sess;
        jgroup = (match sess.group with Some g -> g | None -> "-");
        jrid = rid;
        work;
        submitted;
        deadline_at = Option.map (fun s -> submitted +. s) t.config.deadline;
        cell = Deadline.cell ();
      }
    in
    (* writes go to the coordinator's queue; everything else to the
       read pool *)
    let queue =
      match work with Do_update _ -> t.uqueue | _ -> t.queue
    in
    match Bqueue.try_push queue job with
    | `Full ->
      count t "server.rejected.overloaded";
      let msg =
        Printf.sprintf "request queue is full (%d deep)"
          t.config.queue_capacity
      in
      (* overload rejections are published too: a shed request must
         stay correlatable by rid, not vanish into a counter — and, as
         on every path, recorded before the client can see the reply *)
      let latency_ms = 1000. *. (Deadline.now () -. submitted) in
      publish t (fun () ->
          {
            (request t sess ~rid ~group:job.jgroup work) with
            status = "overloaded";
            error = Some msg;
            latency_ms;
          });
      send link (Protocol.error_of ~rid (Secview.Error.Overloaded msg))
    | `Closed ->
      count t "server.rejected.draining";
      send link (Protocol.error_of ~rid Secview.Error.Draining)
    | `Ok -> (
      count t "server.accepted";
      match Deadline.await ?deadline_at:job.deadline_at job.cell with
      | Some line -> Conn.write_all link.fd line
      | None ->
        (* the timeout reply claims the cell, so the worker sees the
           request answered *)
        let line =
          Protocol.line link.out
            (Protocol.error_of ~rid
               (Secview.Error.Timeout
                  (Printf.sprintf "deadline of %gs exceeded"
                     (Option.value t.config.deadline ~default:0.))))
        in
        if Deadline.fill job.cell line then count t "server.timeout";
        Conn.write_all link.fd line)
  end

let handle_line t sess link line =
  match Protocol.request_of_line line with
  | Error (msg, crid) ->
    (* even a request that failed to parse gets a correlatable reply:
       the client's rid when recoverable, a server-generated one
       otherwise *)
    let rid = match crid with Some r -> r | None -> next_rid sess in
    count t "server.rejected.bad_request";
    send link (Protocol.error_of ~rid (Secview.Error.Bad_request msg))
  | Ok (req, crid) -> (
    let rid = match crid with Some r -> r | None -> next_rid sess in
    match req with
    | Protocol.Hello { group; peer } ->
      if List.mem group (group_names t) then begin
        sess.group <- Some group;
        (match peer with Some p -> sess.peer <- p | None -> ());
        count t "server.sessions";
        send link
          (Protocol.ok ~rid
             [ ("session", J.Int sess.sid); ("group", J.String group) ])
      end
      else begin
        count t "server.rejected.unknown_group";
        send link
          (Protocol.error_of ~rid
             (Secview.Error.Unknown_group { group; known = group_names t }))
      end
    | Protocol.Ping -> send link (Protocol.ok ~rid [ ("pong", J.Bool true) ])
    | Protocol.Stats -> send link (stats_json t ~rid)
    | Protocol.Metrics -> send link (metrics_reply t ~rid)
    | Protocol.Flight -> send link (flight_reply t ~rid)
    | Protocol.Shutdown ->
      send link (Protocol.ok ~rid [ ("draining", J.Bool true) ]);
      request_drain t
    | Protocol.Sleep _ when not t.config.debug ->
      send link
        (Protocol.error_of ~rid
           (Secview.Error.Bad_request
              "sleep is only available on --debug servers"))
    | Protocol.Sleep s -> submit t sess link ~rid (Nap s)
    | Protocol.Query q -> (
      match sess.group with
      | None ->
        count t "server.rejected.no_session";
        send link (Protocol.error_of ~rid Secview.Error.No_session)
      | Some group ->
        if not (admission_fast_path t sess link ~rid group q) then
          submit t sess link ~rid (Answer q))
    | Protocol.Analyze q -> (
      match sess.group with
      | None ->
        count t "server.rejected.no_session";
        send link (Protocol.error_of ~rid Secview.Error.No_session)
      | Some group -> (
        (* classification is schema-level and cached: answer on the
           connection thread, like [stats] *)
        match Secview.Error.parse_query q.text with
        | Error e -> send link (Protocol.error_of ~rid e)
        | Ok path -> (
          match classify_conn t ~group path with
          | Error e -> send link (Protocol.error_of ~rid e)
          | Ok verdict ->
            count t "server.admission.analyze";
            send link
              (Protocol.ok ~rid
                 [
                   ("query", J.String q.text);
                   ( "admission",
                     J.String (Pipeline.admission_label verdict) );
                   ( "witness",
                     match verdict with
                     | Pipeline.Denied_empty w -> J.String w
                     | Pipeline.Trivial | Pipeline.Needs_eval -> J.Null );
                 ]))))
    | Protocol.Explain q -> (
      match sess.group with
      | None ->
        count t "server.rejected.no_session";
        send link (Protocol.error_of ~rid Secview.Error.No_session)
      | Some _ -> submit t sess link ~rid (Explain_query q))
    | Protocol.Update q -> (
      match sess.group with
      | None ->
        count t "server.rejected.no_session";
        send link (Protocol.error_of ~rid Secview.Error.No_session)
      | Some _ -> submit t sess link ~rid (Do_update q)))

(* The longest request line a connection may send.  A pending line
   past it is answered once with a typed [bad_request] and the
   connection is closed: a client cannot make the server buffer without
   bound. *)
let max_line = 1 lsl 20

(* A connection waits for input on a receive timeout rather than
   [select], which cannot watch a descriptor at or past [FD_SETSIZE]:
   every [poll] seconds a read gives up with EAGAIN so the loop can
   look at the drain flag. *)
let poll = 0.2

let conn_loop t fd peer =
  let sess =
    { sid = Atomic.fetch_and_add t.next_sid 1; group = None; peer; rseq = 0 }
  in
  let link = { fd; out = Buffer.create 256 } in
  let pending = Buffer.create 512 in  (* the current, unfinished line *)
  let chunk = Bytes.create 4096 in
  let alive = ref true and oversized = ref false in
  (try
     Unix.setsockopt_float fd SO_RCVTIMEO poll;
     while !alive && not (draining t) do
       match Unix.read fd chunk 0 (Bytes.length chunk) with
       | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
       | n ->
         if n = 0 then alive := false
         else begin
           (* only the [n] new bytes are scanned for line ends, so a
              long line costs time linear in its length *)
           let rec line_end i =
             if i >= n then None
             else if Bytes.get chunk i = '\n' then Some i
             else line_end (i + 1)
           in
           let rec lines start =
             match line_end start with
             | Some nl ->
               Buffer.add_subbytes pending chunk start (nl - start);
               let line = Buffer.contents pending in
               Buffer.clear pending;
               let line =
                 (* tolerate CRLF clients (telnet, socat -t) *)
                 if String.length line > 0 && line.[String.length line - 1] = '\r'
                 then String.sub line 0 (String.length line - 1)
                 else line
               in
               if String.length line > max_line then oversized := true
               else begin
                 if String.trim line <> "" then handle_line t sess link line;
                 lines (nl + 1)
               end
             | None ->
               Buffer.add_subbytes pending chunk start (n - start);
               if Buffer.length pending > max_line then oversized := true
           in
           lines 0;
           if !oversized then begin
             count t "server.rejected.oversized";
             send link
               (Protocol.error_of ~rid:(next_rid sess)
                  (Secview.Error.Bad_request
                     (Printf.sprintf "request line longer than %d bytes"
                        max_line)));
             alive := false
           end
         end
     done
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- the /metrics HTTP responder ----------------------------------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* A deliberately tiny HTTP/1.0 server: read the request head (bounded
   in size and time), answer [GET /metrics] with the OpenMetrics
   exposition, everything else with 404, close.  One short-lived
   thread per scrape — the same model as the line-protocol
   connections, with none of their session state. *)
let http_conn t fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 1024 in
  let give_up = Deadline.now () +. 5. in
  let rec read_head () =
    let s = Buffer.contents buf in
    if contains s "\r\n\r\n" || contains s "\n\n" then Some s
    else if Buffer.length buf > 8192 || Deadline.now () > give_up then None
    else
      match Unix.read fd chunk 0 (Bytes.length chunk) with
      | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
        read_head ()
      | 0 -> if contains s "\n" then Some s else None
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        read_head ()
  in
  (try
     (* a receive timeout, not [select]: see [conn_loop] *)
     Unix.setsockopt_float fd SO_RCVTIMEO 1.0;
     match read_head () with
     | None -> ()
     | Some head ->
       let line =
         match String.index_opt head '\n' with
         | Some i -> String.sub head 0 i
         | None -> head
       in
       let line = String.trim line in
       let respond ~status ~ctype body =
         Conn.write_all fd
           (Printf.sprintf
              "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
               Connection: close\r\n\r\n%s"
              status ctype (String.length body) body)
       in
       (match String.split_on_char ' ' line with
       | [ "GET"; target; _ ] | [ "GET"; target ] ->
         let path =
           match String.index_opt target '?' with
           | Some i -> String.sub target 0 i
           | None -> target
         in
         if path = "/metrics" then begin
           count t "server.http.scrapes";
           respond ~status:"200 OK"
             ~ctype:
               "application/openmetrics-text; version=1.0.0; charset=utf-8"
             (openmetrics t)
         end
         else begin
           count t "server.http.not_found";
           respond ~status:"404 Not Found" ~ctype:"text/plain" "not found\n"
         end
       | _ ->
         respond ~status:"400 Bad Request" ~ctype:"text/plain" "bad request\n")
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* ---- listeners and lifecycle --------------------------------------- *)

let sockaddr_label = function
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

let open_listener = function
  | Unix_socket path ->
    if Sys.file_exists path then Sys.remove path;
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    Unix.bind fd (ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | Tcp (host, port) | Metrics_http (host, port) ->
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt fd SO_REUSEADDR true;
    Unix.bind fd (ADDR_INET (Conn.inet_addr host, port));
    Unix.listen fd 64;
    fd

let listener_kind = function
  | Unix_socket _ | Tcp _ -> `Lines
  | Metrics_http _ -> `Http

let acceptor_loop t kind lfd =
  while not (draining t) do
    match Unix.select [ lfd; t.wake_r ] [] [] 1.0 with
    | rs, _, _ ->
      if List.mem lfd rs && not (draining t) then begin
        match Unix.accept lfd with
        | cfd, addr ->
          count t "server.connections";
          let handle () =
            Fun.protect
              ~finally:(fun () -> Atomic.decr t.live_conns)
              (fun () ->
                match kind with
                | `Lines -> conn_loop t cfd (sockaddr_label addr)
                | `Http -> http_conn t cfd)
          in
          Atomic.incr t.live_conns;
          (match Thread.create handle () with
          | (_ : Thread.t) -> ()
          | exception e ->
            Atomic.decr t.live_conns;
            (try Unix.close cfd with Unix.Unix_error _ -> ());
            raise e)
        | exception Unix.Unix_error _ -> ()
      end
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done

(* The major heap's headroom, as OCaml's [space_overhead] percentage
   (the runtime's default is 120).  At 200 the heap may grow to about
   three times what is live instead of 2.2 times.  It was raised when
   every admitted write promoted a whole new document version (about
   80 k words on the [mixed] workload), so that at 120 a major cycle,
   whose phases stop every domain, started about every other write.
   A write now shares structure with the version it edits and, with
   the index it derives, promotes about 5.5 k words (0.11 major cycles
   in process); whether 200 still pays for its memory is for a
   measurement to decide before the value changes. *)
let space_overhead = 200

let serve t listeners =
  if listeners = [] then invalid_arg "Server.serve: no listeners";
  (* a client that hangs up before its reply is written must cost only
     its own connection: the write fails with EPIPE (handled where
     replies are sent) instead of SIGPIPE killing the process *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* an embedder that asked for more headroom keeps it *)
  (let gc = Gc.get () in
   if gc.space_overhead < space_overhead then
     Gc.set { gc with space_overhead });
  let lfds = List.map open_listener listeners in
  let acceptors =
    List.map2
      (fun l lfd -> Thread.create (acceptor_loop t (listener_kind l)) lfd)
      listeners lfds
  in
  (* One domain per read worker plus one update coordinator, each
     creating its Session inside the domain it lives on (so Image's
     domain-local memos are warmed where they are used).  A
     single-domain server instead keeps both on the runtime's own
     domain as plain threads — the pre-domain execution model — so
     [domains = 1] pays no cross-domain hand-off per request. *)
  let run_consumer queue ~track_busy () =
    let psess = Pipeline.Session.create t.service in
    register_session t psess;
    (* With the runtime consumer on, force one minor collection on
       this domain's own ring before serving: every worker domain then
       has a [gc.pause_seconds.d<i>] series from the first scrape —
       the CI smoke's "per-domain series exist" assertion never races
       organic allocation pressure. *)
    if Option.is_some t.runtime then Gc.minor ();
    consumer_loop t psess ~out:(Buffer.create 1024) queue ~track_busy
  in
  let join_consumers =
    if t.config.domains <= 1 then begin
      let w = Thread.create (run_consumer t.queue ~track_busy:true) () in
      let c = Thread.create (run_consumer t.uqueue ~track_busy:false) () in
      fun () ->
        Thread.join w;
        Thread.join c
    end
    else begin
      let workers =
        List.init t.config.domains (fun _ ->
            Domain.spawn (run_consumer t.queue ~track_busy:true))
      in
      let coordinator =
        Domain.spawn (run_consumer t.uqueue ~track_busy:false)
      in
      fun () ->
        List.iter Domain.join workers;
        Domain.join coordinator
    end
  in
  (* drain sequence: acceptors exit on the stop flag (stop accepting),
     the queues close (finish what is admitted, reject the rest),
     worker domains drain them and exit, connection threads notice the
     flag and hang up, and finally the audit log is flushed. *)
  List.iter Thread.join acceptors;
  List.iter
    (fun (lfd, l) ->
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      match l with
      | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
      | Tcp _ | Metrics_http _ -> ())
    (List.combine lfds listeners);
  Bqueue.close t.queue;
  Bqueue.close t.uqueue;
  join_consumers ();
  while Atomic.get t.live_conns > 0 do
    Thread.delay 0.01
  done;
  (match t.audit with Some log -> Sobs.Audit_log.close log | None -> ());
  (match t.capture with Some cap -> Sobs.Capture.close cap | None -> ());
  (match t.runtime with Some rt -> Sobs.Runtime.stop rt | None -> ());
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()
