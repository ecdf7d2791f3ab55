(* secview — command-line front end for the security-view pipeline.

   Specifications are given in a small sidecar syntax, one annotation
   per line:

     parent child  Y
     parent child  N
     parent child  [qualifier]
     parent #PCDATA N

   '#' starts a comment.  Variables ($name) in qualifiers are bound
   with repeated --bind NAME=VALUE options. *)

open Cmdliner
module J = Sobs.Json
module Conn = Sserver.Conn
module Protocol = Sserver.Protocol

let env_of_bindings bindings name =
  List.assoc_opt name bindings

(* A malformed query is a typed failure, reported as the server reports
   it: "parse error at N: …", exit 2. *)
let parse_query text =
  match Secview.Error.parse_query text with
  | Ok q -> q
  | Error e -> raise (Secview.Error.E e)

(* Total probes for rendering a server's reply: a missing field reads
   as zero, so a dashboard never tears down mid-refresh. *)
let jint j name =
  Option.value ~default:0 (Option.bind (J.member name j) J.to_int_opt)

let jfloat j name =
  Option.value ~default:0. (Option.bind (J.member name j) J.to_float_opt)

let jstring j name = Option.bind (J.member name j) J.to_string_opt

(* ---- flags --------------------------------------------------------- *)

(* Every flag meaning is declared once here; each verb's term picks the
   flags, and the flag groups below, that it takes. *)

let pair_conv ~what =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> Error (`Msg ("expected " ^ what))
  in
  let print ppf (k, v) = Format.fprintf ppf "%s=%s" k v in
  Arg.conv (parse, print)

let dtd_flag =
  let doc =
    "Document DTD file (<!ELEMENT ...> declarations); verbs that can also \
     talk to a running server need it in local mode only."
  in
  Arg.(opt (some file) None & info [ "dtd" ] ~docv:"FILE" ~doc)

let root_arg =
  let doc = "Root element type (default: first declared)." in
  Arg.(value & opt (some string) None & info [ "root" ] ~docv:"NAME" ~doc)

let spec_flag =
  let doc =
    "Access-specification file (see secview --help).  Where --group is \
     accepted it is shorthand for --group user=FILE; verbs that can also \
     talk to a running server need it in local mode only."
  in
  Arg.(opt (some file) None & info [ "spec" ] ~docv:"FILE" ~doc)

let group_specs_arg =
  let doc =
    "Define user group $(i,NAME) by the access specification in \
     $(i,SPECFILE) (repeatable; --spec FILE is shorthand for \
     --group user=FILE)."
  in
  Arg.(
    value
    & opt_all (pair_conv ~what:"NAME=SPECFILE") []
    & info [ "group" ] ~docv:"NAME=SPECFILE" ~doc)

let view_arg =
  let doc =
    "Load a stored view definition (from 'derive --save') instead of \
     deriving from --spec."
  in
  Arg.(value & opt (some file) None & info [ "view" ] ~docv:"FILE" ~doc)

let doc_flag =
  let doc = "XML document file (local mode, for verbs that can also talk \
             to a running server)." in
  Arg.(opt (some file) None & info [ "doc" ] ~docv:"FILE" ~doc)

let docs_arg =
  let doc =
    "Add document $(i,FILE) to the catalog as $(i,NAME) (repeatable; \
     parsed when the verb starts).  replay (local mode) also serves \
     records that name no document from a single --doc."
  in
  Arg.(
    value
    & opt_all (pair_conv ~what:"NAME=FILE") []
    & info [ "doc" ] ~docv:"NAME=FILE" ~doc)

let bind_arg =
  let doc = "Bind a \\$variable used in qualifiers, e.g. --bind wardNo=6." in
  Arg.(
    value
    & opt_all (pair_conv ~what:"NAME=VALUE") []
    & info [ "bind"; "b" ] ~docv:"NAME=VALUE" ~doc)

let query_arg =
  let doc = "XPath query (fragment C)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let queries_arg =
  let doc = "View queries (fragment C), answered or analyzed in order." in
  Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)

let group_pos_arg =
  let doc = "User group whose security view answers the query or takes \
             the write." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"GROUP" ~doc)

(* A machine-readable rendering of the verb's output; [doc] says which. *)
let json_arg doc = Arg.(value & flag & info [ "json" ] ~doc)

(* Also write the verb's product to a file; [doc] says which. *)
let out_arg doc =
  Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)

(* Report statistics after the run; [doc] says whose. *)
let stats_arg doc = Arg.(value & flag & info [ "stats" ] ~doc)

let machine_arg =
  Arg.(
    value & flag
    & info [ "machine" ]
        ~doc:
          "One tab-separated record per diagnostic \
           (CODE, SEVERITY, SUBJECT, MESSAGE) instead of prose.")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ]
        ~doc:
          "Refuse to run when any group's policy or derived view has lint \
           errors (query: optimize approach only).")

let wait_arg =
  Arg.(
    value & opt float 0.
    & info [ "wait" ] ~docv:"SECS"
        ~doc:
          "Retry the connection for up to $(docv) seconds (for scripts \
           that just started the server).")

let iterations_arg =
  Arg.(
    value & opt int 0
    & info [ "iterations" ] ~docv:"N"
        ~doc:
          "Stop after $(docv) refreshes (0 = until killed; Ctrl-C exits \
           cleanly either way).")

let audit_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "audit-log" ] ~docv:"FILE"
        ~doc:
          "Append JSONL audit records to $(docv) ('-' for stderr): one \
           request record per query or update, in the same schema as the \
           server's, or lint/analyze's diagnostics.")

let capture_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "capture" ] ~docv:"FILE"
        ~doc:
          "Write one replayable JSONL record per answered query or admitted \
           update (rid, group, request, answer digest, latency) to \
           $(docv) — feed it to $(b,secview replay); query: optimize \
           approach only.")

let slow_ms_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "slow-ms" ] ~docv:"MS"
        ~doc:
          "Write a slow_query audit record (translated query, per-stage \
           timings, plan operator counts) for every query slower than \
           $(docv) milliseconds (served: queue wait included) to the audit \
           log.  Without --audit-log, query writes these records to stderr \
           and serve audits every request there.")

let runtime_events_arg =
  Arg.(
    value & flag
    & info [ "runtime-events" ]
        ~doc:
          "Consume OCaml runtime events: GC pauses overlapping a query's \
           span window are stamped into its slow_query record (needs \
           --slow-ms) and flight-recorder entry, query's --trace-out gains \
           per-domain gc:minor / gc:major_slice tracks, and serve's \
           scrapes and stats verb gain per-domain pause histograms, \
           collection counters and live-domain gauges.  Off by default (a \
           disabled consumer costs nothing).")

let socket_arg =
  let doc = "Listen on (or connect to) a Unix-domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Listen on (or connect to) TCP port $(docv)." in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Host for --tcp (default: loopback)." in
  Arg.(value & opt string "" & info [ "host" ] ~docv:"HOST" ~doc)

(* ---- flag groups --------------------------------------------------- *)

(* A malformed input file is a typed failure naming the file:
   "secview: FILE: … parse error at …", exit 2. *)
let load_file parse path =
  try parse path with
  | Sdtd.Parse.Error e -> failwith (path ^ ": " ^ Sdtd.Parse.error_to_string e)
  | Sxml.Parse.Error e -> failwith (path ^ ": " ^ Sxml.Parse.error_to_string e)

let load_doc = load_file (Sxml.Parse.of_file ~keep_whitespace:false)

(* The policy: the document DTD and the groups' specifications. *)
let load_dtd root = load_file (Sdtd.Parse.of_file ?root)

let dtd_t = Term.(const load_dtd $ root_arg $ Arg.required dtd_flag)

let spec_t =
  Term.(
    const (fun dtd path -> (dtd, Secview.Spec.of_sidecar_file dtd path))
    $ dtd_t $ Arg.required spec_flag)

(* groups from --spec (shorthand for user=FILE) plus repeated --group *)
let named_groups ~cmd dtd spec_path group_specs =
  let named =
    (match spec_path with Some p -> [ ("user", p) ] | None -> [])
    @ group_specs
  in
  if named = [] then
    failwith (cmd ^ ": provide --spec FILE and/or --group NAME=SPECFILE");
  List.map (fun (g, p) -> (g, Secview.Spec.of_sidecar_file dtd p)) named

let groups_t ~cmd =
  Term.(
    const (fun dtd spec groups -> (dtd, named_groups ~cmd dtd spec groups))
    $ dtd_t $ Arg.value spec_flag $ group_specs_arg)

(* A verb that can also talk to a running server takes its policy flags
   in local mode only. *)
let need ~cmd ~unless what = function
  | Some v -> v
  | None ->
    failwith
      (Printf.sprintf "%s: --%s is required unless %s is given" cmd what
         unless)

(* The sinks: where request records go.  The flags only name them:
   a verb opens its sinks once its DTD, specifications and documents
   have loaded, so a verb that fails on a bad input file leaves no sink
   file behind and starts no runtime-events consumer.  The server owns
   them from [Server.create] on; a one-shot verb closes them with
   [close_sinks]. *)
type sink_flags = {
  audit_path : string option;
  capture_path : string option;
  slow_threshold : float option;
  runtime_events : bool;
}

let no_sinks =
  {
    audit_path = None;
    capture_path = None;
    slow_threshold = None;
    runtime_events = false;
  }

type sinks = {
  audit : Sobs.Audit_log.t option;
  capture : Sobs.Capture.t option;
  slow_ms : float option;
  runtime : Sobs.Runtime.t option;
}

(* An audit-log path of "-" means stderr, so audit records, lint
   diagnostics and trace output can be collected from one stream. *)
let open_sinks f =
  {
    audit =
      Option.map
        (function
          | "-" -> Sobs.Audit_log.create Sobs.Audit_log.Stderr
          | path -> Sobs.Audit_log.open_file path)
        f.audit_path;
    capture = Option.map Sobs.Capture.open_file f.capture_path;
    slow_ms = f.slow_threshold;
    runtime =
      (if f.runtime_events then Some (Sobs.Runtime.start ()) else None);
  }

let sinks_t =
  Term.(
    const (fun audit_path capture_path slow_threshold runtime_events ->
        { audit_path; capture_path; slow_threshold; runtime_events })
    $ audit_log_arg $ capture_arg $ slow_ms_arg $ runtime_events_arg)

let close_sinks s =
  Option.iter Sobs.Audit_log.close s.audit;
  Option.iter Sobs.Capture.close s.capture;
  Option.iter Sobs.Runtime.stop s.runtime

(* One request record into the sinks, projected as the server projects
   a served one.  [mk] builds it only when some sink is on.  Slow-query
   records ride the audit log when there is one and a private stderr
   stream otherwise — --slow-ms alone should not force full request
   auditing on. *)
let publish s mk =
  if s.audit <> None || s.capture <> None || s.slow_ms <> None then begin
    let r : Sobs.Request.t = mk () in
    (match s.slow_ms with
    | Some threshold_ms when r.latency_ms > threshold_ms ->
      let log =
        match s.audit with
        | Some a -> a
        | None -> Sobs.Audit_log.create Sobs.Audit_log.Stderr
      in
      Sobs.Audit_log.log_slow_query log ~threshold_ms r
    | _ -> ());
    Option.iter (fun a -> Sobs.Audit_log.log a r) s.audit;
    Option.iter
      (fun c -> Option.iter (Sobs.Capture.write c) (Sobs.Capture.of_request r))
      s.capture
  end

(* lint and analyze: the diagnostics as JSONL audit records *)
let log_diagnostics audit_log ds =
  let s = open_sinks { no_sinks with audit_path = audit_log } in
  Option.iter
    (fun alog ->
      List.iter
        (fun (d : Sanalysis.Diagnostic.t) ->
          Sobs.Audit_log.log_diagnostic alog ~code:d.code
            ~severity:(Sanalysis.Diagnostic.severity_label d.severity)
            ~subject:(Sanalysis.Diagnostic.subject_label d.subject)
            d.message)
        (Sanalysis.Diagnostic.by_severity ds))
    s.audit;
  close_sinks s

(* The remote flags: the server a client verb talks to, or the
   listeners serve opens. *)
type remote = {
  socket : string option;
  tcp : int option;
  host : string;
}

let remote_t =
  Term.(
    const (fun socket tcp host -> { socket; tcp; host })
    $ socket_arg $ tcp_arg $ host_arg)

let remote_given r = r.socket <> None || r.tcp <> None
let server_address r = Conn.address ~socket:r.socket ~tcp:r.tcp ~host:r.host

(* One request over one connection; a refused request is a failure of
   the verb. *)
let remote_call ~cmd ?wait addr request =
  let line, reply =
    Conn.with_connection ?wait addr (fun c -> Conn.call c request)
  in
  if not (Protocol.is_ok reply) then
    failwith (Printf.sprintf "%s: request failed: %s" cmd line);
  (line, reply)

(* A local verb's session, and the snapshot of its one document that
   every answer and explain runs on — as a served request pins one. *)
let pinned_session ~strict dtd ~groups doc_path doc =
  let catalog = Secview.Catalog.create () in
  let snap =
    Secview.Catalog.pin (Secview.Catalog.add catalog ~name:doc_path doc)
  in
  let service = Secview.Pipeline.Service.create ~catalog dtd ~groups in
  if strict then Sanalysis.Lint.strict service;
  (Secview.Pipeline.Session.create service, snap)

(* ---- commands ------------------------------------------------------ *)

let derive_cmd =
  let run (_, spec) show_sigma save =
    let view = Secview.Derive.derive spec in
    (match save with
    | Some path ->
      Secview.View.save_definition view path;
      Printf.eprintf "view definition written to %s\n" path
    | None -> ());
    if show_sigma then Format.printf "%a" Secview.View.pp view
    else Format.printf "%a" Sdtd.Dtd.pp (Secview.View.dtd view)
  in
  let sigma_arg =
    Arg.(
      value & flag
      & info [ "sigma" ]
          ~doc:"Also print the internal σ annotations (server-side only).")
  in
  let save_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "save" ] ~docv:"FILE"
          ~doc:
            "Store the full view definition (DTD + σ) for later use with \
             --view.")
  in
  Cmd.v
    (Cmd.info "derive" ~doc:"Derive a security view from a specification")
    Term.(const run $ spec_t $ sigma_arg $ save_arg)

let graph_cmd =
  let run dtd spec_path =
    match spec_path with
    | None -> print_string (Sdtd.Graph.to_dot dtd)
    | Some path ->
      let spec = Secview.Spec.of_sidecar_file dtd path in
      let annotation ~parent ~child =
        match Secview.Spec.annotation spec ~parent ~child with
        | Some Secview.Spec.Yes -> Some `Yes
        | Some (Secview.Spec.Cond _) -> Some `Cond
        | Some Secview.Spec.No -> Some `No
        | None -> None
      in
      print_string
        (Sdtd.Graph.to_dot
           ~highlight:(Sdtd.Graph.spec_style ~annotation)
           dtd)
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:
         "Render the DTD graph as Graphviz; with --spec, in Fig. 4's style \
          (bold = accessible, dotted = denied)")
    Term.(const run $ dtd_t $ Arg.value spec_flag)

let audit_cmd =
  let run (dtd, spec) diff_path =
    match diff_path with
    | None -> Format.printf "%a" Secview.Audit.report spec
    | Some other ->
      let spec' = Secview.Spec.of_sidecar_file dtd other in
      let changes = Secview.Audit.diff spec spec' in
      if changes = [] then print_endline "no exposure changes"
      else
        List.iter
          (fun (el, change) ->
            match change with
            | `Gained -> Printf.printf "+ %s becomes exposed\n" el
            | `Lost -> Printf.printf "- %s becomes hidden\n" el
            | `Changed (_, _) -> Printf.printf "~ %s changes status\n" el)
          changes
  in
  let diff_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "diff" ] ~docv:"FILE"
          ~doc:"Compare against a second specification instead of reporting.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Analyse what a policy exposes; flag dead annotations")
    Term.(const run $ spec_t $ diff_arg)

let materialize_cmd =
  let run (dtd, spec) doc_path bindings =
    let view = Secview.Derive.derive spec in
    let doc = load_doc doc_path in
    (match Sdtd.Validate.check dtd doc with
    | [] -> ()
    | v :: _ ->
      failwith
        (Format.asprintf "document does not conform: %a" Sdtd.Validate
         .pp_violation v));
    let env = env_of_bindings bindings in
    let vt = Secview.Materialize.materialize ~env ~spec ~view doc in
    print_endline
      (Sxml.Print.to_string ~indent:true (Secview.Materialize.to_tree vt))
  in
  Cmd.v
    (Cmd.info "materialize"
       ~doc:
         "Materialize the view of a document (for inspection; the query \
          pipeline never does this)")
    Term.(const run $ spec_t $ Arg.required doc_flag $ bind_arg)

let view_of dtd ~spec_path ~view_path =
  match (view_path, spec_path) with
  | Some path, _ -> Secview.View.of_definition_file path
  | None, Some spec_path ->
    Secview.Derive.derive (Secview.Spec.of_sidecar_file dtd spec_path)
  | None, None -> failwith "either --spec or --view is required"

let rewrite_cmd =
  let run dtd spec_path view_path query height optimize =
    let view = view_of dtd ~spec_path ~view_path in
    let q = parse_query query in
    let pt =
      match height with
      | Some h -> Secview.Rewrite.rewrite_with_height view ~height:h q
      | None -> Secview.Rewrite.rewrite view q
    in
    let pt = if optimize then Secview.Optimize.optimize dtd pt else pt in
    print_endline (Sxpath.Print.to_string pt)
  in
  let height_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "height" ]
          ~docv:"H"
          ~doc:
            "Document element-nesting height, required for recursive views \
             (Section 4.2 unfolding).")
  in
  let optimize_arg =
    Arg.(
      value & flag
      & info [ "optimize"; "O" ]
          ~doc:"Optimize the rewritten query against the document DTD.")
  in
  Cmd.v
    (Cmd.info "rewrite"
       ~doc:"Rewrite a view query to an equivalent document query")
    Term.(
      const run $ dtd_t $ Arg.value spec_flag $ view_arg $ query_arg
      $ height_arg $ optimize_arg)

let query_cmd =
  let run (dtd, spec) doc_path queries bindings approach stats strict timeout
      trace trace_out metrics flags =
    if queries = [] then failwith "query: at least one QUERY is required";
    let observing =
      trace || metrics || trace_out <> None || flags.slow_threshold <> None
    in
    let registry = Sobs.Metrics.create () in
    let tracer = Sobs.Tracer.create ~metrics:registry () in
    if observing then Sobs.Tracer.install tracer;
    let view = Secview.Derive.derive spec in
    let doc = load_doc doc_path in
    let env = env_of_bindings bindings in
    let qs = List.map parse_query queries in
    let sinks = open_sinks flags in
    let render = Sxml.Print.answer (Buffer.create 1024) in
    (* query [i]'s request record, rid q<i+1>: a stable rid ties the
       reply and its audit, slow-query and capture records together *)
    let request i qtext ~latency_ms =
      {
        (Sobs.Request.make ~verb:"query" ~group:"user" qtext) with
        rid = Some (Printf.sprintf "q%d" (i + 1));
        bind = bindings;
        latency_ms;
      }
    in
    (* [answered] queries have a record in the sinks, and the next one
       began at [started]; a deadline abandons query [answered], whose
       record says so.  Under [lock], that record and the abandoned
       query's own cannot both reach the sinks. *)
    let lock = Mutex.create () and answered = ref 0 and abandoned = ref false in
    let started = ref (Sserver.Deadline.now ()) in
    (* the server's per-request deadline machinery, applied to the
       whole evaluation; exit 3 on expiry (after flushing the sinks, so
       the trail records what was asked before the cutoff) *)
    let guarded compute =
      match timeout with
      | None -> compute ()
      | Some seconds -> (
        match Sserver.Deadline.run ~seconds compute with
        | Ok r -> r
        | Error `Timeout ->
          Mutex.protect lock (fun () ->
              abandoned := true;
              (match List.nth_opt queries !answered with
              | Some qtext when approach = `Optimize ->
                let latency_ms =
                  1000. *. (Sserver.Deadline.now () -. !started)
                in
                publish sinks (fun () ->
                    {
                      (request !answered qtext ~latency_ms) with
                      status = "timeout";
                      error =
                        Some
                          (Printf.sprintf "deadline of %gs exceeded" seconds);
                    })
              | _ -> ());
              close_sinks sinks);
          Printf.eprintf "secview: query timed out after %gs\n" seconds;
          exit 3)
    in
    let results =
      guarded @@ fun () ->
      match approach with
      | `Naive ->
        let prepared = Secview.Naive.prepare ~env spec doc in
        let ctx = Sxpath.Eval.Ctx.make ~env ~root:prepared () in
        List.concat_map
          (fun q ->
            render (Sxpath.Eval.run ctx (Secview.Naive.rewrite_query ~view q)))
          qs
      | `Rewrite ->
        let height = Secview.Catalog.element_height doc in
        let ctx = Sxpath.Eval.Ctx.make ~env ~root:doc () in
        List.concat_map
          (fun q ->
            let pt = Secview.Rewrite.rewrite_with_height view ~height q in
            render (Sxpath.Eval.run ctx pt))
          qs
      | `Optimize ->
        (* the full Fig. 3 loop: rewrite + optimize through the
           pipeline's translation cache *)
        let pipe, snap =
          try pinned_session ~strict dtd ~groups:[ ("user", spec) ] doc_path doc
          with Invalid_argument msg as e ->
            Option.iter
              (fun a -> Sobs.Audit_log.log_note a ~kind:"strict_gate" msg)
              sinks.audit;
            close_sinks sinks;
            raise e
        in
        (* each query is one correlated request; when spans are needed
           it runs inside a "request" root span so its stages form one
           hierarchy (Tracer.with_request) *)
        let answers =
          List.concat
            (List.mapi
               (fun i (qtext, q) ->
                 let t0 = Sserver.Deadline.now () in
                 let answer () =
                   Secview.Pipeline.Session.answer_pinned pipe ~group:"user"
                     ~counts:(sinks.slow_ms <> None) ~env q snap
                 in
                 let outcome, spans =
                   if sinks.slow_ms <> None then
                     Sobs.Tracer.with_request tracer answer
                   else (answer (), [])
                 in
                 let latency_ms = 1000. *. (Sserver.Deadline.now () -. t0) in
                 let outcome =
                   Result.map
                     (fun (o : Secview.Pipeline.outcome) ->
                       (render o.o_results, o))
                     outcome
                 in
                 (* the same request record, and the same projections,
                    as a served query — failed queries included *)
                 Mutex.protect lock (fun () ->
                     if not !abandoned then begin
                       publish sinks (fun () ->
                           Sserver.Record.query outcome
                             {
                               (request i qtext ~latency_ms) with
                               gc = Sobs.Request.gc_overlap sinks.runtime spans;
                               spans;
                             });
                       incr answered;
                       started := Sserver.Deadline.now ()
                     end);
                 match outcome with
                 | Error e -> raise (Secview.Error.E e)
                 | Ok (rendered, _) -> rendered)
               (List.combine queries qs))
        in
        let all_stats = Secview.Pipeline.Session.all_stats pipe in
        if stats then
          List.iter
            (fun (g, (s : Secview.Pipeline.stats)) ->
              Printf.eprintf
                "cache[%s]: translation %d hit(s) %d miss(es); plans %d \
                 hit(s) %d miss(es), %d compiled, %d fallback(s)\n"
                g s.hits s.misses s.plan_hits s.plan_misses s.plan_compiles
                s.plan_fallbacks)
            all_stats;
        if metrics then Sserver.Record.count_stats registry all_stats;
        answers
    in
    List.iter print_endline results;
    if trace then Format.eprintf "%a%!" Sobs.Tracer.pp tracer;
    if metrics then Format.eprintf "%a%!" Sobs.Metrics.pp registry;
    Option.iter
      (fun path ->
        (* GC pause windows become per-domain tracks alongside the
           request spans *)
        let gc =
          match sinks.runtime with
          | None -> []
          | Some rt -> Sobs.Runtime.pauses rt
        in
        Sobs.Export.write_chrome_trace ~gc path (Sobs.Tracer.spans tracer))
      trace_out;
    close_sinks sinks;
    if observing then Sobs.Tracer.uninstall ()
  in
  let approach_arg =
    let doc = "Evaluation strategy: naive, rewrite or optimize." in
    Arg.(
      value
      & opt
          (enum [ ("naive", `Naive); ("rewrite", `Rewrite);
                  ("optimize", `Optimize) ])
          `Optimize
      & info [ "approach" ] ~docv:"NAME" ~doc)
  in
  let timeout_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "timeout" ] ~docv:"SECS"
          ~doc:
            "Abandon the evaluation after $(docv) seconds and exit with \
             status 3 (the server's per-request deadline machinery, applied \
             to one-shot runs).")
  in
  let trace_arg =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Record pipeline stage spans (derive, rewrite, optimize, eval, \
             ...) and print the span tree with timings on stderr.")
  in
  let metrics_arg =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Collect counters and per-stage latency series for this run and \
             print the registry on stderr.")
  in
  let trace_out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Write the recorded spans as Chrome trace_event JSON to $(docv) \
             — load it in chrome://tracing or Perfetto.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Securely evaluate view queries on a document")
    Term.(
      const run $ spec_t $ Arg.required doc_flag $ queries_arg $ bind_arg
      $ approach_arg
      $ stats_arg
          "Report the pipeline's translation- and plan-cache statistics on \
           stderr (optimize approach only)."
      $ strict_arg $ timeout_arg $ trace_arg $ trace_out_arg $ metrics_arg
      $ sinks_t)

let explain_cmd =
  let run (dtd, groups) doc_path bindings json group query =
    let pipe, snap =
      pinned_session ~strict:false dtd ~groups doc_path (load_doc doc_path)
    in
    let env = env_of_bindings bindings in
    let q = parse_query query in
    match Secview.Pipeline.Session.explain pipe ~group ~env q snap with
    | Error e -> raise (Secview.Error.E e)
    | Ok x when json ->
      print_endline (J.to_string (J.Obj (Protocol.explain_fields query x)))
    | Ok x -> (
      Printf.printf "query:      %s\n" query;
      (match x.x_admission with
      | Secview.Pipeline.Denied_empty w ->
        Printf.printf "admission:  denied — %s\n" w
      | a ->
        Printf.printf "admission:  %s\n" (Secview.Pipeline.admission_label a));
      Printf.printf "translated: %s\n" (Sxpath.Print.to_string x.x_translated);
      Option.iter (Printf.printf "height:     %d\n") x.x_height;
      Printf.printf "engine:     %s\n"
        (if x.x_plan <> None then "plan" else "interp");
      Option.iter (Printf.printf "fallback:   %s\n") x.x_fallback;
      Printf.printf "results:    %d\n" x.x_results;
      Printf.printf "doc version: %d  (writes admitted %d)\n" x.x_doc_version
        x.x_generation;
      match x.x_plan with
      | Some (compiled, stats) ->
        print_newline ();
        Format.printf "%a%!" Splan.Explain.pp
          (Splan.Explain.of_compiled compiled stats)
      | None -> ())
  in
  let query_pos_arg =
    let doc = "View query (fragment C) to explain." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Translate a view query, run it once, and show the physical plan \
          with per-operator work counters (or the interpreter-fallback \
          reason)")
    Term.(
      const run $ groups_t ~cmd:"explain" $ Arg.required doc_flag $ bind_arg
      $ json_arg
          "Machine-readable output: one JSON object with the plan tree \
           nested under \"plan\" (the server's explain reply, minus the \
           envelope)."
      $ group_pos_arg $ query_pos_arg)

let lint_cmd =
  let run dtd spec_path view_path machine audit_log queries =
    let spec = Option.map (Secview.Spec.of_sidecar_file dtd) spec_path in
    let view = Option.map Secview.View.of_definition_file view_path in
    let queries = List.map (fun q -> (q, parse_query q)) queries in
    let ds = Sanalysis.Lint.check_all ~dtd ?spec ?view ~queries () in
    log_diagnostics audit_log ds;
    if machine then
      List.iter
        (fun d -> print_endline (Sanalysis.Diagnostic.to_line d))
        (Sanalysis.Diagnostic.by_severity ds)
    else if ds = [] then print_endline "no diagnostics"
    else Format.printf "%a" Sanalysis.Diagnostic.pp_report ds;
    exit (if Sanalysis.Diagnostic.has_errors ds then 1 else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse a policy, a stored view and/or view queries; \
          exit 1 on any error-severity diagnostic")
    Term.(
      const run $ dtd_t $ Arg.value spec_flag $ view_arg $ machine_arg
      $ audit_log_arg $ queries_arg)

let analyze_cmd =
  let run (dtd, named) fleet json machine audit_log queries =
    let groups =
      List.map (fun (g, spec) -> (g, Secview.Derive.derive spec)) named
    in
    let queries =
      List.map (fun q -> (q, parse_query q)) queries
    in
    let multi = List.length groups > 1 in
    (* leakage diagnostics are per group: carry the group name in the
       message when several groups are analyzed together *)
    let tag g (d : Sanalysis.Diagnostic.t) =
      if multi then
        {
          d with
          Sanalysis.Diagnostic.message = Printf.sprintf "[%s] %s" g d.message;
        }
      else d
    in
    let leakage =
      List.concat_map
        (fun (g, v) ->
          List.map (tag g) (Sanalysis.Semantic.check_leakage ~dtd v))
        groups
    in
    let comparisons =
      if fleet then Sanalysis.Semantic.fleet dtd groups else []
    in
    let ds = leakage @ Sanalysis.Semantic.fleet_diagnostics comparisons in
    let verdicts =
      List.concat_map
        (fun (g, v) ->
          let prep = Secview.Optimize.prepare (Secview.View.dtd v) in
          List.map
            (fun (qt, q) ->
              (g, qt, Secview.Admission.classify prep q))
            queries)
        groups
    in
    log_diagnostics audit_log ds;
    if json then begin
      let relation_json (c : Sanalysis.Semantic.comparison) =
        J.Obj
          ([
             ("left", J.String c.cmp_left);
             ("right", J.String c.cmp_right);
             ( "relation",
               J.String (Sanalysis.Semantic.relation_label c.cmp_relation) );
             ( "overlap",
               match c.cmp_overlap with
               | Some l -> J.String l
               | None -> J.Null );
           ]
          @
          match c.cmp_relation with
          | Sanalysis.Semantic.Unknown why -> [ ("note", J.String why) ]
          | _ -> [])
      in
      let diag_json (d : Sanalysis.Diagnostic.t) =
        J.Obj
          [
            ("code", J.String d.code);
            ( "severity",
              J.String (Sanalysis.Diagnostic.severity_label d.severity) );
            ( "subject",
              J.String (Sanalysis.Diagnostic.subject_label d.subject) );
            ("message", J.String d.message);
          ]
      in
      let verdict_json (g, qt, v) =
        J.Obj
          [
            ("group", J.String g);
            ("query", J.String qt);
            ("verdict", J.String (Secview.Pipeline.admission_label v));
            ( "witness",
              match v with
              | Secview.Pipeline.Denied_empty w -> J.String w
              | _ -> J.Null );
          ]
      in
      print_endline
        (J.to_string
           (J.Obj
              [
                ("groups", J.List (List.map (fun (g, _) -> J.String g) groups));
                ("comparisons", J.List (List.map relation_json comparisons));
                ( "diagnostics",
                  J.List
                    (List.map diag_json (Sanalysis.Diagnostic.by_severity ds))
                );
                ("admission", J.List (List.map verdict_json verdicts));
              ]))
    end
    else begin
      List.iter
        (fun (c : Sanalysis.Semantic.comparison) ->
          Printf.printf "compare %s vs %s: %s%s\n" c.cmp_left c.cmp_right
            (Sanalysis.Semantic.relation_label c.cmp_relation)
            (match c.cmp_relation with
            | Sanalysis.Semantic.Unknown why -> Printf.sprintf " (%s)" why
            | Sanalysis.Semantic.Overlapping -> (
              match c.cmp_overlap with
              | Some l -> Printf.sprintf " (both reach %s)" l
              | None -> "")
            | _ -> ""))
        comparisons;
      List.iter
        (fun (g, qt, v) ->
          Printf.printf "admission [%s] %s: %s\n" g qt
            (match v with
            | Secview.Pipeline.Denied_empty w -> "denied — " ^ w
            | Secview.Pipeline.Trivial -> "trivial"
            | Secview.Pipeline.Needs_eval -> "eval"))
        verdicts;
      if machine then
        List.iter
          (fun d -> print_endline (Sanalysis.Diagnostic.to_line d))
          (Sanalysis.Diagnostic.by_severity ds)
      else if ds = [] then print_endline "no diagnostics"
      else Format.printf "%a" Sanalysis.Diagnostic.pp_report ds
    end;
    exit (if Sanalysis.Diagnostic.has_errors ds then 1 else 0)
  in
  let fleet_arg =
    Arg.(
      value & flag
      & info [ "fleet" ]
          ~doc:
            "Compare every pair of groups' accessible regions: SV401 marks \
             equivalent (merge-candidate) policies, SV402 role-hierarchy \
             subsumption, SV403 incomparable-but-overlapping ones.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Semantic policy analysis: cross-group subsumption (--fleet), \
          leakage of never-populatable view structure, and static \
          admission verdicts for queries (denied/trivial/eval against each \
          group's view DTD); exit 1 on any error-severity diagnostic")
    Term.(
      const run $ groups_t ~cmd:"analyze" $ fleet_arg
      $ json_arg
          "One JSON object with the comparisons, diagnostics and per-query \
           admission verdicts."
      $ machine_arg $ audit_log_arg $ queries_arg)

let optimize_cmd =
  let run dtd query =
    let q = parse_query query in
    print_endline (Sxpath.Print.to_string (Secview.Optimize.optimize dtd q))
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Optimize a document query against DTD constraints")
    Term.(const run $ dtd_t $ query_arg)

let annotate_cmd =
  let run (_, spec) doc_path bindings =
    let doc = load_doc doc_path in
    let env = env_of_bindings bindings in
    let prepared = Secview.Naive.prepare ~env spec doc in
    print_endline (Sxml.Print.to_string ~indent:true prepared)
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:
         "Stamp @accessibility attributes on a document (the naive \
          baseline's offline step)")
    Term.(const run $ spec_t $ Arg.required doc_flag $ bind_arg)

let gen_cmd =
  let run dtd seed star_max depth =
    let config =
      {
        Sdtd.Gen.default_config with
        seed;
        star_max;
        depth_budget = depth;
      }
    in
    print_endline
      (Sxml.Print.to_string ~indent:true (Sdtd.Gen.generate ~config dtd))
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"N" ~doc:"Random seed.")
  in
  let star_arg =
    Arg.(
      value & opt int 3
      & info [ "branching" ] ~docv:"N"
          ~doc:"Maximum branching factor for starred content.")
  in
  let depth_arg =
    Arg.(
      value & opt int 12
      & info [ "depth" ] ~docv:"N" ~doc:"Depth budget for recursion.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a random instance of a DTD")
    Term.(const run $ dtd_t $ seed_arg $ star_arg $ depth_arg)

let validate_cmd =
  let run dtd doc_path =
    let doc = load_doc doc_path in
    match Sdtd.Validate.check dtd doc with
    | [] ->
      print_endline "valid";
      exit 0
    | violations ->
      List.iter
        (fun v -> Format.printf "%a@." Sdtd.Validate.pp_violation v)
        violations;
      exit 1
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Check a document against a DTD")
    Term.(const run $ dtd_t $ Arg.required doc_flag)

(* ---- secure updates ------------------------------------------------ *)

let update_cmd =
  let run (dtd, groups) doc_path bindings out flags json group update_text =
    let catalog = Secview.Catalog.create () in
    let entry = Secview.Catalog.add catalog ~name:"doc" (load_doc doc_path) in
    let svc = Secview.Pipeline.Service.create ~catalog dtd ~groups in
    let sinks = open_sinks flags in
    let t0 = Sserver.Deadline.now () in
    let outcome, detail =
      Sserver.Record.apply_update svc ~group ~env:(env_of_bindings bindings)
        ~entry update_text
    in
    let latency_ms = 1000. *. (Sserver.Deadline.now () -. t0) in
    (* one request record, projected into the audit log and the
       capture exactly as the server projects a served write *)
    publish sinks (fun () ->
        Sserver.Record.update ?detail outcome
          {
            (Sobs.Request.make ~verb:"update" ~group update_text) with
            rid = Some "u1";
            doc_label = Some "doc";
            bind = bindings;
            latency_ms;
          });
    close_sinks sinks;
    match outcome with
    | Error e -> raise (Secview.Error.E e)
    | Ok rc ->
      Option.iter
        (fun path -> Sxml.Print.to_file ~indent:true path rc.r_doc)
        out;
      if json then
        print_endline (J.to_string (J.Obj (Protocol.receipt_fields rc)))
      else begin
        Printf.printf "op:       %s\n" rc.r_op;
        Printf.printf "targets:  %d\n" rc.r_targets;
        Printf.printf "version:  %d -> %d\n" rc.r_old_version rc.r_new_version;
        Printf.printf "digest:   %s\n" rc.r_view_digest
      end
  in
  let update_pos_arg =
    let doc =
      "The update: 'insert into|before|after PATH CONTENT', 'delete PATH', \
       or 'replace PATH with CONTENT' (PATH is fragment-C XPath over the \
       group's view; CONTENT is an XML fragment)."
    in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"UPDATE" ~doc)
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Run a secure view update against a document: the write is \
          admitted only when the target and every node it touches are \
          accessible to the group and the group holds the matching write \
          grant; a rejected update changes nothing")
    Term.(
      const run $ groups_t ~cmd:"update" $ Arg.required doc_flag $ bind_arg
      $ out_arg
          "Write the updated document to $(docv) (the input file is never \
           modified in place)."
      $ (const (fun audit_path capture_path ->
             { no_sinks with audit_path; capture_path })
        $ audit_log_arg $ capture_arg)
      $ json_arg
          "Machine-readable receipt: op, target count, version transition \
           and the digest of the group's view of the result as one JSON \
           object (the server's update reply, minus the envelope)."
      $ group_pos_arg $ update_pos_arg)

(* ---- server and client --------------------------------------------- *)

let serve_cmd =
  let run (dtd, groups) docs remote domains queue deadline debug strict
      metrics_port flight flight_snapshot flags =
    if docs = [] then
      failwith "serve: at least one --doc NAME=FILE is required";
    let catalog = Secview.Catalog.create () in
    List.iter
      (fun (n, p) ->
        ignore (Secview.Catalog.add catalog ~name:n (load_doc p)))
      docs;
    let service = Secview.Pipeline.Service.create ~catalog dtd ~groups in
    if strict then Sanalysis.Lint.strict service;
    if flight <= 0 && flight_snapshot <> None then
      failwith "serve: --flight-snapshot requires --flight N";
    let listeners =
      (match remote.socket with
      | Some p -> [ Sserver.Server.Unix_socket p ]
      | None -> [])
      @ (match remote.tcp with
        | Some p -> [ Sserver.Server.Tcp (remote.host, p) ]
        | None -> [])
      @
      match metrics_port with
      | Some p -> [ Sserver.Server.Metrics_http (remote.host, p) ]
      | None -> []
    in
    if listeners = [] then
      failwith "serve: provide --socket PATH and/or --tcp PORT";
    let sinks = open_sinks flags in
    (* one registry for everything a scrape should see; the tracer
       (installed only when something consumes stage timings) feeds the
       per-stage latency series into it *)
    let registry = Sobs.Metrics.create () in
    let tracer =
      if sinks.slow_ms <> None || metrics_port <> None || flight > 0 then begin
        let tr =
          Sobs.Tracer.create ~metrics:registry ~retain:false ()
        in
        Sobs.Tracer.install tr;
        Some tr
      end
      else None
    in
    let recorder =
      if flight > 0 then Some (Sobs.Recorder.create ~capacity:flight)
      else None
    in
    let audit =
      match (sinks.audit, sinks.slow_ms) with
      | None, Some _ ->
        (* a slow-query threshold without a log would observe and then
           say nothing: default the trail to stderr *)
        Some (Sobs.Audit_log.create Sobs.Audit_log.Stderr)
      | audit, _ -> audit
    in
    let config =
      { Sserver.Server.domains; queue_capacity = queue; deadline; debug;
        slow_ms = sinks.slow_ms }
    in
    (* the sinks are the server's from here on: serve closes them when
       the drain completes *)
    let server =
      Sserver.Server.create ~config ?audit ~metrics:registry ?tracer
        ?recorder ?runtime:sinks.runtime ?flight_snapshot
        ?capture:sinks.capture service
    in
    Sserver.Server.install_sigint server;
    let host = if remote.host = "" then "127.0.0.1" else remote.host in
    List.iter
      (function
        | Sserver.Server.Unix_socket p ->
          Printf.eprintf "secview: listening on %s\n%!" p
        | Sserver.Server.Tcp (_, p) ->
          Printf.eprintf "secview: listening on %s:%d\n%!" host p
        | Sserver.Server.Metrics_http (_, p) ->
          Printf.eprintf "secview: metrics on http://%s:%d/metrics\n%!" host p)
      listeners;
    Sserver.Server.serve server listeners;
    (match tracer with Some _ -> Sobs.Tracer.uninstall () | None -> ());
    Printf.eprintf "secview: drained\n%!"
  in
  let domains_arg =
    Arg.(
      value
      & opt int Sserver.Server.default_config.domains
      & info [ "domains" ] ~docv:"N"
          ~absent:"the number of cores (Domain.recommended_domain_count)"
          ~doc:
            "Worker pool size: one OCaml domain (runtime-parallel worker) \
             per unit, each with its own pipeline session; more domains \
             than cores only add cross-domain hand-offs.")
  in
  let queue_arg =
    Arg.(
      value
      & opt int Sserver.Server.default_config.queue_capacity
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Admission-control bound: requests beyond $(docv) waiting are \
             answered 'overloaded' immediately.")
  in
  let deadline_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "deadline" ] ~docv:"SECS"
          ~doc:
            "Per-request deadline (queue wait included); expired requests \
             are answered 'timeout'.")
  in
  let debug_arg =
    Arg.(
      value & flag
      & info [ "debug" ]
          ~doc:"Honour the 'sleep' test command (never in production).")
  in
  let metrics_port_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "metrics-port" ] ~docv:"PORT"
          ~doc:
            "Also expose the metrics registry as OpenMetrics text over HTTP \
             on $(docv) (GET /metrics; same host as --host) for Prometheus \
             scrapes or 'secview metrics --scrape'.")
  in
  let flight_arg =
    Arg.(
      value & opt int 0
      & info [ "flight" ] ~docv:"N"
          ~doc:
            "Keep an in-memory flight recorder of the last $(docv) completed \
             requests (rid, principal, query, doc version, span tree, \
             operator counts, answer digest, outcome) — dump it with \
             the session-less 'flight' verb or $(b,secview flight).  0 \
             disables it (the default; a disabled recorder costs nothing on \
             the request path).")
  in
  let flight_snapshot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-snapshot" ] ~docv:"FILE"
          ~doc:
            "Dump the flight-recorder ring to $(docv) (overwriting) whenever \
             a request ends in error, timeout or late, or over the --slow-ms \
             threshold; requires --flight.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent secure-query server (line-delimited JSON over \
          Unix-domain and/or TCP sockets; SIGINT drains gracefully)")
    Term.(
      const run $ groups_t ~cmd:"serve" $ docs_arg $ remote_t $ domains_arg
      $ queue_arg $ deadline_arg $ debug_arg $ strict_arg
      $ metrics_port_arg $ flight_arg
      $ flight_snapshot_arg $ sinks_t)

let client_cmd =
  let run remote wait group peer doc_name bindings ping do_stats shutdown raws
      updates queries =
    let failed =
      Conn.with_connection ~wait (server_address remote) @@ fun c ->
      let failed = ref false in
      let call what request =
        let line, j = Conn.call c request in
        if not (Protocol.is_ok j) then begin
          failed := true;
          Printf.eprintf "secview: %s failed: %s\n" what line
        end;
        (line, j)
      in
      let ok (_, j) = Protocol.is_ok j in
      if ping && ok (call "ping" (Protocol.simple "ping")) then
        print_endline "pong";
      (* raw lines go out verbatim and the reply is echoed verbatim —
         the escape hatch for demonstrating protocol errors *)
      List.iter
        (fun raw ->
          Conn.send_line c raw;
          print_endline (Conn.recv_line c))
        raws;
      Option.iter
        (fun g -> ignore (call "hello" (Protocol.hello ?peer g)))
        group;
      List.iter
        (fun u ->
          let _, j =
            call (Printf.sprintf "update %S" u)
              (Protocol.update_json ?doc:doc_name ~bind:bindings u)
          in
          if Protocol.is_ok j then
            Printf.printf "update ok: %d target(s), version %d -> %d\n"
              (jint j "targets") (jint j "old_version") (jint j "new_version"))
        updates;
      List.iter
        (fun q ->
          match
            call (Printf.sprintf "query %S" q)
              (Protocol.query_json ?doc:doc_name ~bind:bindings q)
          with
          | _, j when Protocol.is_ok j -> (
            match J.member "results" j with
            | Some (J.List rs) ->
              List.iter
                (fun r -> Option.iter print_endline (J.to_string_opt r))
                rs
            | _ -> ())
          | _ -> ())
        queries;
      if do_stats then
        print_endline (fst (Conn.call c (Protocol.simple "stats")));
      if shutdown then ignore (call "shutdown" (Protocol.simple "shutdown"));
      !failed
    in
    if failed then exit 1
  in
  let group_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "group" ] ~docv:"NAME"
          ~doc:"Bind the session to user group $(docv) before querying.")
  in
  let peer_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "peer" ] ~docv:"NAME"
          ~doc:"Self-reported peer label for the server's audit log.")
  in
  let doc_name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "doc" ] ~docv:"NAME"
          ~doc:
            "Query catalog document $(docv) (optional when the server holds \
             exactly one).")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Check liveness first.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the server to drain, last.")
  in
  let send_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "send" ] ~docv:"LINE"
          ~doc:
            "Send $(docv) verbatim and echo the reply verbatim \
             (repeatable; for exercising the wire protocol directly).")
  in
  let updates_arg =
    Arg.(
      value
      & opt_all string []
      & info [ "update" ] ~docv:"UPDATE"
          ~doc:
            "Send $(docv) as a transactional update (repeatable; all \
             updates run before the queries, so a session can write then \
             read back).")
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running secview server (exit 1 if any request is \
          refused)")
    Term.(
      const run $ remote_t $ wait_arg $ group_arg $ peer_arg $ doc_name_arg
      $ bind_arg $ ping_arg
      $ stats_arg "Print the server's statistics object after the queries."
      $ shutdown_arg $ send_arg $ updates_arg $ queries_arg)

(* ---- flight recorder and replay ------------------------------------ *)

(* Watch-mode refresh, shared by [metrics --watch] and [top].  On a
   real terminal each frame repaints in place: home the cursor, paint,
   then clear whatever the previous (longer) frame left below — a
   redraw with no flicker and no scrollback spam.  Piped output (cram
   tests, shell captures) still gets plain concatenation.  SIGINT ends
   the loop between writes instead of killing the process mid-frame:
   the handler only flips a flag, the loop notices it at the next
   check, restores the previous handler and returns — so the command
   exits 0 with the terminal in a sane state.  A reader of stdout that
   goes away (a pager quits, [| grep -q] has seen enough) ends the
   loop the same way: the client ignores SIGPIPE, so the write fails
   with EPIPE, and stdout is closed so that the frame still buffered
   is dropped instead of failing again when the program exits. *)
let watch_stop = ref false

let reader_gone = function
  | Sys_error msg -> String.equal msg (Unix.error_message Unix.EPIPE)
  | _ -> false

let watch_loop ~interval ~rounds render =
  watch_stop := false;
  let previous =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> watch_stop := true))
  in
  let tty = Unix.isatty Unix.stdout in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigint previous)
    (fun () ->
      try
        let i = ref 0 in
        while (not !watch_stop) && !i < rounds do
          incr i;
          let frame = render () in
          (try
             if tty then
               (* full clear once, then home-paint-clear-to-end *)
               print_string (if !i = 1 then "\027[2J\027[H" else "\027[H");
             print_string frame;
             if tty then print_string "\027[0J";
             flush stdout
           with e when reader_gone e ->
             close_out_noerr stdout;
             watch_stop := true);
          if !i < rounds && not !watch_stop then begin
            (* sleep in short slices so Ctrl-C is honoured promptly *)
            let slept = ref 0. in
            while !slept < interval && not !watch_stop do
              let d = Float.min 0.1 (interval -. !slept) in
              Thread.delay d;
              slept := !slept +. d
            done
          end
        done
      with Unix.Unix_error (Unix.EINTR, _, _) -> ())

let flight_cmd =
  let run remote wait json =
    let line, j =
      remote_call ~cmd:"flight" ~wait (server_address remote)
        (Protocol.simple "flight")
    in
    if json then print_endline line
    else begin
      Printf.printf "flight recorder: %d/%d entries, %d recorded\n"
        (jint j "flight") (jint j "capacity") (jint j "total");
      match J.member "entries" j with
      | Some (J.List es) ->
        List.iter
          (fun e ->
            let str name = Option.value ~default:"-" (jstring e name) in
            Printf.printf "%-10s %-8s %-10s %-12s %4d  %8.3f ms  %s%s\n"
              (str "rid")
              (Option.value ~default:"query" (jstring e "verb"))
              (str "group") (str "status") (jint e "results")
              (jfloat e "latency_ms") (str "query")
              (match jstring e "error" with
              | Some err -> "  ! " ^ err
              | None -> ""))
          es
      | _ -> ()
    end
  in
  Cmd.v
    (Cmd.info "flight"
       ~doc:
         "Dump a running server's in-memory flight recorder (start it with \
          --flight N): one line per retained request — rid, group, outcome, \
          result count, latency, query")
    Term.(
      const run $ remote_t $ wait_arg
      $ json_arg "Echo the server's raw flight reply instead.")

let top_cmd =
  let fields = function Some (J.Obj fs) -> fs | _ -> [] in
  let hms seconds =
    let s = int_of_float seconds in
    Printf.sprintf "%d:%02d:%02d" (s / 3600) (s mod 3600 / 60) (s mod 60)
  in
  let pct hits misses =
    let total = hits + misses in
    if total = 0 then "    -"
    else Printf.sprintf "%5.1f" (100. *. float_of_int hits /. float_of_int total)
  in
  let run remote wait interval iterations =
    let addr = server_address remote in
    (* --wait applies to the first connection only: once the dashboard
       is up, a vanished server is an error, not something to retry *)
    let first = ref true in
    let fetch_stats () =
      let wait = if !first then wait else 0. in
      first := false;
      snd (remote_call ~cmd:"top" ~wait addr (Protocol.simple "stats"))
    in
    (* rps is the accepted-counter delta between two refreshes; the
       first frame falls back to the lifetime average *)
    let prev = ref None in
    let render () =
      let j = fetch_stats () in
      let now = Sserver.Deadline.now () in
      let member name j = Option.value ~default:J.Null (J.member name j) in
      let counters = member "counters" j in
      let accepted = jint counters "server.accepted" in
      let uptime = jfloat j "uptime_s" in
      let rps =
        match !prev with
        | Some (t0, a0) when now > t0 ->
          float_of_int (accepted - a0) /. (now -. t0)
        | _ -> if uptime > 0. then float_of_int accepted /. uptime else 0.
      in
      prev := Some (now, accepted);
      let rejected =
        List.fold_left
          (fun acc (k, v) ->
            if String.starts_with ~prefix:"server.rejected." k then
              acc + Option.value ~default:0 (J.to_int_opt v)
            else acc)
          0 (fields (Some counters))
      in
      let queue = member "queue" j in
      let b = Buffer.create 1024 in
      let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
      line "secview top — up %s   %d worker(s), %d busy   queue %d/%d"
        (hms uptime) (jint j "workers") (jint j "workers_busy")
        (jint queue "length") (jint queue "capacity");
      line "requests: %.1f rps   accepted %d   timeouts %d   rejected %d"
        rps accepted (jint counters "server.timeout") rejected;
      line "";
      (* one row per group: latency quantiles + cache hit rates +
         admission denials, joined across the reply's sections *)
      let latency = J.member "latency_ms" j in
      let cache = J.member "cache" j in
      let admission = J.member "admission" j in
      let groups =
        List.sort_uniq compare
          (List.map fst (fields latency) @ List.map fst (fields cache))
      in
      line "%-12s %8s %9s %9s %7s %6s %7s" "group" "count" "p50ms" "p95ms"
        "cache%" "plan%" "denied";
      List.iter
        (fun g ->
          let section s =
            Option.value ~default:J.Null (Option.bind s (J.member g))
          in
          let l = section latency and c = section cache in
          line "%-12s %8d %9.3f %9.3f %7s %6s %7d" g (jint l "count")
            (jfloat l "p50") (jfloat l "p95")
            (pct (jint c "hits") (jint c "misses"))
            (pct (jint c "plan_hits") (jint c "plan_misses"))
            (jint (section admission) "denied"))
        groups;
      line "";
      (match J.member "runtime" j with
      | Some rt when J.member "enabled" rt = Some (J.Bool true) ->
        line "gc: %d domain(s) live   %d pause(s)   %d event(s) lost"
          (jint rt "domains_live") (jint rt "pauses_total")
          (jint rt "events_lost");
        line "%-12s %8s %9s %9s %9s %9s" "domain" "pauses" "p50ms" "p99ms"
          "maxms" "totalms";
        List.iter
          (fun (d, pj) ->
            line "%-12s %8d %9.3f %9.3f %9.3f %9.3f" d (jint pj "count")
              (jfloat pj "p50_ms") (jfloat pj "p99_ms") (jfloat pj "max_ms")
              (jfloat pj "total_ms"))
          (fields (J.member "gc_pause_ms" rt))
      | _ ->
        line "gc: runtime events off — start the server with \
              --runtime-events");
      Buffer.contents b
    in
    let rounds = if iterations > 0 then iterations else max_int in
    watch_loop ~interval ~rounds render
  in
  let interval_arg =
    Arg.(
      value & opt float 1.
      & info [ "interval" ] ~docv:"SECS"
          ~doc:"Refresh every $(docv) seconds (default 1).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard for a running server: rps, per-group \
          latency quantiles and cache hit rates, queue depth, busy \
          workers, admission denials, and per-domain GC pause quantiles \
          when the server runs with --runtime-events")
    Term.(
      const run $ remote_t $ wait_arg $ interval_arg $ iterations_arg)

let replay_cmd =
  let ms_of l p =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    Sobs.Metrics.percentile a p
  in
  let run capture_file remote wait dtd_path root spec_path group_specs docs
      label json out =
    let records =
      match Sobs.Capture.read_file capture_file with
      | Ok rs -> rs
      | Error e -> failwith ("replay: " ^ e)
    in
    if records = [] then
      failwith (Printf.sprintf "replay: %s holds no records" capture_file);
    let remote_mode = remote_given remote in
    (* replayed: (captured record, replay digest, result count, ms), in
       capture order *)
    let replayed =
      if remote_mode then begin
        (* one session per captured group, opened up front, and every
           record re-sent in strict capture order across groups — a
           mixed read/write workload must interleave exactly as
           captured, or the writes would rebuild different document
           versions.  Rids are re-sent so the replayed request is
           traceable in the server's audit log and flight recorder. *)
        let group_names =
          List.fold_left
            (fun acc (r : Sobs.Capture.record) ->
              if List.mem r.c_group acc then acc else acc @ [ r.c_group ])
            [] records
        in
        let addr = server_address remote in
        let sessions =
          List.map (fun g -> (g, Conn.connect ~wait addr)) group_names
        in
        Fun.protect
          ~finally:(fun () -> List.iter (fun (_, c) -> Conn.close c) sessions)
          (fun () ->
            List.iter
              (fun (g, c) ->
                if
                  not
                    (Protocol.is_ok
                       (snd (Conn.call c (Protocol.hello ~peer:"replay" g))))
                then failwith (Printf.sprintf "replay: hello %S refused" g))
              sessions;
            List.map
              (fun (r : Sobs.Capture.record) ->
                let c = List.assoc r.c_group sessions in
                let t0 = Sserver.Deadline.now () in
                let _, reply =
                  Conn.call c
                    (if r.c_verb = "update" then
                       Protocol.update_json ~rid:r.c_rid ?doc:r.c_doc
                         ~bind:r.c_bind r.c_query
                     else
                       Protocol.query_json ~rid:r.c_rid ?doc:r.c_doc
                         ~bind:r.c_bind r.c_query)
                in
                let ms = 1000. *. (Sserver.Deadline.now () -. t0) in
                if not (Protocol.is_ok reply) then
                  ( r,
                    "refused:"
                    ^ Option.value ~default:"error" (jstring reply "code"),
                    0,
                    ms )
                else if r.c_verb = "update" then
                  (* the reply digest is of the group's view of the
                     resulting document: a match means the replayed
                     write rebuilt the byte-identical view *)
                  ( r,
                    Option.value ~default:"-" (jstring reply "digest"),
                    jint reply "targets",
                    ms )
                else
                  let results =
                    match J.member "results" reply with
                    | Some (J.List rs) -> List.filter_map J.to_string_opt rs
                    | _ -> []
                  in
                  (r, Sobs.Capture.digest results, List.length results, ms))
              records)
      end
      else begin
        let need =
          need ~cmd:"replay" ~unless:"--socket or --tcp"
        in
        let dtd = load_dtd root (need "dtd" dtd_path) in
        let groups = named_groups ~cmd:"replay" dtd spec_path group_specs in
        if docs = [] then
          failwith
            "replay: at least one --doc NAME=FILE is required unless \
             --socket or --tcp is given";
        let catalog = Secview.Catalog.create () in
        List.iter
          (fun (n, p) ->
            ignore (Secview.Catalog.add catalog ~name:n (load_doc p)))
          docs;
        let svc = Secview.Pipeline.Service.create ~catalog dtd ~groups in
        let pipe = Secview.Pipeline.Session.create svc in
        let out = Buffer.create 1024 in
        let default_doc =
          match docs with [ (n, _) ] -> Some n | _ -> None
        in
        List.map
          (fun (r : Sobs.Capture.record) ->
            let doc_name =
              match (r.c_doc, default_doc) with
              | Some n, _ | None, Some n -> n
              | None, None ->
                failwith
                  (Printf.sprintf
                     "replay: record %s names no document and several --doc \
                      were given"
                     r.c_rid)
            in
            let entry =
              match Secview.Catalog.find catalog doc_name with
              | Some e -> e
              | None ->
                failwith
                  (Printf.sprintf "replay: record %s: unknown document %S"
                     r.c_rid doc_name)
            in
            let env = env_of_bindings r.c_bind in
            let t0 = Sserver.Deadline.now () in
            let outcome =
              if r.c_verb = "update" then
                Result.map
                  (fun (rc : Supdate.Engine.receipt) ->
                    (rc.r_view_digest, rc.r_targets))
                  (Supdate.Engine.apply_text svc ~group:r.c_group ~env ~entry
                     r.c_query)
              else
                let q = parse_query r.c_query in
                Result.map
                  (fun (o : Secview.Pipeline.outcome) ->
                    let rendered = Sxml.Print.answer out o.o_results in
                    (Sobs.Capture.digest rendered, List.length rendered))
                  (Secview.Pipeline.Session.answer_pinned pipe
                     ~group:r.c_group ~env q (Secview.Catalog.pin entry))
            in
            let ms = 1000. *. (Sserver.Deadline.now () -. t0) in
            match outcome with
            | Ok (digest, n) -> (r, digest, n, ms)
            | Error e -> (r, "error:" ^ Secview.Error.to_code e, 0, ms))
          records
      end
    in
    let mismatches =
      List.filter
        (fun ((r : Sobs.Capture.record), d, _, _) -> d <> r.c_digest)
        replayed
    in
    List.iter
      (fun ((r : Sobs.Capture.record), d, n, _) ->
        Printf.eprintf
          "secview: replay mismatch %s group=%s query=%s: captured %s (%d \
           results), replayed %s (%d results)\n"
          r.c_rid r.c_group r.c_query r.c_digest r.c_results d n)
      mismatches;
    (* per-cell latency comparison: a cell is one distinct
       (group, doc, query) the workload exercised *)
    let cells =
      List.fold_left
        (fun acc ((r : Sobs.Capture.record), _, _, ms) ->
          let key = (r.c_group, r.c_doc, r.c_query) in
          match List.assoc_opt key acc with
          | Some _ ->
            List.map
              (fun (k, (cap, rep)) ->
                if k = key then (k, (r.c_latency_ms :: cap, ms :: rep))
                else (k, (cap, rep)))
              acc
          | None -> acc @ [ (key, ([ r.c_latency_ms ], [ ms ])) ])
        [] replayed
    in
    let report =
      J.Obj
        [
          ("bench", J.String "replay");
          ("label", J.String label);
          ("source", J.String capture_file);
          ("mode", J.String (if remote_mode then "live" else "local"));
          ("records", J.Int (List.length replayed));
          ("mismatches", J.Int (List.length mismatches));
          ( "cells",
            J.List
              (List.map
                 (fun ((g, d, q), (cap, rep)) ->
                   let side l =
                     J.Obj
                       [
                         ("p50_ms", J.Float (ms_of l 50.));
                         ("p95_ms", J.Float (ms_of l 95.));
                       ]
                   in
                   J.Obj
                     (("group", J.String g)
                      :: (match d with
                         | Some d -> [ ("doc", J.String d) ]
                         | None -> [])
                     @ [
                         ("query", J.String q);
                         ("n", J.Int (List.length cap));
                         ("captured", side cap);
                         ("replayed", side rep);
                       ]))
                 cells) );
        ]
    in
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc (J.to_string report);
      output_char oc '\n';
      close_out oc
    | None -> ());
    if json then print_endline (J.to_string report)
    else begin
      Printf.printf "replayed %d record(s) from %s — %d mismatch(es)\n"
        (List.length replayed) capture_file
        (List.length mismatches);
      List.iter
        (fun ((g, d, q), (cap, rep)) ->
          Printf.printf
            "  %-10s %-30s n=%-3d captured %7.3f/%7.3f ms  replayed \
             %7.3f/%7.3f ms\n"
            g
            (match d with Some d -> q ^ " @" ^ d | None -> q)
            (List.length cap) (ms_of cap 50.) (ms_of cap 95.) (ms_of rep 50.)
            (ms_of rep 95.))
        cells
    end;
    if mismatches <> [] then exit 1
  in
  let capture_file_arg =
    let doc = "Capture file (JSONL, from --capture) to replay." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let label_arg =
    Arg.(
      value & opt string "replay"
      & info [ "label" ] ~docv:"NAME" ~doc:"Label stamped into the report.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a captured workload — against a local pipeline \
          (--dtd/--spec/--doc) or a live server (--socket/--tcp) — \
          byte-comparing every answer against its captured digest \
          (exit 1 on any mismatch) and comparing per-query latency")
    Term.(
      const run $ capture_file_arg $ remote_t $ wait_arg $ Arg.value dtd_flag
      $ root_arg $ Arg.value spec_flag $ group_specs_arg $ docs_arg
      $ label_arg
      $ json_arg "Print the comparison report as JSON instead of text."
      $ out_arg
          "Also write the JSON report to $(docv) (feed two of these to \
           bench_diff).")

let metrics_cmd =
  (* one GET /metrics over plain HTTP/1.0 — no curl dependency *)
  let http_scrape target =
    let host, port =
      match String.rindex_opt target ':' with
      | Some i -> (
        ( String.sub target 0 i,
          match
            int_of_string_opt
              (String.sub target (i + 1) (String.length target - i - 1))
          with
          | Some p -> p
          | None -> failwith "metrics: --scrape expects HOST:PORT" ))
      | None -> failwith "metrics: --scrape expects HOST:PORT"
    in
    let response =
      Conn.with_connection
        (Unix.ADDR_INET (Conn.inet_addr host, port))
        (fun c ->
          Conn.write c
            (Printf.sprintf "GET /metrics HTTP/1.0\r\nHost: %s\r\n\r\n" host);
          Conn.read_all c)
    in
    let body =
      let rec split i =
        if i + 3 >= String.length response then response
        else if String.sub response i 4 = "\r\n\r\n" then
          String.sub response (i + 4) (String.length response - i - 4)
        else split (i + 1)
      in
      split 0
    in
    let status =
      match String.index_opt response '\n' with
      | Some i -> String.trim (String.sub response 0 i)
      | None -> response
    in
    if
      String.length status < 12
      || String.sub status 9 3 <> "200"
    then failwith (Printf.sprintf "metrics: scrape failed: %s" status);
    body
  in
  let run dtd_path root spec_path doc_path bindings repeat json
      openmetrics remote scrape watch iterations queries =
    let remote_mode = scrape <> None || remote_given remote in
    if watch <> None && not remote_mode then
      failwith "metrics: --watch needs --socket, --tcp or --scrape";
    if remote_mode then begin
      let fetch =
        match scrape with
        | Some target -> fun () -> http_scrape target
        | None -> (
          (* the server's [metrics] verb over one throwaway connection *)
          let addr = server_address remote in
          fun () ->
            let line, j =
              remote_call ~cmd:"metrics" addr (Protocol.simple "metrics")
            in
            if json then line ^ "\n"
            else
              let field = if openmetrics then "openmetrics" else "text" in
              match jstring j field with
              | Some s -> s
              | None -> failwith ("metrics: request failed: " ^ line))
      in
      match watch with
      | None ->
        print_string (fetch ());
        flush stdout
      | Some interval ->
        let rounds = if iterations > 0 then iterations else max_int in
        watch_loop ~interval ~rounds fetch
    end
    else begin
      let need =
        need ~cmd:"metrics" ~unless:"--socket, --tcp or --scrape"
      in
      if queries = [] then failwith "metrics: at least one QUERY is required";
      let registry = Sobs.Metrics.create () in
      let tracer = Sobs.Tracer.create ~metrics:registry () in
      Sobs.Tracer.install tracer;
      let dtd = load_dtd root (need "dtd" dtd_path) in
      let spec = Secview.Spec.of_sidecar_file dtd (need "spec" spec_path) in
      let doc_path = need "doc" doc_path in
      let pipe, snap =
        pinned_session ~strict:false dtd ~groups:[ ("user", spec) ] doc_path
          (load_doc doc_path)
      in
      let env = env_of_bindings bindings in
      List.iter
        (fun qs ->
          let q = parse_query qs in
          for _ = 1 to repeat do
            Result.iter_error
              (fun e -> raise (Secview.Error.E e))
              (Secview.Pipeline.Session.answer_pinned pipe ~group:"user" ~env
                 q snap)
          done)
        queries;
      Sobs.Tracer.uninstall ();
      Sserver.Record.count_stats registry
        (Secview.Pipeline.Session.all_stats pipe);
      if openmetrics then print_string (Sobs.Export.openmetrics registry)
      else if json then
        print_endline (J.to_string (Sobs.Metrics.to_json registry))
      else Format.printf "%a%!" Sobs.Metrics.pp registry
    end
  in
  let repeat_arg =
    Arg.(
      value & opt int 2
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Answer each query $(docv) times, so the translation cache's \
             steady-state behaviour shows up in the counters.")
  in
  let openmetrics_arg =
    Arg.(
      value & flag
      & info [ "openmetrics" ]
          ~doc:
            "Render the registry as OpenMetrics text exposition instead — \
             exactly what a GET /metrics scrape returns.")
  in
  let scrape_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scrape" ] ~docv:"HOST:PORT"
          ~doc:
            "Fetch http://$(docv)/metrics from a server started with \
             --metrics-port and print the body (a curl-free scrape).")
  in
  let watch_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "watch" ] ~docv:"SECS"
          ~doc:
            "Refresh every $(docv) seconds (remote modes only); clears the \
             screen between refreshes when stdout is a terminal.")
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Dump a metrics registry: drive queries through a local pipeline, \
          ask a running server (--socket/--tcp, optionally --watch), or \
          scrape its HTTP endpoint (--scrape)")
    Term.(
      const run $ Arg.value dtd_flag $ root_arg $ Arg.value spec_flag
      $ Arg.value doc_flag $ bind_arg $ repeat_arg
      $ json_arg
          "Dump the registry as JSON instead of text (remote: echo the \
           server's raw metrics reply)."
      $ openmetrics_arg $ remote_t $ scrape_arg $ watch_arg $ iterations_arg
      $ queries_arg)

let main =
  Cmd.group
    (Cmd.info "secview" ~version:"1.0.0"
       ~doc:
         "Secure XML querying with security views (Fan, Chan, Garofalakis, \
          SIGMOD 2004)")
    [
      analyze_cmd; derive_cmd; graph_cmd; audit_cmd; lint_cmd;
      materialize_cmd; metrics_cmd; rewrite_cmd; query_cmd; explain_cmd;
      optimize_cmd; annotate_cmd; gen_cmd; validate_cmd; serve_cmd;
      client_cmd; flight_cmd; top_cmd; replay_cmd; update_cmd;
    ]

let () =
  match Cmd.eval ~catch:false main with
  | code -> exit code
  | exception Secview.Error.E e ->
    Printf.eprintf "secview: %s\n" (Secview.Error.to_string e);
    exit (Secview.Error.exit_code e)
  | exception
      (Failure msg | Invalid_argument msg | Sys_error msg | Conn.Error msg) ->
    Printf.eprintf "secview: %s\n" msg;
    exit 2
  | exception Secview.Rewrite.Unsupported msg ->
    Printf.eprintf "secview: unsupported query: %s\n" msg;
    exit 2
