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

let env_of_bindings bindings name =
  List.assoc_opt name bindings

(* A malformed query is a typed failure, reported as the server reports
   it: "parse error at N: …", exit 2. *)
let parse_query text =
  match Secview.Error.parse_query text with
  | Ok q -> q
  | Error e -> raise (Secview.Error.E e)

(* ---- common options ------------------------------------------------ *)

let dtd_arg =
  let doc = "Document DTD file (<!ELEMENT ...> declarations)." in
  Arg.(required & opt (some file) None & info [ "dtd" ] ~docv:"FILE" ~doc)

let spec_arg =
  let doc = "Access-specification file (see secview --help)." in
  Arg.(required & opt (some file) None & info [ "spec" ] ~docv:"FILE" ~doc)

let doc_arg =
  let doc = "XML document file." in
  Arg.(required & opt (some file) None & info [ "doc" ] ~docv:"FILE" ~doc)

let query_arg =
  let doc = "XPath query (fragment C)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"QUERY" ~doc)

let bind_arg =
  let doc = "Bind a \\$variable used in qualifiers, e.g. --bind wardNo=6." in
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> Error (`Msg "expected NAME=VALUE")
  in
  let print ppf (k, v) = Format.fprintf ppf "%s=%s" k v in
  Arg.(
    value
    & opt_all (conv (parse, print)) []
    & info [ "bind"; "b" ] ~docv:"NAME=VALUE" ~doc)

let root_arg =
  let doc = "Root element type (default: first declared)." in
  Arg.(value & opt (some string) None & info [ "root" ] ~docv:"NAME" ~doc)

let pair_conv ~what =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      Ok (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> Error (`Msg ("expected " ^ what))
  in
  let print ppf (k, v) = Format.fprintf ppf "%s=%s" k v in
  Arg.conv (parse, print)

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

(* groups from --spec (shorthand for user=FILE) plus repeated --group *)
let named_groups ~cmd dtd spec_path group_specs =
  let named =
    (match spec_path with Some p -> [ ("user", p) ] | None -> [])
    @ group_specs
  in
  if named = [] then
    failwith (cmd ^ ": provide --spec FILE and/or --group NAME=SPECFILE");
  List.map (fun (g, p) -> (g, Secview.Spec.of_sidecar_file dtd p)) named

let load_dtd root path = Sdtd.Parse.of_file ?root path

let setup dtd_path root spec_path =
  let dtd = load_dtd root dtd_path in
  let spec = Secview.Spec.of_sidecar_file dtd spec_path in
  (dtd, spec, Secview.Derive.derive spec)

(* ---- commands ------------------------------------------------------ *)

let derive_cmd =
  let run dtd_path root spec_path show_sigma save =
    let _, _, view = setup dtd_path root spec_path in
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
    Term.(const run $ dtd_arg $ root_arg $ spec_arg $ sigma_arg $ save_arg)

let graph_cmd =
  let run dtd_path root spec_path =
    let dtd = load_dtd root dtd_path in
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
  let spec_opt =
    Arg.(
      value
      & opt (some file) None
      & info [ "spec" ] ~docv:"FILE"
          ~doc:
            "Render the specification in Fig. 4's style: bold = accessible, \
             dotted = denied.")
  in
  Cmd.v
    (Cmd.info "graph"
       ~doc:"Render the DTD graph (optionally with a policy) as Graphviz")
    Term.(const run $ dtd_arg $ root_arg $ spec_opt)

let audit_cmd =
  let run dtd_path root spec_path diff_path =
    let dtd = load_dtd root dtd_path in
    let spec = Secview.Spec.of_sidecar_file dtd spec_path in
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
    Term.(const run $ dtd_arg $ root_arg $ spec_arg $ diff_arg)

let materialize_cmd =
  let run dtd_path root spec_path doc_path bindings =
    let dtd, spec, view = setup dtd_path root spec_path in
    let doc = Sxml.Parse.of_file doc_path in
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
    Term.(const run $ dtd_arg $ root_arg $ spec_arg $ doc_arg $ bind_arg)

let view_arg =
  let doc =
    "Load a stored view definition (from 'derive --save') instead of \
     deriving from --spec."
  in
  Arg.(value & opt (some file) None & info [ "view" ] ~docv:"FILE" ~doc)

let spec_opt_arg =
  let doc = "Access-specification file (or use --view)." in
  Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"FILE" ~doc)

let view_of ~dtd_path ~root ~spec_path ~view_path =
  let dtd = load_dtd root dtd_path in
  match (view_path, spec_path) with
  | Some path, _ -> (dtd, Secview.View.of_definition_file path)
  | None, Some spec_path ->
    let spec = Secview.Spec.of_sidecar_file dtd spec_path in
    (dtd, Secview.Derive.derive spec)
  | None, None -> failwith "either --spec or --view is required"

let rewrite_cmd =
  let run dtd_path root spec_path view_path query height optimize =
    let dtd, view = view_of ~dtd_path ~root ~spec_path ~view_path in
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
      const run $ dtd_arg $ root_arg $ spec_opt_arg $ view_arg $ query_arg
      $ height_arg $ optimize_arg)

(* An audit-log path of "-" means stderr, so audit records, lint
   diagnostics and trace output can be collected from one stream. *)
let open_audit_log = function
  | "-" -> Sobs.Audit_log.create Sobs.Audit_log.Stderr
  | path -> Sobs.Audit_log.open_file path

let engine_arg =
  let doc =
    "Execution engine for translated queries: $(b,plan) compiles them to \
     physical plans over the preorder index (falling back to the \
     interpreter outside the plan fragment, see lint SV301), $(b,interp) \
     always runs the set-at-a-time interpreter.  Answers are identical."
  in
  Arg.(
    value
    & opt
        (enum
           [ ("interp", Secview.Pipeline.Interp);
             ("plan", Secview.Pipeline.Plan) ])
        Secview.Pipeline.Plan
    & info [ "engine" ] ~docv:"NAME" ~doc)

let query_cmd =
  let run dtd_path root spec_path doc_path queries bindings approach engine
      indexed stats strict timeout trace trace_out metrics slow_ms audit_log
      capture runtime_events =
    if queries = [] then failwith "query: at least one QUERY is required";
    let observing = trace || metrics || trace_out <> None || slow_ms <> None in
    let registry = Sobs.Metrics.create () in
    let tracer = Sobs.Tracer.create ~metrics:registry () in
    if observing then Sobs.Tracer.install tracer;
    let runtime =
      if runtime_events then Some (Sobs.Runtime.start ()) else None
    in
    let alog = Option.map open_audit_log audit_log in
    (* slow-query records ride the audit log when there is one and a
       private stderr stream otherwise — --slow-ms alone should not
       force full request auditing on *)
    let slow_log =
      match alog with
      | Some a -> a
      | None -> Sobs.Audit_log.create Sobs.Audit_log.Stderr
    in
    let dtd, spec, view = setup dtd_path root spec_path in
    let doc = Sxml.Parse.of_file doc_path in
    let env = env_of_bindings bindings in
    let qs = List.map parse_query queries in
    let index = if indexed then Some (Sxml.Index.build doc) else None in
    (* the server's per-request deadline machinery, applied to the
       whole evaluation; exit 3 on expiry (after flushing the audit
       log, so the trail records what was asked before the cutoff) *)
    let guarded compute =
      match timeout with
      | None -> compute ()
      | Some seconds -> (
        match Sserver.Deadline.run ~seconds compute with
        | Ok r -> r
        | Error `Timeout ->
          Option.iter Sobs.Audit_log.close alog;
          Printf.eprintf "secview: query timed out after %gs\n" seconds;
          exit 3)
    in
    let results =
      guarded @@ fun () ->
      match approach with
      | `Naive ->
        let prepared = Secview.Naive.prepare ~env spec doc in
        let index =
          if indexed then Some (Sxml.Index.build prepared) else None
        in
        let ctx = Sxpath.Eval.Ctx.make ~env ?index ~root:prepared () in
        List.concat_map
          (fun q ->
            Sxpath.Eval.run ctx (Secview.Naive.rewrite_query ~view q))
          qs
      | `Rewrite ->
        let height = Secview.Catalog.element_height doc in
        let ctx = Sxpath.Eval.Ctx.make ~env ?index ~root:doc () in
        List.concat_map
          (fun q ->
            let pt = Secview.Rewrite.rewrite_with_height view ~height q in
            Sxpath.Eval.run ctx pt)
          qs
      | `Optimize ->
        (* the full Fig. 3 loop: rewrite + optimize through the
           pipeline's translation cache *)
        let pipe =
          try
            Secview.Pipeline.Session.create
              (Secview.Pipeline.Service.create ~strict dtd
                 ~groups:[ ("user", spec) ])
          with Invalid_argument msg as e ->
            Option.iter
              (fun a ->
                Sobs.Audit_log.log_note a ~kind:"strict_gate" msg;
                Sobs.Audit_log.close a)
              alog;
            raise e
        in
        let cap = Option.map Sobs.Capture.open_file capture in
        (* each query is one correlated request: a stable rid (q1, q2,
           …) ties the reply and its audit, slow-query and capture
           records together, and — when spans are needed — the query
           runs inside a "request" root span so its stages form one
           hierarchy (Tracer.with_request) *)
        let nq = ref 0 in
        let answers =
          List.concat_map
            (fun (qtext, q) ->
              incr nq;
              let rid = Printf.sprintf "q%d" !nq in
              let t0 = Sserver.Deadline.now () in
              let answer () =
                Secview.Pipeline.Session.answer_outcome pipe ~group:"user"
                  ~engine ~counts:(slow_ms <> None) ~env ?index q doc
              in
              let outcome, spans =
                if slow_ms <> None then Sobs.Tracer.with_request tracer answer
                else (answer (), [])
              in
              let latency_ms = 1000. *. (Sserver.Deadline.now () -. t0) in
              (* the same request record, and the same projections, as
                 a served query — failed queries included *)
              if alog <> None || slow_ms <> None || cap <> None then begin
                let r =
                  {
                    (Sobs.Request.make ~verb:"query" ~group:"user" qtext) with
                    rid = Some rid;
                    bind = bindings;
                    index = indexed;
                    engine = Secview.Pipeline.engine_label engine;
                    latency_ms;
                    gc = Sobs.Request.gc_overlap runtime spans;
                    spans;
                  }
                in
                let r =
                  match outcome with
                  | Ok o ->
                    let rendered =
                      List.map
                        (fun n -> Sxml.Print.to_string n)
                        o.Secview.Pipeline.o_results
                    in
                    {
                      r with
                      results = List.length rendered;
                      digest = Some (Sobs.Capture.digest rendered);
                      counts = o.Secview.Pipeline.o_counts;
                      translated =
                        Some
                          (Sxpath.Print.to_string
                             o.Secview.Pipeline.o_translated);
                    }
                  | Error e ->
                    {
                      r with
                      status = "error";
                      error = Some (Secview.Error.to_string e);
                    }
                in
                (match slow_ms with
                | Some threshold_ms when latency_ms > threshold_ms ->
                  Sobs.Audit_log.log_slow_query slow_log ~threshold_ms r
                | _ -> ());
                Option.iter (fun a -> Sobs.Audit_log.log_request a r) alog;
                Option.iter
                  (fun c ->
                    Option.iter (Sobs.Capture.write c)
                      (Sobs.Capture.of_request r))
                  cap
              end;
              match outcome with
              | Error e -> raise (Secview.Error.E e)
              | Ok o -> o.Secview.Pipeline.o_results)
            (List.combine queries qs)
        in
        Option.iter Sobs.Capture.close cap;
        if stats then
          List.iter
            (fun (g, (s : Secview.Pipeline.stats)) ->
              Printf.eprintf
                "cache[%s]: translation %d hit(s) %d miss(es); plans %d \
                 hit(s) %d miss(es), %d compiled, %d fallback(s)\n"
                g s.Secview.Pipeline.hits s.Secview.Pipeline.misses
                s.Secview.Pipeline.plan_hits s.Secview.Pipeline.plan_misses
                s.Secview.Pipeline.plan_compiles
                s.Secview.Pipeline.plan_fallbacks)
            (Secview.Pipeline.Session.all_stats pipe);
        answers
    in
    List.iter (fun n -> print_endline (Sxml.Print.to_string n)) results;
    if trace then Format.eprintf "%a%!" Sobs.Tracer.pp tracer;
    if metrics then Format.eprintf "%a%!" Sobs.Metrics.pp registry;
    Option.iter
      (fun path ->
        (* GC pause windows become per-domain tracks alongside the
           request spans *)
        let gc =
          match runtime with
          | None -> []
          | Some rt -> Sobs.Runtime.pauses rt
        in
        Sobs.Export.write_chrome_trace ~gc path (Sobs.Tracer.spans tracer))
      trace_out;
    Option.iter Sobs.Runtime.stop runtime;
    Option.iter Sobs.Audit_log.close alog;
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
  let index_arg =
    Arg.(
      value & flag
      & info [ "index" ]
          ~doc:"Build a tag index and use the descendant fast path.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Report the pipeline's translation- and plan-cache statistics \
             on stderr (optimize approach only).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:
            "Refuse to run when the policy or its derived view has lint \
             errors (optimize approach only).")
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
  let slow_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Emit a JSONL slow_query record (translated query, stage \
             timings, plan operator counts) for every query slower than \
             $(docv) milliseconds, to --audit-log's stream or stderr; \
             optimize approach only.")
  in
  let audit_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL request record per query to $(docv) ('-' for \
             stderr); optimize approach only.")
  in
  let queries_arg =
    let doc = "View queries to answer, in order." in
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)
  in
  let capture_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "capture" ] ~docv:"FILE"
          ~doc:
            "Write one replayable JSONL record per query (rid, group, query, \
             engine, answer digest, latency) to $(docv) — feed it to \
             $(b,secview replay); optimize approach only.")
  in
  let runtime_events_arg =
    Arg.(
      value & flag
      & info [ "runtime-events" ]
          ~doc:
            "Consume OCaml runtime events for this run: slow_query records \
             gain gc_pause_ms/gc_pauses (GC pauses overlapping the query's \
             span window, needs --slow-ms) and --trace-out gains per-domain \
             gc:minor / gc:major_slice tracks.")
  in
  Cmd.v
    (Cmd.info "query" ~doc:"Securely evaluate view queries on a document")
    Term.(
      const run $ dtd_arg $ root_arg $ spec_arg $ doc_arg $ queries_arg
      $ bind_arg $ approach_arg $ engine_arg $ index_arg $ stats_arg
      $ strict_arg $ timeout_arg $ trace_arg $ trace_out_arg $ metrics_arg
      $ slow_ms_arg $ audit_log_arg $ capture_arg $ runtime_events_arg)

let explain_cmd =
  let run dtd_path root spec_path group_specs doc_path bindings json group
      query =
    let dtd = load_dtd root dtd_path in
    let groups = named_groups ~cmd:"explain" dtd spec_path group_specs in
    let pipe =
      Secview.Pipeline.Session.create (Secview.Pipeline.Service.create dtd ~groups)
    in
    let doc = Sxml.Parse.of_file doc_path in
    let env = env_of_bindings bindings in
    let q = parse_query query in
    match Secview.Pipeline.Session.explain pipe ~group ~env q doc with
    | Error e -> raise (Secview.Error.E e)
    | Ok x ->
      let engine_name =
        if x.Secview.Pipeline.x_plan <> None then "plan" else "interp"
      in
      let translated =
        Sxpath.Print.to_string x.Secview.Pipeline.x_translated
      in
      let admission_name =
        Secview.Pipeline.admission_label x.Secview.Pipeline.x_admission
      in
      if json then
        let j =
          Sobs.Json.Obj
            [
              ("query", Sobs.Json.String query);
              ("admission", Sobs.Json.String admission_name);
              ( "witness",
                match x.Secview.Pipeline.x_admission with
                | Secview.Pipeline.Denied_empty w -> Sobs.Json.String w
                | _ -> Sobs.Json.Null );
              ("translated", Sobs.Json.String translated);
              ("engine", Sobs.Json.String engine_name);
              ( "height",
                match x.Secview.Pipeline.x_height with
                | Some h -> Sobs.Json.Int h
                | None -> Sobs.Json.Null );
              ( "fallback",
                match x.Secview.Pipeline.x_fallback with
                | Some r -> Sobs.Json.String r
                | None -> Sobs.Json.Null );
              ("results", Sobs.Json.Int x.Secview.Pipeline.x_results);
              ( "doc_version",
                Sobs.Json.Int x.Secview.Pipeline.x_doc_version );
              ( "generation",
                Sobs.Json.Int x.Secview.Pipeline.x_generation );
              ( "plan",
                match x.Secview.Pipeline.x_plan with
                | Some (compiled, stats) ->
                  Sserver.Protocol.explain_json
                    (Splan.Explain.of_compiled compiled stats)
                | None -> Sobs.Json.Null );
            ]
        in
        print_endline (Sobs.Json.to_string j)
      else begin
        Printf.printf "query:      %s\n" query;
        (match x.Secview.Pipeline.x_admission with
        | Secview.Pipeline.Denied_empty w ->
          Printf.printf "admission:  denied — %s\n" w
        | _ -> Printf.printf "admission:  %s\n" admission_name);
        Printf.printf "translated: %s\n" translated;
        (match x.Secview.Pipeline.x_height with
        | Some h -> Printf.printf "height:     %d\n" h
        | None -> ());
        Printf.printf "engine:     %s\n" engine_name;
        (match x.Secview.Pipeline.x_fallback with
        | Some r -> Printf.printf "fallback:   %s\n" r
        | None -> ());
        Printf.printf "results:    %d\n" x.Secview.Pipeline.x_results;
        Printf.printf "doc version: %d  (writes admitted %d)\n"
          x.Secview.Pipeline.x_doc_version x.Secview.Pipeline.x_generation;
        match x.Secview.Pipeline.x_plan with
        | Some (compiled, stats) ->
          print_newline ();
          Format.printf "%a%!" Splan.Explain.pp
            (Splan.Explain.of_compiled compiled stats)
        | None -> ()
      end
  in
  let group_pos_arg =
    let doc = "User group whose security view answers the query." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"GROUP" ~doc)
  in
  let query_pos_arg =
    let doc = "View query (fragment C) to explain." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"QUERY" ~doc)
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable output: one JSON object with the plan tree \
             nested under \"plan\" (the server's explain reply, minus the \
             envelope).")
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Translate a view query, run it once, and show the physical plan \
          with per-operator work counters (or the interpreter-fallback \
          reason)")
    Term.(
      const run $ dtd_arg $ root_arg $ spec_opt_arg $ group_specs_arg
      $ doc_arg $ bind_arg $ json_arg $ group_pos_arg $ query_pos_arg)

let lint_cmd =
  let run dtd_path root spec_path view_path machine audit_log queries =
    let dtd = load_dtd root dtd_path in
    let spec = Option.map (Secview.Spec.of_sidecar_file dtd) spec_path in
    let view = Option.map Secview.View.of_definition_file view_path in
    let queries = List.map (fun q -> (q, parse_query q)) queries in
    let ds = Sanalysis.Lint.check_all ~dtd ?spec ?view ~queries () in
    (match audit_log with
    | None -> ()
    | Some path ->
      let alog = open_audit_log path in
      List.iter
        (fun (d : Sanalysis.Diagnostic.t) ->
          Sobs.Audit_log.log_diagnostic alog ~code:d.code
            ~severity:(Sanalysis.Diagnostic.severity_label d.severity)
            ~subject:(Sanalysis.Diagnostic.subject_label d.subject)
            d.message)
        (Sanalysis.Diagnostic.by_severity ds);
      Sobs.Audit_log.close alog);
    if machine then
      List.iter
        (fun d -> print_endline (Sanalysis.Diagnostic.to_line d))
        (Sanalysis.Diagnostic.by_severity ds)
    else if ds = [] then print_endline "no diagnostics"
    else Format.printf "%a" Sanalysis.Diagnostic.pp_report ds;
    exit (if Sanalysis.Diagnostic.has_errors ds then 1 else 0)
  in
  let machine_arg =
    Arg.(
      value & flag
      & info [ "machine" ]
          ~doc:
            "One tab-separated record per diagnostic \
             (CODE, SEVERITY, SUBJECT, MESSAGE) instead of prose.")
  in
  let audit_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit-log" ] ~docv:"FILE"
          ~doc:
            "Also append the diagnostics as JSONL records to $(docv) ('-' \
             for stderr) — the same stream format the query audit log \
             uses.")
  in
  let queries_arg =
    let doc = "View queries to lint against the view DTD." in
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Statically analyse a policy, a stored view and/or view queries; \
          exit 1 on any error-severity diagnostic")
    Term.(
      const run $ dtd_arg $ root_arg $ spec_opt_arg $ view_arg $ machine_arg
      $ audit_log_arg $ queries_arg)

let analyze_cmd =
  let run dtd_path root spec_path group_specs fleet json machine audit_log
      queries =
    let dtd = load_dtd root dtd_path in
    let named = named_groups ~cmd:"analyze" dtd spec_path group_specs in
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
          let vdtd = Secview.View.dtd v in
          List.map
            (fun (qt, q) -> (g, qt, Sanalysis.Semantic.admission vdtd q))
            queries)
        groups
    in
    (match audit_log with
    | None -> ()
    | Some path ->
      let alog = open_audit_log path in
      List.iter
        (fun (d : Sanalysis.Diagnostic.t) ->
          Sobs.Audit_log.log_diagnostic alog ~code:d.code
            ~severity:(Sanalysis.Diagnostic.severity_label d.severity)
            ~subject:(Sanalysis.Diagnostic.subject_label d.subject)
            d.message)
        (Sanalysis.Diagnostic.by_severity ds);
      Sobs.Audit_log.close alog);
    if json then begin
      let relation_json (c : Sanalysis.Semantic.comparison) =
        Sobs.Json.Obj
          ([
             ("left", Sobs.Json.String c.cmp_left);
             ("right", Sobs.Json.String c.cmp_right);
             ( "relation",
               Sobs.Json.String
                 (Sanalysis.Semantic.relation_label c.cmp_relation) );
             ( "overlap",
               match c.cmp_overlap with
               | Some l -> Sobs.Json.String l
               | None -> Sobs.Json.Null );
           ]
          @
          match c.cmp_relation with
          | Sanalysis.Semantic.Unknown why ->
            [ ("note", Sobs.Json.String why) ]
          | _ -> [])
      in
      let diag_json (d : Sanalysis.Diagnostic.t) =
        Sobs.Json.Obj
          [
            ("code", Sobs.Json.String d.code);
            ( "severity",
              Sobs.Json.String
                (Sanalysis.Diagnostic.severity_label d.severity) );
            ( "subject",
              Sobs.Json.String (Sanalysis.Diagnostic.subject_label d.subject)
            );
            ("message", Sobs.Json.String d.message);
          ]
      in
      let verdict_json (g, qt, v) =
        Sobs.Json.Obj
          [
            ("group", Sobs.Json.String g);
            ("query", Sobs.Json.String qt);
            ( "verdict",
              Sobs.Json.String (Secview.Pipeline.admission_label v) );
            ( "witness",
              match v with
              | Secview.Pipeline.Denied_empty w -> Sobs.Json.String w
              | _ -> Sobs.Json.Null );
          ]
      in
      print_endline
        (Sobs.Json.to_string
           (Sobs.Json.Obj
              [
                ( "groups",
                  Sobs.Json.List
                    (List.map (fun (g, _) -> Sobs.Json.String g) groups) );
                ( "comparisons",
                  Sobs.Json.List (List.map relation_json comparisons) );
                ( "diagnostics",
                  Sobs.Json.List
                    (List.map diag_json (Sanalysis.Diagnostic.by_severity ds))
                );
                ("admission", Sobs.Json.List (List.map verdict_json verdicts));
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
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "One JSON object with the comparisons, diagnostics and \
             per-query admission verdicts.")
  in
  let machine_arg =
    Arg.(
      value & flag
      & info [ "machine" ]
          ~doc:
            "One tab-separated record per diagnostic \
             (CODE, SEVERITY, SUBJECT, MESSAGE) instead of prose.")
  in
  let audit_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit-log" ] ~docv:"FILE"
          ~doc:
            "Also append the diagnostics as JSONL records to $(docv) ('-' \
             for stderr) — the same stream format the query audit log \
             uses.")
  in
  let queries_arg =
    let doc =
      "View queries to classify statically against each group's view DTD \
       (denied/trivial/eval)."
    in
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Semantic policy analysis: cross-group subsumption (--fleet), \
          leakage of never-populatable view structure, and static \
          admission verdicts for queries; exit 1 on any error-severity \
          diagnostic")
    Term.(
      const run $ dtd_arg $ root_arg $ spec_opt_arg $ group_specs_arg
      $ fleet_arg $ json_arg $ machine_arg $ audit_log_arg $ queries_arg)

let optimize_cmd =
  let run dtd_path root query =
    let dtd = load_dtd root dtd_path in
    let q = parse_query query in
    print_endline (Sxpath.Print.to_string (Secview.Optimize.optimize dtd q))
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Optimize a document query against DTD constraints")
    Term.(const run $ dtd_arg $ root_arg $ query_arg)

let annotate_cmd =
  let run dtd_path root spec_path doc_path bindings =
    let _, spec, _ = setup dtd_path root spec_path in
    let doc = Sxml.Parse.of_file doc_path in
    let env = env_of_bindings bindings in
    let prepared = Secview.Naive.prepare ~env spec doc in
    print_endline (Sxml.Print.to_string ~indent:true prepared)
  in
  Cmd.v
    (Cmd.info "annotate"
       ~doc:
         "Stamp @accessibility attributes on a document (the naive \
          baseline's offline step)")
    Term.(const run $ dtd_arg $ root_arg $ spec_arg $ doc_arg $ bind_arg)

let gen_cmd =
  let run dtd_path root seed star_max depth =
    let dtd = load_dtd root dtd_path in
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
    Term.(const run $ dtd_arg $ root_arg $ seed_arg $ star_arg $ depth_arg)

let validate_cmd =
  let run dtd_path root doc_path =
    let dtd = load_dtd root dtd_path in
    let doc = Sxml.Parse.of_file doc_path in
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
    Term.(const run $ dtd_arg $ root_arg $ doc_arg)

(* ---- secure updates ------------------------------------------------ *)

let update_cmd =
  let run dtd_path root spec_path group_specs doc_path bindings out audit_log
      capture json group update_text =
    let dtd = load_dtd root dtd_path in
    let groups = named_groups ~cmd:"update" dtd spec_path group_specs in
    let catalog = Secview.Catalog.create () in
    let entry = Secview.Catalog.add_file catalog ~name:"doc" doc_path in
    let svc = Secview.Pipeline.Service.create ~catalog dtd ~groups in
    let env = env_of_bindings bindings in
    let alog = Option.map (fun p -> open_audit_log p) audit_log in
    (* the admission check's id-bearing denial detail belongs in the
       audit log, never in the error shown to the requesting group *)
    let detail = ref None in
    let t0 = Sserver.Deadline.now () in
    let outcome =
      Supdate.Engine.apply_text svc ~group ~env
        ~audit:(fun d -> detail := Some d)
        ~entry update_text
    in
    let latency_ms = 1000. *. (Sserver.Deadline.now () -. t0) in
    (* one request record, projected into the audit log and the
       capture exactly as the server projects a served write *)
    let r =
      {
        (Sobs.Request.make ~verb:"update" ~group update_text) with
        rid = Some "u1";
        doc_label = Some "doc";
        bind = bindings;
        engine = "interp";
        latency_ms;
      }
    in
    let r =
      match outcome with
      | Ok rc ->
        {
          r with
          results = rc.Supdate.Engine.r_targets;
          digest = Some rc.Supdate.Engine.r_view_digest;
          write =
            Some
              {
                targets = rc.Supdate.Engine.r_targets;
                old_version = rc.Supdate.Engine.r_old_version;
                new_version = rc.Supdate.Engine.r_new_version;
              };
        }
      | Error e ->
        {
          r with
          status = "error";
          error =
            Some
              (match !detail with
              | Some d -> Secview.Error.to_string e ^ " [" ^ d ^ "]"
              | None -> Secview.Error.to_string e);
        }
    in
    Option.iter
      (fun a ->
        Sobs.Audit_log.log_update a r;
        Sobs.Audit_log.close a)
      alog;
    Option.iter
      (fun path ->
        Option.iter
          (fun c ->
            let cap = Sobs.Capture.open_file path in
            Sobs.Capture.write cap c;
            Sobs.Capture.close cap)
          (Sobs.Capture.of_request r))
      capture;
    match outcome with
    | Error e -> raise (Secview.Error.E e)
    | Ok rc ->
      let digest = rc.Supdate.Engine.r_view_digest in
      (match out with
      | Some path ->
        Sxml.Print.to_file ~indent:true path rc.Supdate.Engine.r_doc
      | None -> ());
      if json then
        print_endline
          (Sobs.Json.to_string
             (Sobs.Json.Obj
                [
                  ("op", Sobs.Json.String rc.Supdate.Engine.r_op);
                  ("targets", Sobs.Json.Int rc.Supdate.Engine.r_targets);
                  ( "old_version",
                    Sobs.Json.Int rc.Supdate.Engine.r_old_version );
                  ( "new_version",
                    Sobs.Json.Int rc.Supdate.Engine.r_new_version );
                  ("digest", Sobs.Json.String digest);
                ]))
      else begin
        Printf.printf "op:       %s\n" rc.Supdate.Engine.r_op;
        Printf.printf "targets:  %d\n" rc.Supdate.Engine.r_targets;
        Printf.printf "version:  %d -> %d\n" rc.Supdate.Engine.r_old_version
          rc.Supdate.Engine.r_new_version;
        Printf.printf "digest:   %s\n" digest
      end
  in
  let group_pos_arg =
    let doc = "User group attempting the write." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"GROUP" ~doc)
  in
  let update_pos_arg =
    let doc =
      "The update: 'insert into|before|after PATH CONTENT', 'delete PATH', \
       or 'replace PATH with CONTENT' (PATH is fragment-C XPath over the \
       group's view; CONTENT is an XML fragment)."
    in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"UPDATE" ~doc)
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Write the updated document to $(docv) (the input file is never \
             modified in place).")
  in
  let audit_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL update/update_denied record to $(docv) ('-' \
             for stderr).")
  in
  let capture_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "capture" ] ~docv:"FILE"
          ~doc:
            "Append a replayable \"v\":2 update record (verb, group, update \
             text, digest of the group's view of the result) to $(docv) on \
             success.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Machine-readable receipt: op, target count, version transition \
             and the digest of the group's view of the result as one JSON \
             object.")
  in
  Cmd.v
    (Cmd.info "update"
       ~doc:
         "Run a secure view update against a document: the write is \
          admitted only when the target and every node it touches are \
          accessible to the group and the group holds the matching write \
          grant; a rejected update changes nothing")
    Term.(
      const run $ dtd_arg $ root_arg $ spec_opt_arg $ group_specs_arg
      $ doc_arg $ bind_arg $ out_arg $ audit_log_arg $ capture_arg $ json_arg
      $ group_pos_arg $ update_pos_arg)

(* ---- server and client --------------------------------------------- *)

let socket_arg =
  let doc = "Listen on (or connect to) a Unix-domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Listen on (or connect to) TCP port $(docv)." in
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

let host_arg =
  let doc = "Host for --tcp (default: loopback)." in
  Arg.(value & opt string "" & info [ "host" ] ~docv:"HOST" ~doc)

let serve_cmd =
  let run dtd_path root spec_path group_specs docs socket tcp host domains
      queue deadline engine audit_log debug strict preload slow_ms
      metrics_port no_admission flight flight_snapshot capture runtime_events =
    let dtd = load_dtd root dtd_path in
    let groups = named_groups ~cmd:"serve" dtd spec_path group_specs in
    if docs = [] then
      failwith "serve: at least one --doc NAME=FILE is required";
    let catalog = Secview.Catalog.create () in
    List.iter
      (fun (n, p) -> ignore (Secview.Catalog.add_file catalog ~name:n p))
      docs;
    if preload then
      List.iter
        (fun e -> ignore (Secview.Catalog.doc e))
        (Secview.Catalog.entries catalog);
    let service =
      Secview.Pipeline.Service.create ~strict ~catalog dtd ~groups
    in
    (* one registry for everything a scrape should see; the tracer
       (installed only when something consumes stage timings) feeds the
       per-stage latency series into it *)
    let registry = Sobs.Metrics.create () in
    let tracer =
      if slow_ms <> None || metrics_port <> None || flight > 0 then begin
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
    if flight <= 0 && flight_snapshot <> None then
      failwith "serve: --flight-snapshot requires --flight N";
    (* started here, owned by the server from create on: serve stops
       it when the drain completes *)
    let runtime =
      if runtime_events then Some (Sobs.Runtime.start ()) else None
    in
    let cap = Option.map Sobs.Capture.open_file capture in
    let alog =
      match (audit_log, slow_ms) with
      | Some p, _ -> Some (open_audit_log p)
      | None, Some _ ->
        (* a slow-query threshold without a log would observe and then
           say nothing: default the trail to stderr *)
        Some (Sobs.Audit_log.create Sobs.Audit_log.Stderr)
      | None, None -> None
    in
    let config =
      { Sserver.Server.domains; queue_capacity = queue; deadline; debug;
        engine; slow_ms; admission = not no_admission }
    in
    let server =
      Sserver.Server.create ~config ?audit:alog ~metrics:registry ?tracer
        ?recorder ?runtime ?flight_snapshot ?capture:cap service
    in
    let listeners =
      (match socket with
      | Some p -> [ Sserver.Server.Unix_socket p ]
      | None -> [])
      @ (match tcp with
        | Some p -> [ Sserver.Server.Tcp (host, p) ]
        | None -> [])
      @
      match metrics_port with
      | Some p -> [ Sserver.Server.Metrics_http (host, p) ]
      | None -> []
    in
    if listeners = [] then
      failwith "serve: provide --socket PATH and/or --tcp PORT";
    Sserver.Server.install_sigint server;
    List.iter
      (function
        | Sserver.Server.Unix_socket p ->
          Printf.eprintf "secview: listening on %s\n%!" p
        | Sserver.Server.Tcp (h, p) ->
          Printf.eprintf "secview: listening on %s:%d\n%!"
            (if h = "" then "127.0.0.1" else h)
            p
        | Sserver.Server.Metrics_http (h, p) ->
          Printf.eprintf "secview: metrics on http://%s:%d/metrics\n%!"
            (if h = "" then "127.0.0.1" else h)
            p)
      listeners;
    Sserver.Server.serve server listeners;
    (match tracer with Some _ -> Sobs.Tracer.uninstall () | None -> ());
    Printf.eprintf "secview: drained\n%!"
  in
  let docs_arg =
    let doc =
      "Add document $(i,FILE) to the catalog as $(i,NAME) (repeatable; \
       parsed lazily on first query unless --preload)."
    in
    Arg.(
      value
      & opt_all (pair_conv ~what:"NAME=FILE") []
      & info [ "doc" ] ~docv:"NAME=FILE" ~doc)
  in
  let domains_arg =
    Arg.(
      value
      & opt int Sserver.Server.default_config.domains
      & info [ "domains"; "workers" ] ~docv:"N"
          ~absent:"the number of cores (Domain.recommended_domain_count)"
          ~doc:
            "Worker pool size: one OCaml domain (runtime-parallel worker) \
             per unit, each with its own pipeline session; more domains \
             than cores only add cross-domain hand-offs.  --workers is an \
             alias kept from the threaded server.")
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
  let audit_log_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "audit-log" ] ~docv:"FILE"
          ~doc:
            "Append one JSONL record per admitted query to $(docv) ('-' for \
             stderr), flushed before the server exits.")
  in
  let debug_arg =
    Arg.(
      value & flag
      & info [ "debug" ]
          ~doc:"Honour the 'sleep' test command (never in production).")
  in
  let strict_arg =
    Arg.(
      value & flag
      & info [ "strict" ]
          ~doc:"Refuse to start when any group's policy has lint errors.")
  in
  let preload_arg =
    Arg.(
      value & flag
      & info [ "preload" ]
          ~doc:"Parse every catalog document before accepting connections.")
  in
  let slow_ms_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Write a slow_query audit record (translated query, per-stage \
             timings, plan operator counts) for every answered query slower \
             than $(docv) milliseconds, queue wait included; defaults the \
             audit log to stderr when --audit-log is not given.")
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
  let no_admission_arg =
    Arg.(
      value & flag
      & info [ "no-admission" ]
          ~doc:
            "Disable the static admission fast path: by default, queries \
             the analyzer proves empty against the group's view DTD are \
             answered with the empty result set on the connection thread, \
             without queueing, planning or touching the document.")
  in
  let flight_arg =
    Arg.(
      value & opt int 0
      & info [ "flight" ] ~docv:"N"
          ~doc:
            "Keep an in-memory flight recorder of the last $(docv) completed \
             requests (rid, principal, query, doc version, engine, span \
             tree, operator counts, answer digest, outcome) — dump it with \
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
  let capture_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "capture" ] ~docv:"FILE"
          ~doc:
            "Write one replayable JSONL record per answered query (rid, \
             group, query, engine, answer digest, latency) to $(docv) — \
             feed it to $(b,secview replay).")
  in
  let runtime_events_arg =
    Arg.(
      value & flag
      & info [ "runtime-events" ]
          ~doc:
            "Consume OCaml runtime events: per-domain GC pause histograms \
             (gc_pause_seconds), collection/allocation counters and live-\
             domain gauges in every scrape, a 'runtime' section in the \
             stats verb, and gc_pause_ms attribution stamped into flight-\
             recorder entries and slow_query records whose request window \
             overlapped a pause.  Off by default (a disabled consumer \
             costs nothing).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the concurrent secure-query server (line-delimited JSON over \
          Unix-domain and/or TCP sockets; SIGINT drains gracefully)")
    Term.(
      const run $ dtd_arg $ root_arg $ spec_opt_arg $ group_specs_arg
      $ docs_arg $ socket_arg $ tcp_arg $ host_arg $ domains_arg $ queue_arg
      $ deadline_arg $ engine_arg $ audit_log_arg $ debug_arg $ strict_arg
      $ preload_arg $ slow_ms_arg $ metrics_port_arg $ no_admission_arg
      $ flight_arg $ flight_snapshot_arg $ capture_arg $ runtime_events_arg)

let client_cmd =
  let run socket tcp host wait group peer doc_name bindings indexed ping
      do_stats shutdown raws updates queries =
    let addr =
      match (socket, tcp) with
      | Some path, None -> Unix.ADDR_UNIX path
      | None, Some port ->
        let inet =
          if host = "" then Unix.inet_addr_loopback
          else
            try Unix.inet_addr_of_string host
            with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
        in
        Unix.ADDR_INET (inet, port)
      | _ -> failwith "client: provide exactly one of --socket or --tcp"
    in
    let give_up = Sserver.Deadline.now () +. wait in
    let rec connect () =
      let fd =
        Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0
      in
      match Unix.connect fd addr with
      | () -> fd
      | exception
          Unix.Unix_error
            ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ETIMEDOUT), _, _)
        when Sserver.Deadline.now () < give_up ->
        Unix.close fd;
        Thread.delay 0.05;
        connect ()
    in
    let fd = connect () in
    let ic = Unix.in_channel_of_descr fd in
    let send_line line =
      let b = Bytes.of_string (line ^ "\n") in
      let rec go off =
        if off < Bytes.length b then
          go (off + Unix.write fd b off (Bytes.length b - off))
      in
      go 0
    in
    let send j = send_line (Sobs.Json.to_string j) in
    let recv () =
      let line = input_line ic in
      match Sobs.Json.of_string line with
      | Ok j -> (line, j)
      | Error e -> failwith (Printf.sprintf "client: bad reply (%s): %s" e line)
    in
    let failed = ref false in
    let check_ok what (line, j) =
      match Sobs.Json.member "ok" j with
      | Some (Sobs.Json.Bool true) -> true
      | _ ->
        failed := true;
        Printf.eprintf "secview: %s failed: %s\n" what line;
        false
    in
    if ping then begin
      send (Sserver.Protocol.simple "ping");
      if check_ok "ping" (recv ()) then print_endline "pong"
    end;
    (* raw lines go out verbatim and the reply is echoed verbatim —
       the escape hatch for demonstrating protocol errors *)
    List.iter
      (fun raw ->
        send_line raw;
        print_endline (input_line ic))
      raws;
    (match group with
    | Some g ->
      send (Sserver.Protocol.hello ?peer g);
      ignore (check_ok "hello" (recv ()))
    | None -> ());
    List.iter
      (fun u ->
        send (Sserver.Protocol.update_json ?doc:doc_name ~bind:bindings u);
        let (_, j) as r = recv () in
        if check_ok (Printf.sprintf "update %S" u) r then
          let geti name =
            match
              Option.bind (Sobs.Json.member name j) Sobs.Json.to_int_opt
            with
            | Some n -> n
            | None -> 0
          in
          Printf.printf "update ok: %d target(s), version %d -> %d\n"
            (geti "targets") (geti "old_version") (geti "new_version"))
      updates;
    List.iter
      (fun q ->
        send
          (Sserver.Protocol.query_json ?doc:doc_name ~bind:bindings
             ~use_index:indexed q);
        let (_, j) as r = recv () in
        if check_ok (Printf.sprintf "query %S" q) r then
          match Sobs.Json.member "results" j with
          | Some (Sobs.Json.List rs) ->
            List.iter
              (fun r ->
                Option.iter print_endline (Sobs.Json.to_string_opt r))
              rs
          | _ -> ())
      queries;
    if do_stats then begin
      send (Sserver.Protocol.simple "stats");
      let line, _ = recv () in
      print_endline line
    end;
    if shutdown then begin
      send (Sserver.Protocol.simple "shutdown");
      ignore (check_ok "shutdown" (recv ()))
    end;
    close_in_noerr ic;
    if !failed then exit 1
  in
  let wait_arg =
    Arg.(
      value & opt float 0.
      & info [ "wait" ] ~docv:"SECS"
          ~doc:
            "Retry the connection for up to $(docv) seconds (for scripts \
             that just started the server).")
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
  let index_arg =
    Arg.(
      value & flag
      & info [ "index" ] ~doc:"Ask the server to evaluate with a tag index.")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Check liveness first.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the server's statistics object after the queries.")
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
  let queries_arg =
    let doc = "View queries to answer, in order." in
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running secview server (exit 1 if any request is \
          refused)")
    Term.(
      const run $ socket_arg $ tcp_arg $ host_arg $ wait_arg $ group_arg
      $ peer_arg $ doc_name_arg $ bind_arg $ index_arg $ ping_arg $ stats_arg
      $ shutdown_arg $ send_arg $ updates_arg $ queries_arg)

(* ---- flight recorder and replay ------------------------------------ *)

(* shared one-shot connection plumbing for the flight/replay commands *)
let remote_addr ~cmd socket tcp host =
  match (socket, tcp) with
  | Some path, None -> Unix.ADDR_UNIX path
  | None, Some port ->
    let inet =
      if host = "" then Unix.inet_addr_loopback
      else
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
    in
    Unix.ADDR_INET (inet, port)
  | _ -> failwith (cmd ^ ": provide exactly one of --socket or --tcp")

let connect_retry ~wait addr =
  let give_up = Sserver.Deadline.now () +. wait in
  let rec connect () =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> fd
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.ETIMEDOUT), _, _)
      when Sserver.Deadline.now () < give_up ->
      Unix.close fd;
      Thread.delay 0.05;
      connect ()
  in
  connect ()

let fd_send_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let wait_retry_arg ~cmd =
  Arg.(
    value & opt float 0.
    & info [ "wait" ] ~docv:"SECS"
        ~doc:
          (Printf.sprintf
             "Retry the connection for up to $(docv) seconds (for scripts \
              that just started the server the %s talks to)."
             cmd))

(* Watch-mode refresh, shared by [metrics --watch] and [top].  On a
   real terminal each frame repaints in place: home the cursor, paint,
   then clear whatever the previous (longer) frame left below — a
   redraw with no flicker and no scrollback spam.  Piped output (cram
   tests, shell captures) still gets plain concatenation.  SIGINT ends
   the loop between writes instead of killing the process mid-frame:
   the handler only flips a flag, the loop notices it at the next
   check, restores the previous handler and returns — so the command
   exits 0 with the terminal in a sane state. *)
let watch_stop = ref false

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
          if tty then
            (* full clear once, then home-paint-clear-to-end *)
            print_string (if !i = 1 then "\027[2J\027[H" else "\027[H");
          print_string frame;
          if tty then print_string "\027[0J";
          flush stdout;
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
  let run socket tcp host wait json =
    let addr = remote_addr ~cmd:"flight" socket tcp host in
    let fd = connect_retry ~wait addr in
    let ic = Unix.in_channel_of_descr fd in
    Fun.protect
      ~finally:(fun () -> try close_in ic with Sys_error _ -> ())
      (fun () ->
        fd_send_line fd
          (Sobs.Json.to_string (Sserver.Protocol.simple "flight"));
        let line = input_line ic in
        let j =
          match Sobs.Json.of_string line with
          | Ok j -> j
          | Error e ->
            failwith (Printf.sprintf "flight: bad reply (%s): %s" e line)
        in
        (match Sobs.Json.member "ok" j with
        | Some (Sobs.Json.Bool true) -> ()
        | _ -> failwith ("flight: request failed: " ^ line));
        if json then print_endline line
        else begin
          let geti obj name =
            match
              Option.bind (Sobs.Json.member name obj) Sobs.Json.to_int_opt
            with
            | Some n -> n
            | None -> 0
          in
          Printf.printf "flight recorder: %d/%d entries, %d recorded\n"
            (geti j "flight") (geti j "capacity") (geti j "total");
          match Sobs.Json.member "entries" j with
          | Some (Sobs.Json.List es) ->
            List.iter
              (fun e ->
                let sopt name =
                  Option.bind (Sobs.Json.member name e) Sobs.Json.to_string_opt
                in
                let str name = Option.value ~default:"-" (sopt name) in
                let lat =
                  match
                    Option.bind
                      (Sobs.Json.member "latency_ms" e)
                      Sobs.Json.to_float_opt
                  with
                  | Some f -> f
                  | None -> 0.
                in
                Printf.printf "%-10s %-8s %-10s %-12s %4d  %8.3f ms  %s%s\n"
                  (str "rid")
                  (Option.value ~default:"query" (sopt "verb"))
                  (str "group") (str "status") (geti e "results")
                  lat (str "query")
                  (match sopt "error" with
                  | Some err -> "  ! " ^ err
                  | None -> ""))
              es
          | _ -> ()
        end)
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Echo the server's raw flight reply instead.")
  in
  Cmd.v
    (Cmd.info "flight"
       ~doc:
         "Dump a running server's in-memory flight recorder (start it with \
          --flight N): one line per retained request — rid, group, outcome, \
          result count, latency, query")
    Term.(
      const run $ socket_arg $ tcp_arg $ host_arg $ wait_retry_arg ~cmd:"dump"
      $ json_arg)

let top_cmd =
  (* json probes, all total — a missing field renders as zero rather
     than tearing the dashboard down mid-refresh *)
  let geti j name =
    match Option.bind (Sobs.Json.member name j) Sobs.Json.to_int_opt with
    | Some n -> n
    | None -> 0
  in
  let getf j name =
    match Option.bind (Sobs.Json.member name j) Sobs.Json.to_float_opt with
    | Some f -> f
    | None -> 0.
  in
  let fields = function Some (Sobs.Json.Obj fs) -> fs | _ -> [] in
  let hms seconds =
    let s = int_of_float seconds in
    Printf.sprintf "%d:%02d:%02d" (s / 3600) (s mod 3600 / 60) (s mod 60)
  in
  let pct hits misses =
    let total = hits + misses in
    if total = 0 then "    -"
    else Printf.sprintf "%5.1f" (100. *. float_of_int hits /. float_of_int total)
  in
  let run socket tcp host wait interval iterations =
    let addr = remote_addr ~cmd:"top" socket tcp host in
    (* --wait applies to the first connection only: once the dashboard
       is up, a vanished server is an error, not something to retry *)
    let first = ref true in
    let fetch_stats () =
      let w = if !first then wait else 0. in
      first := false;
      let fd = connect_retry ~wait:w addr in
      let ic = Unix.in_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try close_in ic with Sys_error _ -> ())
        (fun () ->
          fd_send_line fd
            (Sobs.Json.to_string (Sserver.Protocol.simple "stats"));
          let line = input_line ic in
          match Sobs.Json.of_string line with
          | Error e ->
            failwith (Printf.sprintf "top: bad reply (%s): %s" e line)
          | Ok j -> (
            match Sobs.Json.member "ok" j with
            | Some (Sobs.Json.Bool true) -> j
            | _ -> failwith ("top: stats failed: " ^ line)))
    in
    (* rps is the accepted-counter delta between two refreshes; the
       first frame falls back to the lifetime average *)
    let prev = ref None in
    let render () =
      let j = fetch_stats () in
      let now = Sserver.Deadline.now () in
      let counters = Option.value ~default:Sobs.Json.Null
          (Sobs.Json.member "counters" j) in
      let accepted = geti counters "server.accepted" in
      let uptime = getf j "uptime_s" in
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
              acc + Option.value ~default:0 (Sobs.Json.to_int_opt v)
            else acc)
          0 (fields (Some counters))
      in
      let queue = Option.value ~default:Sobs.Json.Null
          (Sobs.Json.member "queue" j) in
      let b = Buffer.create 1024 in
      let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
      line "secview top — up %s   %d worker(s), %d busy   queue %d/%d"
        (hms uptime) (geti j "workers") (geti j "workers_busy")
        (geti queue "length") (geti queue "capacity");
      line "requests: %.1f rps   accepted %d   timeouts %d   rejected %d"
        rps accepted (geti counters "server.timeout") rejected;
      line "";
      (* one row per group: latency quantiles + cache hit rates +
         admission denials, joined across the reply's sections *)
      let latency = Sobs.Json.member "latency_ms" j in
      let cache = Sobs.Json.member "cache" j in
      let admission = Sobs.Json.member "admission" j in
      let groups =
        List.sort_uniq compare
          (List.map fst (fields latency) @ List.map fst (fields cache))
      in
      line "%-12s %8s %9s %9s %7s %6s %7s" "group" "count" "p50ms" "p95ms"
        "cache%" "plan%" "denied";
      List.iter
        (fun g ->
          let l = Option.value ~default:Sobs.Json.Null
              (Option.bind latency (Sobs.Json.member g)) in
          let c = Option.value ~default:Sobs.Json.Null
              (Option.bind cache (Sobs.Json.member g)) in
          let a = Option.value ~default:Sobs.Json.Null
              (Option.bind admission (Sobs.Json.member g)) in
          line "%-12s %8d %9.3f %9.3f %7s %6s %7d" g (geti l "count")
            (getf l "p50") (getf l "p95")
            (pct (geti c "hits") (geti c "misses"))
            (pct (geti c "plan_hits") (geti c "plan_misses"))
            (geti a "denied"))
        groups;
      line "";
      (match Sobs.Json.member "runtime" j with
      | Some rt
        when Sobs.Json.member "enabled" rt = Some (Sobs.Json.Bool true) ->
        line "gc: %d domain(s) live   %d pause(s)   %d event(s) lost"
          (geti rt "domains_live") (geti rt "pauses_total")
          (geti rt "events_lost");
        line "%-12s %8s %9s %9s %9s %9s" "domain" "pauses" "p50ms" "p99ms"
          "maxms" "totalms";
        List.iter
          (fun (d, pj) ->
            line "%-12s %8d %9.3f %9.3f %9.3f %9.3f" d (geti pj "count")
              (getf pj "p50_ms") (getf pj "p99_ms") (getf pj "max_ms")
              (getf pj "total_ms"))
          (fields (Sobs.Json.member "gc_pause_ms" rt))
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
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) refreshes (0 = until killed; Ctrl-C \
             exits cleanly either way).")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard for a running server: rps, per-group \
          latency quantiles and cache hit rates, queue depth, busy \
          workers, admission denials, and per-domain GC pause quantiles \
          when the server runs with --runtime-events")
    Term.(
      const run $ socket_arg $ tcp_arg $ host_arg $ wait_retry_arg ~cmd:"top"
      $ interval_arg $ iterations_arg)

let replay_cmd =
  let ms_of l p =
    let a = Array.of_list l in
    Array.sort Float.compare a;
    Sobs.Metrics.percentile a p
  in
  let run capture_file socket tcp host wait dtd_path root spec_path
      group_specs docs label json out =
    let records =
      match Sobs.Capture.read_file capture_file with
      | Ok rs -> rs
      | Error e -> failwith ("replay: " ^ e)
    in
    if records = [] then
      failwith (Printf.sprintf "replay: %s holds no records" capture_file);
    let remote = socket <> None || tcp <> None in
    (* replayed: (captured record, replay digest, result count, ms), in
       capture order *)
    let replayed =
      if remote then begin
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
        let addr = remote_addr ~cmd:"replay" socket tcp host in
        let sessions =
          List.map
            (fun g ->
              let fd = connect_retry ~wait addr in
              let ic = Unix.in_channel_of_descr fd in
              (g, (fd, ic)))
            group_names
        in
        Fun.protect
          ~finally:(fun () ->
            List.iter
              (fun (_, (_, ic)) -> try close_in ic with Sys_error _ -> ())
              sessions)
          (fun () ->
            let send fd j = fd_send_line fd (Sobs.Json.to_string j) in
            let recv ic =
              let line = input_line ic in
              match Sobs.Json.of_string line with
              | Ok j -> j
              | Error e ->
                failwith (Printf.sprintf "replay: bad reply (%s): %s" e line)
            in
            List.iter
              (fun (g, (fd, ic)) ->
                send fd (Sserver.Protocol.hello ~peer:"replay" g);
                match Sobs.Json.member "ok" (recv ic) with
                | Some (Sobs.Json.Bool true) -> ()
                | _ -> failwith (Printf.sprintf "replay: hello %S refused" g))
              sessions;
            List.map
              (fun (r : Sobs.Capture.record) ->
                let fd, ic = List.assoc r.c_group sessions in
                let t0 = Sserver.Deadline.now () in
                send fd
                  (if r.c_verb = "update" then
                     Sserver.Protocol.update_json ~rid:r.c_rid ?doc:r.c_doc
                       ~bind:r.c_bind r.c_query
                   else
                     Sserver.Protocol.query_json ~rid:r.c_rid ?doc:r.c_doc
                       ~bind:r.c_bind ~use_index:r.c_index r.c_query);
                let reply = recv ic in
                let ms = 1000. *. (Sserver.Deadline.now () -. t0) in
                match Sobs.Json.member "ok" reply with
                | Some (Sobs.Json.Bool true) when r.c_verb = "update" ->
                  (* the reply digest is of the group's view of the
                     resulting document: a match means the replayed
                     write rebuilt the byte-identical view *)
                  let digest =
                    match
                      Option.bind
                        (Sobs.Json.member "digest" reply)
                        Sobs.Json.to_string_opt
                    with
                    | Some d -> d
                    | None -> "-"
                  in
                  let targets =
                    match
                      Option.bind
                        (Sobs.Json.member "targets" reply)
                        Sobs.Json.to_int_opt
                    with
                    | Some n -> n
                    | None -> 0
                  in
                  (r, digest, targets, ms)
                | Some (Sobs.Json.Bool true) ->
                  let results =
                    match Sobs.Json.member "results" reply with
                    | Some (Sobs.Json.List rs) ->
                      List.filter_map Sobs.Json.to_string_opt rs
                    | _ -> []
                  in
                  (r, Sobs.Capture.digest results, List.length results, ms)
                | _ ->
                  let code =
                    match
                      Option.bind
                        (Sobs.Json.member "code" reply)
                        Sobs.Json.to_string_opt
                    with
                    | Some c -> c
                    | None -> "error"
                  in
                  (r, "refused:" ^ code, 0, ms))
              records)
      end
      else begin
        let need what = function
          | Some v -> v
          | None ->
            failwith
              (Printf.sprintf
                 "replay: --%s is required unless --socket or --tcp is given"
                 what)
        in
        let dtd = load_dtd root (need "dtd" dtd_path) in
        let groups = named_groups ~cmd:"replay" dtd spec_path group_specs in
        if docs = [] then
          failwith
            "replay: at least one --doc NAME=FILE is required unless \
             --socket or --tcp is given";
        let catalog = Secview.Catalog.create () in
        List.iter
          (fun (n, p) -> ignore (Secview.Catalog.add_file catalog ~name:n p))
          docs;
        let svc = Secview.Pipeline.Service.create ~catalog dtd ~groups in
        let pipe = Secview.Pipeline.Session.create svc in
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
            let engine =
              match Secview.Pipeline.engine_of_string r.c_engine with
              | Some e -> e
              | None ->
                failwith
                  (Printf.sprintf "replay: record %s: unknown engine %S"
                     r.c_rid r.c_engine)
            in
            let env = env_of_bindings r.c_bind in
            if r.c_verb = "update" then begin
              let t0 = Sserver.Deadline.now () in
              match
                Supdate.Engine.apply_text svc ~group:r.c_group ~env ~entry
                  r.c_query
              with
              | Ok rc ->
                let ms = 1000. *. (Sserver.Deadline.now () -. t0) in
                (r, rc.Supdate.Engine.r_view_digest, rc.Supdate.Engine.r_targets, ms)
              | Error e ->
                let ms = 1000. *. (Sserver.Deadline.now () -. t0) in
                (r, "error:" ^ Secview.Error.to_code e, 0, ms)
            end
            else begin
              let q = parse_query r.c_query in
              let doc = Secview.Catalog.doc entry in
              let index =
                if r.c_index then Some (Secview.Catalog.index entry)
                else None
              in
              let t0 = Sserver.Deadline.now () in
              match
                Secview.Pipeline.Session.answer pipe ~group:r.c_group ~engine
                  ~env ?index q doc
              with
              | Ok nodes ->
                let ms = 1000. *. (Sserver.Deadline.now () -. t0) in
                let rendered =
                  List.map (fun n -> Sxml.Print.to_string n) nodes
                in
                (r, Sobs.Capture.digest rendered, List.length rendered, ms)
              | Error e ->
                let ms = 1000. *. (Sserver.Deadline.now () -. t0) in
                (r, "error:" ^ Secview.Error.to_code e, 0, ms)
            end)
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
      Sobs.Json.Obj
        [
          ("bench", Sobs.Json.String "replay");
          ("label", Sobs.Json.String label);
          ("source", Sobs.Json.String capture_file);
          ("mode", Sobs.Json.String (if remote then "live" else "local"));
          ("records", Sobs.Json.Int (List.length replayed));
          ("mismatches", Sobs.Json.Int (List.length mismatches));
          ( "cells",
            Sobs.Json.List
              (List.map
                 (fun ((g, d, q), (cap, rep)) ->
                   let side l =
                     Sobs.Json.Obj
                       [
                         ("p50_ms", Sobs.Json.Float (ms_of l 50.));
                         ("p95_ms", Sobs.Json.Float (ms_of l 95.));
                       ]
                   in
                   Sobs.Json.Obj
                     (("group", Sobs.Json.String g)
                      :: (match d with
                         | Some d -> [ ("doc", Sobs.Json.String d) ]
                         | None -> [])
                     @ [
                         ("query", Sobs.Json.String q);
                         ("n", Sobs.Json.Int (List.length cap));
                         ("captured", side cap);
                         ("replayed", side rep);
                       ]))
                 cells) );
        ]
    in
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Sobs.Json.to_string report);
      output_char oc '\n';
      close_out oc
    | None -> ());
    if json then print_endline (Sobs.Json.to_string report)
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
  let dtd_opt_arg =
    let doc = "Document DTD file (local mode)." in
    Arg.(value & opt (some file) None & info [ "dtd" ] ~docv:"FILE" ~doc)
  in
  let spec_local_arg =
    let doc =
      "Access-specification file for group 'user' (local mode; shorthand \
       for --group user=FILE)."
    in
    Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"FILE" ~doc)
  in
  let docs_arg =
    let doc =
      "Add document $(i,FILE) to the replay catalog as $(i,NAME) (local \
       mode, repeatable; a single --doc also serves records that name no \
       document)."
    in
    Arg.(
      value
      & opt_all (pair_conv ~what:"NAME=FILE") []
      & info [ "doc" ] ~docv:"NAME=FILE" ~doc)
  in
  let label_arg =
    Arg.(
      value & opt string "replay"
      & info [ "label" ] ~docv:"NAME" ~doc:"Label stamped into the report.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print the comparison report as JSON instead of text.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:
            "Also write the JSON report to $(docv) (feed two of these to \
             bench_diff).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-execute a captured workload — against a local pipeline \
          (--dtd/--spec/--doc) or a live server (--socket/--tcp) — \
          byte-comparing every answer against its captured digest \
          (exit 1 on any mismatch) and comparing per-query latency")
    Term.(
      const run $ capture_file_arg $ socket_arg $ tcp_arg $ host_arg
      $ wait_retry_arg ~cmd:"replay" $ dtd_opt_arg $ root_arg $ spec_local_arg
      $ group_specs_arg $ docs_arg $ label_arg $ json_arg $ out_arg)

let metrics_cmd =
  let inet_of host =
    if host = "" then Unix.inet_addr_loopback
    else
      try Unix.inet_addr_of_string host
      with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
  in
  let write_all fd s =
    let b = Bytes.of_string s in
    let rec go off =
      if off < Bytes.length b then
        go (off + Unix.write fd b off (Bytes.length b - off))
    in
    go 0
  in
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
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd (ADDR_INET (inet_of host, port));
        write_all fd
          (Printf.sprintf "GET /metrics HTTP/1.0\r\nHost: %s\r\n\r\n" host);
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec slurp () =
          let n = Unix.read fd chunk 0 (Bytes.length chunk) in
          if n > 0 then begin
            Buffer.add_subbytes buf chunk 0 n;
            slurp ()
          end
        in
        slurp ();
        let response = Buffer.contents buf in
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
        body)
  in
  (* the server's [metrics] verb over one throwaway connection *)
  let remote_metrics addr field =
    let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
    let ic = Unix.in_channel_of_descr fd in
    Fun.protect
      ~finally:(fun () -> try close_in ic with Sys_error _ -> ())
      (fun () ->
        Unix.connect fd addr;
        write_all fd
          (Sobs.Json.to_string (Sserver.Protocol.simple "metrics") ^ "\n");
        let line = input_line ic in
        match field with
        | None -> line ^ "\n"
        | Some f -> (
          match
            Result.to_option (Sobs.Json.of_string line)
            |> Fun.flip Option.bind (Sobs.Json.member f)
            |> Fun.flip Option.bind Sobs.Json.to_string_opt
          with
          | Some s -> s
          | None -> failwith ("metrics: request failed: " ^ line)))
  in
  let run dtd_path root spec_path doc_path bindings engine repeat json
      openmetrics socket tcp host scrape watch iterations queries =
    let remote = scrape <> None || socket <> None || tcp <> None in
    if watch <> None && not remote then
      failwith "metrics: --watch needs --socket, --tcp or --scrape";
    if remote then begin
      let fetch =
        match scrape with
        | Some target -> fun () -> http_scrape target
        | None ->
          let addr =
            match (socket, tcp) with
            | Some path, None -> Unix.ADDR_UNIX path
            | None, Some port -> Unix.ADDR_INET (inet_of host, port)
            | _ -> failwith "metrics: provide exactly one of --socket or --tcp"
          in
          let field =
            if json then None
            else if openmetrics then Some "openmetrics"
            else Some "text"
          in
          fun () -> remote_metrics addr field
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
      let need what = function
        | Some v -> v
        | None ->
          failwith
            (Printf.sprintf
               "metrics: --%s is required unless --socket, --tcp or \
                --scrape is given"
               what)
      in
      if queries = [] then failwith "metrics: at least one QUERY is required";
      let registry = Sobs.Metrics.create () in
      let tracer = Sobs.Tracer.create ~metrics:registry () in
      Sobs.Tracer.install tracer;
      let dtd = load_dtd root (need "dtd" dtd_path) in
      let spec = Secview.Spec.of_sidecar_file dtd (need "spec" spec_path) in
      let pipe =
        Secview.Pipeline.Session.create
          (Secview.Pipeline.Service.create dtd ~groups:[ ("user", spec) ])
      in
      let doc = Sxml.Parse.of_file (need "doc" doc_path) in
      let env = env_of_bindings bindings in
      List.iter
        (fun qs ->
          let q = parse_query qs in
          for _ = 1 to repeat do
            ignore
              (Secview.Pipeline.Session.answer_exn pipe ~group:"user" ~engine
                 ~env q doc)
          done)
        queries;
      Sobs.Tracer.uninstall ();
      if openmetrics then print_string (Sobs.Export.openmetrics registry)
      else if json then
        print_endline (Sobs.Json.to_string (Sobs.Metrics.to_json registry))
      else Format.printf "%a%!" Sobs.Metrics.pp registry
    end
  in
  let dtd_opt_arg =
    let doc = "Document DTD file (local mode)." in
    Arg.(value & opt (some file) None & info [ "dtd" ] ~docv:"FILE" ~doc)
  in
  let spec_local_arg =
    let doc = "Access-specification file (local mode)." in
    Arg.(value & opt (some file) None & info [ "spec" ] ~docv:"FILE" ~doc)
  in
  let doc_opt_arg =
    let doc = "XML document file (local mode)." in
    Arg.(value & opt (some file) None & info [ "doc" ] ~docv:"FILE" ~doc)
  in
  let repeat_arg =
    Arg.(
      value & opt int 2
      & info [ "repeat" ] ~docv:"N"
          ~doc:
            "Answer each query $(docv) times, so the translation cache's \
             steady-state behaviour shows up in the counters.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:
            "Dump the registry as JSON instead of text (remote: echo the \
             server's raw metrics reply).")
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
  let iterations_arg =
    Arg.(
      value & opt int 0
      & info [ "iterations" ] ~docv:"N"
          ~doc:"Stop --watch after $(docv) refreshes (0 = until killed).")
  in
  let queries_arg =
    let doc = "View queries to drive the pipeline with (local mode)." in
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY" ~doc)
  in
  Cmd.v
    (Cmd.info "metrics"
       ~doc:
         "Dump a metrics registry: drive queries through a local pipeline, \
          ask a running server (--socket/--tcp, optionally --watch), or \
          scrape its HTTP endpoint (--scrape)")
    Term.(
      const run $ dtd_opt_arg $ root_arg $ spec_local_arg $ doc_opt_arg
      $ bind_arg $ engine_arg $ repeat_arg $ json_arg $ openmetrics_arg
      $ socket_arg $ tcp_arg $ host_arg $ scrape_arg $ watch_arg
      $ iterations_arg $ queries_arg)

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
  | exception (Failure msg | Invalid_argument msg | Sys_error msg) ->
    Printf.eprintf "secview: %s\n" msg;
    exit 2
  | exception Secview.Rewrite.Unsupported msg ->
    Printf.eprintf "secview: unsupported query: %s\n" msg;
    exit 2
