(* The observability layer: probe spine (Secview.Trace), span recorder,
   metrics registry, JSONL audit log — and the zero-overhead-when-
   disabled guarantee the null probe makes. *)

module Trace = Secview.Trace
module Clock = Sobs.Clock
module Json = Sobs.Json
module Metrics = Sobs.Metrics
module Tracer = Sobs.Tracer
module Audit_log = Sobs.Audit_log

let parse = Sxpath.Parse.of_string

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_contains what hay needle =
  Alcotest.(check bool)
    (Printf.sprintf "%s contains %s" what needle)
    true (contains hay needle)

(* Every test leaves the global hooks clean. *)
let with_probe tracer f =
  Tracer.install tracer;
  Fun.protect ~finally:Tracer.uninstall f

(* --- span recording ------------------------------------------------- *)

let test_span_nesting () =
  (* fake clock: read k returns k ms (in ns); reads happen at enter and
     leave of each span, innermost leaves first *)
  let tracer = Tracer.create ~clock:(Clock.fake ()) () in
  let r =
    with_probe tracer (fun () ->
        Trace.span "outer" (fun () ->
            ignore (Trace.span "inner1" (fun () -> 1));
            Trace.span "inner2" (fun () -> 2)))
  in
  Alcotest.(check int) "span returns the thunk's value" 2 r;
  let spans = Tracer.spans tracer in
  Alcotest.(check (list string))
    "start order" [ "outer"; "inner1"; "inner2" ]
    (List.map (fun s -> s.Tracer.name) spans);
  Alcotest.(check (list int))
    "nesting depths" [ 0; 1; 1 ]
    (List.map (fun s -> s.Tracer.depth) spans);
  let durations =
    List.map (fun s -> Clock.ms s.Tracer.start_ns s.Tracer.stop_ns) spans
  in
  (* reads: enter outer (0), enter inner1 (1), leave inner1 (2),
     enter inner2 (3), leave inner2 (4), leave outer (5) *)
  Alcotest.(check (list (float 1e-9)))
    "durations from the fake clock" [ 5.; 1.; 1. ] durations

let test_span_closes_on_exception () =
  let tracer = Tracer.create ~clock:(Clock.fake ()) () in
  (try
     with_probe tracer (fun () ->
         Trace.span "boom" (fun () -> failwith "no"))
   with Failure _ -> ());
  match Tracer.spans tracer with
  | [ s ] ->
    Alcotest.(check string) "span recorded despite raise" "boom" s.Tracer.name
  | spans ->
    Alcotest.failf "expected exactly one span, got %d" (List.length spans)

let test_span_feeds_metrics () =
  let metrics = Metrics.create () in
  let tracer = Tracer.create ~clock:(Clock.fake ()) ~metrics () in
  with_probe tracer (fun () ->
      Trace.span "stage1" (fun () -> ());
      Trace.count "c" 2;
      Trace.count "c" 3;
      Trace.value "v" 7);
  Alcotest.(check int) "counter accumulates" 5 (Metrics.counter metrics "c");
  (match Metrics.summary metrics "stage.stage1" with
  | Some s ->
    Alcotest.(check int) "one duration recorded" 1 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "1ms from the fake clock" 1. s.Metrics.p50
  | None -> Alcotest.fail "stage duration series missing");
  match Metrics.summary metrics "v" with
  | Some s -> Alcotest.(check (float 1e-9)) "value observed" 7. s.Metrics.p50
  | None -> Alcotest.fail "value series missing"

(* --- metrics math --------------------------------------------------- *)

let test_histogram_math () =
  let m = Metrics.create () in
  for i = 1 to 100 do
    Metrics.observe m "lat" (float_of_int i)
  done;
  match Metrics.summary m "lat" with
  | None -> Alcotest.fail "summary missing"
  | Some s ->
    Alcotest.(check int) "count" 100 s.Metrics.count;
    Alcotest.(check (float 1e-9)) "min" 1. s.Metrics.min;
    Alcotest.(check (float 1e-9)) "max" 100. s.Metrics.max;
    Alcotest.(check (float 1e-9)) "mean" 50.5 s.Metrics.mean;
    (* percentiles are bucket upper-bound estimates now that summaries
       and the OpenMetrics exposition derive from the same explicit
       buckets: 1..100 under the default ladder lands p50 in the
       le=50 bucket and the upper tail in le=100 *)
    Alcotest.(check (float 1e-9)) "p50" 50. s.Metrics.p50;
    Alcotest.(check (float 1e-9)) "p90" 100. s.Metrics.p90;
    Alcotest.(check (float 1e-9)) "p95" 100. s.Metrics.p95;
    Alcotest.(check (float 1e-9)) "p99" 100. s.Metrics.p99

let test_histogram_edges () =
  let m = Metrics.create () in
  Alcotest.(check bool) "empty series" true (Metrics.summary m "x" = None);
  Metrics.observe m "x" 42.;
  (match Metrics.summary m "x" with
  | Some s ->
    Alcotest.(check (float 1e-9)) "single obs p50" 42. s.Metrics.p50;
    Alcotest.(check (float 1e-9)) "single obs p99" 42. s.Metrics.p99
  | None -> Alcotest.fail "summary missing");
  Alcotest.(check int) "missing counter is 0" 0 (Metrics.counter m "nope")

let test_metrics_json () =
  let m = Metrics.create () in
  Metrics.incr m "hits";
  Metrics.incr ~by:2 m "hits";
  List.iter (Metrics.observe m "lat") [ 1.; 2.; 3.; 4. ];
  Alcotest.(check string) "registry JSON"
    ({|{"counters":{"hits":3},"series":{"lat":{"count":4,"sum":10,"min":1,|}
    ^ {|"max":4,"mean":2.5,"p50":2.5,"p90":4,"p95":4,"p99":4}}}|})
    (Json.to_string (Metrics.to_json m))

let test_json_escaping () =
  Alcotest.(check string) "strings are escaped"
    {|{"a\"b":"line\nbreak\tand\\slash"}|}
    (Json.to_string
       (Json.Obj [ ("a\"b", Json.String "line\nbreak\tand\\slash") ]))

(* --- audit log ------------------------------------------------------ *)

let test_audit_golden () =
  let buf = Buffer.create 256 in
  let log = Audit_log.create ~clock:(Clock.fake ()) (Audit_log.Buffer buf) in
  Audit_log.log_request log
    {
      (Sobs.Request.make ~verb:"query" ~group:"nurses" "//patient/name") with
      rid = Some "q1";
      results = 2;
      latency_ms = 1.5;
      translated = Some "dept/patientInfo/patient/name";
    };
  Audit_log.log_diagnostic log ~code:"SV002" ~severity:"error"
    ~subject:"ann(hospital, dept)" "undeclared attribute @ward";
  Audit_log.log_note log ~kind:"strict_gate" "validation failed";
  let expected =
    {|{"type":"request","ts_ns":0,"rid":"q1","group":"nurses","doc":"-","query":"//patient/name","translated":"dept/patientInfo/patient/name","status":"ok","results":2,"latency_ms":1.5,"error":null}|}
    ^ "\n"
    ^ {|{"type":"diagnostic","ts_ns":1000000,"code":"SV002","severity":"error","subject":"ann(hospital, dept)","message":"undeclared attribute @ward"}|}
    ^ "\n"
    ^ {|{"type":"note","ts_ns":2000000,"kind":"strict_gate","message":"validation failed"}|}
    ^ "\n"
  in
  Alcotest.(check string) "JSONL stream" expected (Buffer.contents buf)

(* --- the instrumented pipeline -------------------------------------- *)

let fig7_pipeline () =
  Secview.Pipeline.Session.create
    (Secview.Pipeline.Service.create Workload.Fig7.dtd
       ~groups:[ ("u", Workload.Fig7.spec) ])

let test_pipeline_spans_and_audit () =
  let metrics = Metrics.create () in
  let tracer = Tracer.create ~metrics () in
  let doc = Workload.Fig7.document ~depth:3 in
  let q = parse "//b" in
  (* each answer is one request: its spans are the tree under its own
     synthetic root, whatever ran before it on this thread *)
  let (r1, spans1), (r2, spans2) =
    with_probe tracer (fun () ->
        let pipe = fig7_pipeline () in
        let request () =
          Tracer.with_request tracer (fun () ->
              Secview.Pipeline.Session.answer_exn pipe ~group:"u" q doc)
        in
        let first = request () in
        (first, request ()))
  in
  Alcotest.(check int) "same answers" (List.length r1) (List.length r2);
  let names spans = List.map (fun s -> s.Tracer.name) spans in
  List.iter
    (fun stage ->
      Alcotest.(check bool)
        (stage ^ " span recorded") true
        (List.mem stage (names (Tracer.spans tracer))))
    [ "derive"; "answer"; "height"; "translate"; "unfold"; "rewrite";
      "optimize"; "plan"; "eval" ];
  (* second call: translation cache hit, height memo hit *)
  Alcotest.(check int) "cache miss counted" 1
    (Metrics.counter metrics "pipeline.cache.miss.u");
  Alcotest.(check int) "cache hit counted" 1
    (Metrics.counter metrics "pipeline.cache.hit.u");
  Alcotest.(check int) "height computed once" 1
    (Metrics.counter metrics "pipeline.height.computed");
  Alcotest.(check int) "height memo hit on the second request" 1
    (Metrics.counter metrics "pipeline.height.memo_hit");
  (match Metrics.summary metrics "eval.visited" with
  | Some s -> Alcotest.(check int) "visited recorded per request" 2 s.Metrics.count
  | None -> Alcotest.fail "eval.visited series missing");
  Alcotest.(check bool) "the first request rewrote" true
    (List.mem "rewrite" (names spans1));
  Alcotest.(check bool) "pipeline construction is no request's stage" false
    (List.mem "derive" (names spans1));
  Alcotest.(check bool) "the cached request evaluated" true
    (List.mem "eval" (names spans2));
  Alcotest.(check bool) "no rewrite stage in the cached request" false
    (List.mem "rewrite" (names spans2));
  (* the audit record carrying stage timings is a projection of the
     request's own spans *)
  let buf = Buffer.create 256 in
  let log = Audit_log.create (Audit_log.Buffer buf) in
  List.iter
    (fun (rid, spans) ->
      Audit_log.log_slow_query log ~threshold_ms:0.
        {
          (Sobs.Request.make ~verb:"query" ~group:"u" "//b") with
          rid = Some rid;
          spans;
        })
    [ ("q1", spans1); ("q2", spans2) ];
  match String.split_on_char '\n' (String.trim (Buffer.contents buf)) with
  | [ first; second ] ->
    check_contains "first record" first {|"rewrite"|};
    Alcotest.(check bool) "no rewrite stage in the cached record" false
      (contains second {|"rewrite"|})
  | lines -> Alcotest.failf "expected 2 audit records, got %d" (List.length lines)

let test_write_path_spans () =
  (* one admitted write enters the three write-path stages, the
     rebuild inside admission *)
  let tracer = Tracer.create () in
  let dtd = Workload.Hospital.dtd in
  let spec =
    Workload.Hospital.nurse_spec
      ~write:[ (("regular", "bill"), [ Secview.Spec.Replace ]) ]
      dtd
  in
  let catalog = Secview.Catalog.create () in
  let entry =
    Secview.Catalog.add catalog ~name:"doc"
      (Workload.Hospital.sample_document ())
  in
  let svc =
    Secview.Pipeline.Service.create ~catalog dtd ~groups:[ ("nurse", spec) ]
  in
  with_probe tracer (fun () ->
      match
        Supdate.Engine.apply_text svc ~group:"nurse"
          ~env:(Workload.Hospital.nurse_env "6")
          ~entry
          "replace //patient[name = \"Carol\"]//bill with <bill>85</bill>"
      with
      | Ok _ -> ()
      | Error e ->
        Alcotest.failf "write refused: %s" (Secview.Error.to_string e));
  let spans = Tracer.spans tracer in
  let depth name =
    List.find_map
      (fun s -> if s.Tracer.name = name then Some s.Tracer.depth else None)
      spans
  in
  Alcotest.(check (list (option int)))
    "admit, splice inside it, digest" [ Some 0; Some 1; Some 0 ]
    [ depth "admit"; depth "splice"; depth "digest" ]

let test_height_memo_invalidation () =
  let metrics = Metrics.create () in
  let tracer = Tracer.create ~metrics () in
  let doc1 = Workload.Fig7.document ~depth:3 in
  let doc2 = Workload.Fig7.document ~depth:4 in
  let q = parse "//b" in
  with_probe tracer (fun () ->
      let pipe = fig7_pipeline () in
      ignore (Secview.Pipeline.Session.answer pipe ~group:"u" q doc1);
      ignore (Secview.Pipeline.Session.answer pipe ~group:"u" q doc2);
      ignore (Secview.Pipeline.Session.answer pipe ~group:"u" q doc2));
  Alcotest.(check int) "recomputed when the document changes" 2
    (Metrics.counter metrics "pipeline.height.computed");
  Alcotest.(check int) "memoized across same-document requests" 1
    (Metrics.counter metrics "pipeline.height.memo_hit")

let test_pipeline_stats () =
  let dtd = Workload.Hospital.dtd in
  let spec = Workload.Hospital.nurse_spec dtd in
  let pipe =
    Secview.Pipeline.Session.create
      (Secview.Pipeline.Service.create dtd
         ~groups:[ ("nurses", spec); ("billing", spec) ])
  in
  let doc = Workload.Hospital.sample_document () in
  let env = Workload.Hospital.nurse_env "6" in
  ignore (Secview.Pipeline.Session.answer pipe ~group:"nurses" ~env (parse "//name") doc);
  ignore (Secview.Pipeline.Session.answer pipe ~group:"nurses" ~env (parse "//name") doc);
  ignore (Secview.Pipeline.Session.answer pipe ~group:"billing" ~env (parse "//bill") doc);
  let per_group = Secview.Pipeline.Session.all_stats pipe in
  Alcotest.(check (list string))
    "per-group stats in construction order" [ "nurses"; "billing" ]
    (List.map fst per_group);
  let nurses : Secview.Pipeline.stats = List.assoc "nurses" per_group in
  let billing : Secview.Pipeline.stats = List.assoc "billing" per_group in
  Alcotest.(check (pair int int)) "nurses translation counters" (1, 1)
    (nurses.hits, nurses.misses);
  Alcotest.(check (pair int int)) "billing translation counters" (0, 1)
    (billing.hits, billing.misses);
  (* the default engine compiles one plan per distinct translation *)
  Alcotest.(check (pair int int)) "nurses plan counters" (1, 1)
    (nurses.plan_hits, nurses.plan_misses);
  Alcotest.(check int) "nurses plans compiled" 1 nurses.plan_compiles;
  Alcotest.(check (pair int int)) "billing plan counters" (0, 1)
    (billing.plan_hits, billing.plan_misses)

(* --- request spans --------------------------------------------------- *)

let test_with_request_hierarchy () =
  let tracer = Tracer.create ~clock:(Clock.fake ()) () in
  let r, spans =
    with_probe tracer (fun () ->
        Tracer.with_request tracer (fun () ->
            Trace.span "outer" (fun () ->
                ignore (Trace.span "inner" (fun () -> ()));
                42)))
  in
  Alcotest.(check int) "result carried through" 42 r;
  Alcotest.(check (list string))
    "root plus descendants, by seq" [ "request"; "outer"; "inner" ]
    (List.map (fun s -> s.Tracer.name) spans);
  (match spans with
  | [ root; outer; inner ] ->
    Alcotest.(check (option int)) "root has no parent" None root.Tracer.parent;
    Alcotest.(check (option int)) "outer's parent is the root"
      (Some root.Tracer.seq) outer.Tracer.parent;
    Alcotest.(check (option int)) "inner's parent is outer"
      (Some outer.Tracer.seq) inner.Tracer.parent;
    Alcotest.(check bool) "one trace id for the whole request" true
      (root.Tracer.trace_id = outer.Tracer.trace_id
      && outer.Tracer.trace_id = inner.Tracer.trace_id)
  | _ -> Alcotest.fail "expected exactly three spans");
  (* non-destructive: the drain watermark did not move, so the audit
     log still gets every span *)
  Alcotest.(check int) "drain_new still sees all spans" 3
    (List.length (Tracer.drain_new tracer))

let test_with_request_isolates_traces () =
  let tracer = Tracer.create ~clock:(Clock.fake ()) () in
  with_probe tracer (fun () ->
      let (), first =
        Tracer.with_request tracer (fun () ->
            ignore (Trace.span "a" (fun () -> ())))
      in
      let (), second =
        Tracer.with_request tracer (fun () ->
            ignore (Trace.span "b" (fun () -> ())))
      in
      Alcotest.(check (list string)) "first request's spans only"
        [ "request"; "a" ]
        (List.map (fun s -> s.Tracer.name) first);
      Alcotest.(check (list string)) "second request's spans only"
        [ "request"; "b" ]
        (List.map (fun s -> s.Tracer.name) second);
      match (first, second) with
      | r1 :: _, r2 :: _ ->
        Alcotest.(check bool) "distinct trace ids" true
          (r1.Tracer.trace_id <> r2.Tracer.trace_id)
      | _ -> Alcotest.fail "missing root spans")

(* The server's tracer retains nothing: a thread's spans go when its
   outermost span closes, so a connection thread that runs one cold
   classification and exits leaves no span and no table entry behind,
   while a request still gets its own spans back first. *)
let test_non_retaining_keeps_nothing () =
  let tracer = Tracer.create ~clock:(Clock.fake ()) ~retain:false () in
  with_probe tracer (fun () ->
      for _ = 1 to 1000 do
        Thread.join (Thread.create (fun () -> Trace.span "admission" ignore) ())
      done;
      Alcotest.(check int) "no span of a finished thread" 0
        (List.length (Tracer.spans tracer));
      let (), spans =
        Tracer.with_request tracer (fun () -> Trace.span "answer" ignore)
      in
      Alcotest.(check (list string)) "the request's spans, returned"
        [ "request"; "answer" ]
        (List.map (fun s -> s.Tracer.name) spans);
      Alcotest.(check int) "then dropped" 0 (List.length (Tracer.spans tracer)))

(* --- flight recorder -------------------------------------------------- *)

let flight_entry ~rid =
  { (Sobs.Request.make ~verb:"query" ~group:"user" "//a") with rid = Some rid }

let test_recorder_ring () =
  (match Sobs.Recorder.create ~capacity:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must be refused");
  let r = Sobs.Recorder.create ~capacity:2 in
  Alcotest.(check int) "capacity" 2 (Sobs.Recorder.capacity r);
  Sobs.Recorder.record r (flight_entry ~rid:"a");
  Sobs.Recorder.record r (flight_entry ~rid:"b");
  Sobs.Recorder.record r (flight_entry ~rid:"c");
  Alcotest.(check int) "length caps at capacity" 2 (Sobs.Recorder.length r);
  Alcotest.(check int) "total keeps counting" 3 (Sobs.Recorder.total r);
  Alcotest.(check (list string)) "oldest evicted, oldest-first order"
    [ "b"; "c" ]
    (List.map
       (fun (e : Sobs.Request.t) -> Option.get e.rid)
       (Sobs.Recorder.entries r));
  let j = Sobs.Recorder.to_json r in
  Alcotest.(check (option int)) "flight field" (Some 2)
    (Option.bind (Json.member "flight" j) Json.to_int_opt);
  Alcotest.(check (option int)) "total field" (Some 3)
    (Option.bind (Json.member "total" j) Json.to_int_opt);
  Sobs.Recorder.clear r;
  Alcotest.(check int) "clear empties the ring" 0 (Sobs.Recorder.length r);
  Alcotest.(check int) "clear keeps the total" 3 (Sobs.Recorder.total r)

(* --- capture / replay records ----------------------------------------- *)

let capture_record ~rid =
  {
    Sobs.Capture.c_rid = rid;
    c_verb = "query";
    c_group = "user";
    c_doc = Some "d1";
    c_query = "//a";
    c_bind = [ ("x", "1") ];
    c_index = true;
    c_engine = "plan";
    c_status = "ok";
    c_results = 2;
    c_digest = Sobs.Capture.digest [ "<a/>"; "<a/>" ];
    c_latency_ms = 1.25;
  }

let test_capture_digest () =
  Alcotest.(check string) "empty answer"
    (Digest.to_hex (Digest.string ""))
    (Sobs.Capture.digest []);
  Alcotest.(check string) "lines joined with newline"
    (Digest.to_hex (Digest.string "a\nb"))
    (Sobs.Capture.digest [ "a"; "b" ])

let test_capture_roundtrip () =
  let r = capture_record ~rid:"q1" in
  (match Sobs.Capture.of_json (Sobs.Capture.to_json r) with
  | Ok r' -> Alcotest.(check bool) "json round trip" true (r = r')
  | Error e -> Alcotest.failf "of_json failed: %s" e);
  (* the version field leads, so readers reject foreign formats cheaply *)
  check_contains "record json"
    (Json.to_string (Sobs.Capture.to_json r))
    "{\"v\":2,";
  check_contains "record json"
    (Json.to_string (Sobs.Capture.to_json r))
    "\"verb\":\"query\"";
  (match Sobs.Capture.of_json (Json.Obj [ ("v", Json.Int 99) ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "future schema version accepted");
  (* version-1 records (no verb field) still read back as queries *)
  (match
     Sobs.Capture.of_json
       (Json.Obj
          [
            ("v", Json.Int 1);
            ("rid", Json.String "old");
            ("group", Json.String "g");
            ("query", Json.String "//a");
            ("digest", Json.String "d");
          ])
   with
  | Ok r1 ->
    Alcotest.(check string) "v1 verb defaults" "query" r1.Sobs.Capture.c_verb
  | Error e -> Alcotest.failf "v1 record rejected: %s" e);
  let path = Filename.temp_file "secview-capture" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let w = Sobs.Capture.open_file path in
      Sobs.Capture.write w (capture_record ~rid:"q1");
      Sobs.Capture.write w (capture_record ~rid:"q2");
      Sobs.Capture.close w;
      match Sobs.Capture.read_file path with
      | Ok [ a; b ] ->
        Alcotest.(check string) "first rid" "q1" a.Sobs.Capture.c_rid;
        Alcotest.(check string) "second rid" "q2" b.Sobs.Capture.c_rid
      | Ok rs -> Alcotest.failf "expected 2 records, got %d" (List.length rs)
      | Error e -> Alcotest.failf "read_file failed: %s" e)

let test_capture_read_errors () =
  let path = Filename.temp_file "secview-capture" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"v\":1,\"rid\":\"ok\",\"group\":\"g\",\"query\":\"//a\",\"digest\":\"d\"}\nnot json\n";
      close_out oc;
      match Sobs.Capture.read_file path with
      | Error e ->
        check_contains "error names the line" e ":2:"
      | Ok _ -> Alcotest.fail "malformed line accepted")

(* --- the zero-overhead default -------------------------------------- *)

let forty_two () = 42 (* non-capturing: statically allocated closure *)

let test_null_probe_no_allocation () =
  Trace.clear_probe ();
  Alcotest.(check bool) "probe disabled" false (Trace.enabled ());
  (* warm up so nothing lazy allocates inside the window *)
  ignore (Trace.span "warm" forty_two);
  Trace.count "warm" 1;
  Trace.value "warm" 1;
  let n = 100_000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    ignore (Trace.span "stage" forty_two);
    Trace.count "counter" 1;
    Trace.value "series" 1
  done;
  let w1 = Gc.minor_words () in
  (* one word of slack per ~1000 iterations absorbs the Gc.minor_words
     float boxing itself; any per-call allocation would cost >= n words *)
  Alcotest.(check bool)
    (Printf.sprintf "allocation-free (delta %.0f words for %d calls)"
       (w1 -. w0) n)
    true
    (w1 -. w0 < 128.)

let test_probe_toggling () =
  let tracer = Tracer.create ~clock:(Clock.fake ()) () in
  Tracer.install tracer;
  Alcotest.(check bool) "enabled after install" true (Trace.enabled ());
  Tracer.uninstall ();
  Alcotest.(check bool) "disabled after uninstall" false (Trace.enabled ());
  ignore (Trace.span "ignored" forty_two);
  Alcotest.(check int) "no spans recorded when uninstalled" 0
    (List.length (Tracer.spans tracer))

(* --- runtime health: pause attribution -------------------------------- *)

let test_runtime_overlap_stamping () =
  let rt = Sobs.Runtime.offline () in
  (* a STW minor pause lands on both domains' rings with slightly
     skewed windows — union, don't sum *)
  Sobs.Runtime.inject_pause rt ~domain:0 ~kind:Sobs.Runtime.Minor
    ~start_ns:1_000L ~stop_ns:2_000L;
  Sobs.Runtime.inject_pause rt ~domain:1 ~kind:Sobs.Runtime.Minor
    ~start_ns:1_200L ~stop_ns:2_200L;
  (* a later, disjoint major slice on one domain *)
  Sobs.Runtime.inject_pause rt ~domain:0 ~kind:Sobs.Runtime.Major_slice
    ~start_ns:5_000L ~stop_ns:5_500L;
  Alcotest.(check int) "three pauses retained" 3
    (List.length (Sobs.Runtime.pauses rt));
  (* window covering everything: union [1000,2200] + [5000,5500]
     = 1700 ns = 0.0017 ms across 2 disjoint episodes *)
  let ms, episodes = Sobs.Runtime.overlap rt ~start_ns:0L ~stop_ns:10_000L in
  Alcotest.(check (float 1e-9)) "unioned, not summed" 0.0017 ms;
  Alcotest.(check int) "two disjoint episodes" 2 episodes;
  (* window overlapping only the tail of the first episode *)
  let ms, episodes = Sobs.Runtime.overlap rt ~start_ns:2_100L ~stop_ns:3_000L in
  Alcotest.(check (float 1e-9)) "clipped to the window" 0.0001 ms;
  Alcotest.(check int) "one episode" 1 episodes;
  (* window touching no pause stamps a measured zero *)
  let ms, episodes = Sobs.Runtime.overlap rt ~start_ns:3_000L ~stop_ns:4_000L in
  Alcotest.(check (float 1e-9)) "no overlap, zero ms" 0. ms;
  Alcotest.(check int) "no episodes" 0 episodes;
  (* the registry carries the injected pauses per domain *)
  let snap = Sobs.Metrics.create () in
  Sobs.Runtime.absorb_into ~into:snap rt;
  let count name =
    match
      List.assoc_opt name
        (List.map
           (fun (n, (s : Sobs.Metrics.summary)) -> (n, s.Sobs.Metrics.count))
           (Sobs.Metrics.summaries snap))
    with
    | Some c -> c
    | None -> 0
  in
  Alcotest.(check int) "d0 histogram has both pauses" 2
    (count "gc.pause_seconds.d0");
  Alcotest.(check int) "d1 histogram has its pause" 1
    (count "gc.pause_seconds.d1");
  Alcotest.(check int) "aggregate sees all three" 3 (count "gc.pause_seconds")

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "closes on exception" `Quick
            test_span_closes_on_exception;
          Alcotest.test_case "feeds metrics" `Quick test_span_feeds_metrics;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram math" `Quick test_histogram_math;
          Alcotest.test_case "edge cases" `Quick test_histogram_edges;
          Alcotest.test_case "json rendering" `Quick test_metrics_json;
          Alcotest.test_case "json escaping" `Quick test_json_escaping;
        ] );
      ( "audit",
        [ Alcotest.test_case "jsonl golden" `Quick test_audit_golden ] );
      ( "pipeline",
        [
          Alcotest.test_case "spans, counters and audit records" `Quick
            test_pipeline_spans_and_audit;
          Alcotest.test_case "write path spans" `Quick test_write_path_spans;
          Alcotest.test_case "height memo" `Quick
            test_height_memo_invalidation;
          Alcotest.test_case "aggregate stats" `Quick test_pipeline_stats;
        ] );
      ( "request spans",
        [
          Alcotest.test_case "hierarchy under a synthetic root" `Quick
            test_with_request_hierarchy;
          Alcotest.test_case "traces stay separate" `Quick
            test_with_request_isolates_traces;
          Alcotest.test_case "a non-retaining tracer keeps no spans" `Quick
            test_non_retaining_keeps_nothing;
        ] );
      ( "recorder",
        [
          Alcotest.test_case "ring semantics" `Quick test_recorder_ring;
        ] );
      ( "capture",
        [
          Alcotest.test_case "digest" `Quick test_capture_digest;
          Alcotest.test_case "jsonl round trip" `Quick test_capture_roundtrip;
          Alcotest.test_case "read errors carry file:line" `Quick
            test_capture_read_errors;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "overlap stamping unions pause windows" `Quick
            test_runtime_overlap_stamping;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "null probe allocates nothing" `Quick
            test_null_probe_no_allocation;
          Alcotest.test_case "install/uninstall" `Quick test_probe_toggling;
        ] );
    ]
