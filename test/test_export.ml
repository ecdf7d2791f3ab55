(* Telemetry export: the OpenMetrics exposition, Chrome trace JSON,
   plan EXPLAIN operator counters, slow-query records, and the
   server's HTTP scrape endpoint. *)

module Metrics = Sobs.Metrics
module Tracer = Sobs.Tracer
module Clock = Sobs.Clock
module Export = Sobs.Export
module Json = Sobs.Json
module Runtime = Sobs.Runtime
module Audit_log = Sobs.Audit_log
module Server = Sserver.Server
module Pipeline = Secview.Pipeline

(* ---- OpenMetrics --------------------------------------------------- *)

let test_sanitize () =
  Alcotest.(check string)
    "dots become underscores" "secview_server_latency_ms_user"
    (Export.sanitize "server.latency_ms.user");
  Alcotest.(check string)
    "already clean" "secview_requests" (Export.sanitize "requests")

let test_openmetrics_golden () =
  let m = Metrics.create () in
  Metrics.incr ~by:3 m "req";
  Metrics.set_gauge m "queue.depth" 2.;
  List.iter (Metrics.observe ~buckets:[| 1.; 5. |] m "lat") [ 0.5; 2.; 10. ];
  let expected =
    "# TYPE secview_req counter\n" ^ "secview_req_total 3\n"
    ^ "# TYPE secview_queue_depth gauge\n" ^ "secview_queue_depth 2\n"
    ^ "# TYPE secview_lat histogram\n"
    ^ "secview_lat_bucket{le=\"1\"} 1\n"
    ^ "secview_lat_bucket{le=\"5\"} 2\n"
    ^ "secview_lat_bucket{le=\"+Inf\"} 3\n"
    ^ "secview_lat_sum 12.5\n" ^ "secview_lat_count 3\n" ^ "# EOF\n"
  in
  Alcotest.(check string) "exposition" expected (Export.openmetrics m)

(* Cumulative bucket counts must never decrease, the +Inf bucket must
   equal _count — the invariants Prometheus clients rely on. *)
let check_histograms_monotone body =
  let lines = String.split_on_char '\n' body in
  let bucket_count line =
    match String.index_opt line '}' with
    | Some i when String.length line > i + 1 ->
      int_of_string_opt
        (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
    | _ -> None
  in
  let histograms = Hashtbl.create 4 in
  List.iter
    (fun line ->
      match String.index_opt line '{' with
      | Some i when
          String.length line > 7
          && String.sub line (i - 7) 7 = "_bucket" -> (
        let name = String.sub line 0 (i - 7) in
        match bucket_count line with
        | Some n ->
          let prev = try Hashtbl.find histograms name with Not_found -> [] in
          Hashtbl.replace histograms name (n :: prev)
        | None -> Alcotest.failf "unparseable bucket line: %s" line)
      | _ -> ())
    lines;
  Alcotest.(check bool)
    "at least one histogram" true
    (Hashtbl.length histograms > 0);
  Hashtbl.iter
    (fun name counts ->
      let counts = List.rev counts in
      let rec monotone = function
        | a :: (b :: _ as rest) ->
          if a > b then
            Alcotest.failf "%s buckets not cumulative: %d > %d" name a b;
          monotone rest
        | _ -> ()
      in
      monotone counts;
      (* the last bucket is +Inf and must equal the _count line *)
      let count_line =
        List.find_opt (String.starts_with ~prefix:(name ^ "_count ")) lines
      in
      match (count_line, List.rev counts) with
      | Some l, last :: _ ->
        let n =
          int_of_string
            (String.trim
               (String.sub l
                  (String.length name + 7)
                  (String.length l - String.length name - 7)))
        in
        Alcotest.(check int) (name ^ " +Inf = count") n last
      | _ -> Alcotest.failf "%s has no _count line" name)
    histograms

let test_openmetrics_monotone () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "lat") [ 0.3; 7.; 80.; 999.; 123456. ];
  List.iter (Metrics.observe m "visited") [ 1.; 1.; 2.; 40. ];
  let body = Export.openmetrics m in
  check_histograms_monotone body;
  Alcotest.(check bool)
    "terminated" true
    (String.length body >= 6
    && String.sub body (String.length body - 6) 6 = "# EOF\n")

(* ---- Chrome trace -------------------------------------------------- *)

let test_chrome_trace_roundtrip () =
  let tr = Tracer.create ~clock:(Clock.fake ()) () in
  Tracer.install tr;
  Secview.Trace.span "answer" (fun () ->
      Secview.Trace.span "eval" (fun () -> ()));
  Tracer.uninstall ();
  let spans = Tracer.spans tr in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  match Json.of_string (Json.to_string (Export.chrome_trace spans)) with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok j -> (
    (match Json.member "displayTimeUnit" j with
    | Some (Json.String "ms") -> ()
    | _ -> Alcotest.fail "displayTimeUnit missing");
    match Json.member "traceEvents" j with
    | Some (Json.List evs) ->
      Alcotest.(check int) "two events" 2 (List.length evs);
      List.iter
        (fun ev ->
          (match Json.member "ph" ev with
          | Some (Json.String "X") -> ()
          | _ -> Alcotest.fail "ph must be X (complete event)");
          (match Json.member "cat" ev with
          | Some (Json.String "secview") -> ()
          | _ -> Alcotest.fail "cat must be secview");
          let num name =
            match Json.member name ev with
            | Some (Json.Float f) -> f
            | Some (Json.Int i) -> float_of_int i
            | _ -> Alcotest.failf "%s missing" name
          in
          ignore (num "ts");
          (* fake clock: 1ms per read, so every span lasts >= 1000us *)
          Alcotest.(check bool) "positive duration" true (num "dur" >= 1000.))
        evs;
      (* both spans belong to one request: same trace_id, outer first *)
      let arg name ev =
        match Json.member "args" ev with
        | Some a -> (
          match Json.member name a with
          | Some (Json.Int i) -> i
          | _ -> Alcotest.failf "args.%s missing" name)
        | None -> Alcotest.fail "args missing"
      in
      let outer = List.hd evs and inner = List.nth evs 1 in
      Alcotest.(check int)
        "same trace" (arg "trace_id" outer) (arg "trace_id" inner);
      Alcotest.(check int) "outer depth" 0 (arg "depth" outer);
      Alcotest.(check int) "inner depth" 1 (arg "depth" inner)
    | _ -> Alcotest.fail "traceEvents missing")

(* GC pauses render as their own complete events on pid 2, one tid per
   domain, so they appear as separate tracks under the request rows. *)
let test_chrome_trace_gc_tracks () =
  let gc =
    [
      { Runtime.domain = 0; kind = Runtime.Minor; start_ns = 1_000L;
        stop_ns = 3_000L };
      { Runtime.domain = 1; kind = Runtime.Major_slice; start_ns = 2_000L;
        stop_ns = 2_500L };
    ]
  in
  match Json.of_string (Json.to_string (Export.chrome_trace ~gc [])) with
  | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
  | Ok j -> (
    match Json.member "traceEvents" j with
    | Some (Json.List [ minor; major ]) ->
      let str name ev =
        match Json.member name ev with
        | Some (Json.String s) -> s
        | _ -> Alcotest.failf "%s missing" name
      in
      let int name ev =
        match Json.member name ev with
        | Some (Json.Int i) -> i
        | _ -> Alcotest.failf "%s missing" name
      in
      Alcotest.(check string) "minor name" "gc:minor" (str "name" minor);
      Alcotest.(check string) "major name" "gc:major_slice"
        (str "name" major);
      Alcotest.(check string) "gc category" "gc" (str "cat" minor);
      (* pid 2 keeps GC rows in their own process group, tid = domain *)
      Alcotest.(check int) "gc pid" 2 (int "pid" minor);
      Alcotest.(check int) "minor tid is its domain" 0 (int "tid" minor);
      Alcotest.(check int) "major tid is its domain" 1 (int "tid" major);
      let num name ev =
        match Json.member name ev with
        | Some (Json.Float f) -> f
        | Some (Json.Int i) -> float_of_int i
        | _ -> Alcotest.failf "%s missing" name
      in
      (* ns -> us *)
      Alcotest.(check (float 1e-9)) "minor ts us" 1. (num "ts" minor);
      Alcotest.(check (float 1e-9)) "minor dur us" 2. (num "dur" minor);
      Alcotest.(check (float 1e-9)) "major dur us" 0.5 (num "dur" major)
    | _ -> Alcotest.fail "expected exactly the two gc events")

(* ---- EXPLAIN counters ---------------------------------------------- *)

(* The acceptance invariant: the root operator's rows-emitted equals
   the number of answers, for every Adex query over a range of
   document sizes, with no interpreter fallback. *)
let test_explain_counts () =
  let pipe =
    Pipeline.Session.create
      (Pipeline.Service.create Workload.Adex.dtd
         ~groups:[ ("user", Workload.Adex.spec) ])
  in
  List.iter
    (fun (ads, buyers) ->
      let doc = Workload.Adex.document ~ads ~buyers () in
      List.iter
        (fun (name, q) ->
          let label = Printf.sprintf "%s ads=%d" name ads in
          let expected =
            match Pipeline.Session.answer pipe ~group:"user" q doc with
            | Ok rs -> List.length rs
            | Error e -> Alcotest.failf "%s: %s" label (Secview.Error.to_string e)
          in
          let snap =
            Secview.Catalog.pin
              (Secview.Catalog.add (Secview.Catalog.create ()) ~name:"d" doc)
          in
          match Pipeline.Session.explain pipe ~group:"user" q snap with
          | Error e -> Alcotest.failf "%s: %s" label (Secview.Error.to_string e)
          | Ok x -> (
            Alcotest.(check int) (label ^ " results") expected
              x.Pipeline.x_results;
            Alcotest.(check bool)
              (label ^ " no fallback") true
              (x.Pipeline.x_fallback = None);
            match x.Pipeline.x_plan with
            | None -> Alcotest.failf "%s: no plan" label
            | Some (compiled, stats) ->
              let totals = Splan.Exec.Stats.totals stats in
              Alcotest.(check int) (label ^ " rows") expected
                (List.assoc "rows" totals);
              (* the rendered tree mirrors the compiled plan *)
              let node = Splan.Explain.of_compiled compiled stats in
              Alcotest.(check int) (label ^ " root emitted") expected
                (List.assoc "emitted" node.Splan.Explain.counts)))
        Workload.Adex.queries)
    [ (2, 2); (6, 4); (12, 8) ]

(* ---- slow-query records -------------------------------------------- *)

let test_slow_query_record () =
  let buf = Buffer.create 256 in
  let log = Audit_log.create ~clock:(Clock.fake ()) (Audit_log.Buffer buf) in
  (* stage totals come from the request's own spans *)
  let span name ms =
    { Tracer.name; seq = 0; parent = None; depth = 0; tid = 0; trace_id = 0;
      start_ns = 0L; stop_ns = Int64.of_float (ms *. 1e6) }
  in
  Audit_log.log_slow_query log ~threshold_ms:10.
    {
      (Sobs.Request.make ~verb:"query" ~group:"user" "//a") with
      translated = Some "b/a";
      latency_ms = 12.5;
      spans = [ span "eval" 9.25; span "translate" 1.5 ];
      counts = [ ("scanned", 7); ("rows", 2) ];
    };
  Audit_log.log_slow_query log ~threshold_ms:1.
    {
      (Sobs.Request.make ~verb:"query" ~group:"g" "//b") with
      latency_ms = 3.;
      gc = Some (0.75, 2);
      session = Some 4;
      peer = Some "unix";
      doc_label = Some "d";
    };
  Audit_log.close log;
  let expected =
    {|{"type":"slow_query","ts_ns":0,"group":"user","query":"//a","translated":"b/a","latency_ms":12.5,"threshold_ms":10,"stages_ms":{"eval":9.25,"translate":1.5},"op_counts":{"scanned":7,"rows":2},"gc_pause_ms":null,"gc_pauses":null}|}
    ^ "\n"
    ^ {|{"type":"slow_query","ts_ns":1000000,"session":4,"peer":"unix","doc":"d","group":"g","query":"//b","translated":null,"latency_ms":3,"threshold_ms":1,"stages_ms":{},"op_counts":{},"gc_pause_ms":0.75,"gc_pauses":2}|}
    ^ "\n"
  in
  Alcotest.(check string) "JSONL records" expected (Buffer.contents buf)

(* ---- the HTTP scrape endpoint -------------------------------------- *)

let scrape_port = 17917

let http_get port path =
  Sserver.Conn.with_connection ~wait:5.
    (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    (fun c ->
      Sserver.Conn.write c (Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path);
      Sserver.Conn.read_all c)

let split_response resp =
  let rec find i =
    if i + 3 >= String.length resp then (resp, "")
    else if String.sub resp i 4 = "\r\n\r\n" then
      ( String.sub resp 0 i,
        String.sub resp (i + 4) (String.length resp - i - 4) )
    else find (i + 1)
  in
  find 0

let test_http_scrape () =
  let service =
    Pipeline.Service.create Workload.Fig7.dtd
      ~groups:[ ("u", Workload.Fig7.spec) ]
  in
  (* a served query's latency would land on the server's own shards;
     prime the series through the overlay registry instead, so the
     scrape carries a histogram without a full client session *)
  let overlay = Metrics.create () in
  let server = Server.create ~metrics:overlay service in
  List.iter (Metrics.observe overlay "server.latency_ms.u") [ 0.4; 2.; 31. ];
  let th =
    Thread.create
      (fun () -> Server.serve server [ Server.Metrics_http ("", scrape_port) ])
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Server.request_drain server;
      Thread.join th)
    (fun () ->
      let resp = http_get scrape_port "/metrics" in
      let head, body = split_response resp in
      Alcotest.(check bool)
        "200 OK" true
        (String.starts_with ~prefix:"HTTP/1.0 200" head);
      Alcotest.(check bool)
        "openmetrics content type" true
        (let lower = String.lowercase_ascii head in
         let needle = "application/openmetrics-text" in
         let rec has i =
           i + String.length needle <= String.length lower
           && (String.sub lower i (String.length needle) = needle
              || has (i + 1))
         in
         has 0);
      let has_line prefix =
        List.exists
          (String.starts_with ~prefix)
          (String.split_on_char '\n' body)
      in
      Alcotest.(check bool)
        "scrape counter" true
        (has_line "secview_server_http_scrapes_total");
      Alcotest.(check bool)
        "queue depth gauge" true
        (has_line "secview_server_queue_depth");
      Alcotest.(check bool) "eof" true (has_line "# EOF");
      check_histograms_monotone body;
      (* anything else is 404 *)
      let head404, _ = split_response (http_get scrape_port "/favicon.ico") in
      Alcotest.(check bool)
        "404 elsewhere" true
        (String.starts_with ~prefix:"HTTP/1.0 404" head404))

let () =
  Alcotest.run "export"
    [
      ( "openmetrics",
        [
          Alcotest.test_case "sanitize" `Quick test_sanitize;
          Alcotest.test_case "golden exposition" `Quick
            test_openmetrics_golden;
          Alcotest.test_case "cumulative buckets" `Quick
            test_openmetrics_monotone;
        ] );
      ( "chrome-trace",
        [
          Alcotest.test_case "round trip" `Quick test_chrome_trace_roundtrip;
          Alcotest.test_case "gc tracks" `Quick test_chrome_trace_gc_tracks;
        ] );
      ( "explain",
        [ Alcotest.test_case "operator counters" `Quick test_explain_counts ]
      );
      ( "slow-query",
        [ Alcotest.test_case "jsonl golden" `Quick test_slow_query_record ] );
      ( "http",
        [ Alcotest.test_case "GET /metrics" `Quick test_http_scrape ] );
    ]
