(* The concurrent query server: protocol decoding, the bounded queue,
   deadlines, the document catalog, pipeline thread-safety, and full
   over-the-socket round trips including overload, timeout and drain. *)

module J = Sobs.Json
module Protocol = Sserver.Protocol
module Server = Sserver.Server
module Bqueue = Sserver.Bqueue
module Deadline = Sserver.Deadline
module Conn = Sserver.Conn
module Catalog = Secview.Catalog
module Pipeline = Secview.Pipeline

(* ---- JSON parser --------------------------------------------------- *)

let test_json_roundtrip () =
  let cases =
    [
      J.Null; J.Bool true; J.Int 42; J.Int (-7); J.Float 1.5;
      J.String "plain"; J.String "esc \"q\" \\ / \n \t \r";
      J.List [ J.Int 1; J.String "two"; J.Null ];
      J.Obj
        [
          ("a", J.Int 1);
          ("nested", J.Obj [ ("xs", J.List [ J.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      match J.of_string (J.to_string v) with
      | Ok v' ->
        Alcotest.(check string)
          "round trip" (J.to_string v) (J.to_string v')
      | Error e -> Alcotest.failf "parse failed: %s" e)
    cases

let test_json_errors () =
  let bad = [ ""; "nul"; "{"; "[1,]"; "{\"a\":}"; "1 2"; "\"unterminated" ] in
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    bad;
  (match J.of_string " {\"k\": [1, 2.5, \"\\u00e9\"]} " with
  | Ok (J.Obj [ ("k", J.List [ J.Int 1; J.Float 2.5; J.String "\xc3\xa9" ]) ])
    -> ()
  | Ok other -> Alcotest.failf "unexpected shape: %s" (J.to_string other)
  | Error e -> Alcotest.failf "parse failed: %s" e)

(* Arrays and objects nest at most 512 deep: the 513th opening bracket
   is refused where it stands, before the decoder recurses further or
   allocates for the rest of the line. *)
let test_json_nesting_bound () =
  let nested n = String.make n '[' ^ String.make n ']' in
  Alcotest.(check bool) "512 deep parses" true
    (Result.is_ok (J.of_string (nested 512)));
  Alcotest.(check bool) "512 deep objects parse" true
    (Result.is_ok
       (J.of_string
          (String.concat "" (List.init 512 (fun _ -> {|{"k":|}))
          ^ "0" ^ String.make 512 '}')));
  let refused = Error "at offset 512: nesting deeper than 512" in
  Alcotest.(check (result reject string)) "513 deep refused" refused
    (Result.map ignore (J.of_string (nested 513)));
  let line = String.make 1_000_000 '[' in
  let w0 = Gc.minor_words () in
  let got = J.of_string line in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check (result reject string)) "a million brackets refused" refused
    (Result.map ignore got);
  Alcotest.(check bool)
    (Printf.sprintf "refused in %.0f minor words" words)
    true (words < 1000.)

(* ---- protocol ------------------------------------------------------- *)

let test_protocol_roundtrip () =
  (match Protocol.request_of_line (J.to_string (Protocol.hello ~peer:"p" "g"))
   with
  | Ok (Protocol.Hello { group = "g"; peer = Some "p" }, None) -> ()
  | _ -> Alcotest.fail "hello did not round trip");
  (match
     Protocol.request_of_line
       (J.to_string (Protocol.query_json ~doc:"d" ~bind:[ ("x", "1") ] "//a"))
   with
  | Ok
      ( Protocol.Query { doc = Some "d"; text = "//a"; bind = [ ("x", "1") ] },
        None ) -> ()
  | _ -> Alcotest.fail "query did not round trip");
  List.iter
    (fun (cmd, want) ->
      match Protocol.request_of_line (J.to_string (Protocol.simple cmd)) with
      | Ok (got, None) when got = want -> ()
      | _ -> Alcotest.failf "%s did not round trip" cmd)
    [ ("stats", Protocol.Stats); ("ping", Protocol.Ping);
      ("shutdown", Protocol.Shutdown); ("flight", Protocol.Flight) ]

let test_protocol_rid () =
  (* a client-chosen rid rides along with any command... *)
  (match
     Protocol.request_of_line
       (J.to_string (Protocol.query_json ~rid:"req-7" "//a"))
   with
  | Ok (Protocol.Query { text = "//a"; _ }, Some "req-7") -> ()
  | _ -> Alcotest.fail "query rid did not round trip");
  (match Protocol.request_of_line "{\"cmd\":\"ping\",\"rid\":\"p9\"}" with
  | Ok (Protocol.Ping, Some "p9") -> ()
  | _ -> Alcotest.fail "ping rid did not round trip");
  (* ...and is recoverable even from a line that is not a command *)
  Alcotest.(check (option string))
    "rid_of_line on a broken command" (Some "x1")
    (Protocol.rid_of_line "{\"cmd\":\"frob\",\"rid\":\"x1\"}");
  Alcotest.(check (option string))
    "rid_of_line on junk" None
    (Protocol.rid_of_line "not json")

let test_protocol_rejects () =
  let bad =
    [
      "not json";
      "{\"no\":\"cmd\"}";
      "{\"cmd\":\"frob\"}";
      "{\"cmd\":\"hello\"}";
      "{\"cmd\":\"hello\",\"group\":7}";
      "{\"cmd\":\"query\"}";
      "{\"cmd\":\"query\",\"query\":\"//a\",\"bind\":[1]}";
      "{\"cmd\":\"sleep\",\"ms\":-5}";
      "{\"cmd\":\"ping\",\"rid\":7}";
    ]
  in
  List.iter
    (fun line ->
      match Protocol.request_of_line line with
      | Ok _ -> Alcotest.failf "accepted %S" line
      | Error _ -> ())
    bad

(* ---- bounded queue -------------------------------------------------- *)

let test_bqueue () =
  let q = Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1 = `Ok);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2 = `Ok);
  Alcotest.(check bool) "push 3 full" true (Bqueue.try_push q 3 = `Full);
  Alcotest.(check int) "length" 2 (Bqueue.length q);
  Alcotest.(check (option int)) "pop fifo" (Some 1) (Bqueue.pop q);
  Bqueue.close q;
  Alcotest.(check bool) "push closed" true (Bqueue.try_push q 4 = `Closed);
  Alcotest.(check (option int)) "drains after close" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "then empty" None (Bqueue.pop q)

let test_bqueue_threads () =
  let q = Bqueue.create ~capacity:4 in
  let popped = Atomic.make 0 in
  let consumers =
    List.init 3 (fun _ ->
        Thread.create
          (fun () ->
            let rec go () =
              match Bqueue.pop q with
              | Some _ ->
                Atomic.incr popped;
                go ()
              | None -> ()
            in
            go ())
          ())
  in
  let pushed = ref 0 in
  for i = 1 to 200 do
    let rec push () =
      match Bqueue.try_push q i with
      | `Ok -> incr pushed
      | `Full ->
        Thread.yield ();
        push ()
      | `Closed -> Alcotest.fail "closed early"
    in
    push ()
  done;
  Bqueue.close q;
  List.iter Thread.join consumers;
  Alcotest.(check int) "all items popped" !pushed (Atomic.get popped)

let test_bqueue_close_wakes_empty_pop () =
  (* consumers blocked on an EMPTY queue must all wake with None when
     the queue closes — the drain path's liveness guarantee *)
  let q = Bqueue.create ~capacity:2 in
  let woke = Atomic.make 0 in
  let consumers =
    List.init 4 (fun _ ->
        Thread.create
          (fun () ->
            match Bqueue.pop q with
            | None -> Atomic.incr woke
            | Some _ -> ())
          ())
  in
  Thread.delay 0.05;
  (* all four are parked in pop *)
  Bqueue.close q;
  List.iter Thread.join consumers;
  Alcotest.(check int) "every blocked consumer woke with None" 4
    (Atomic.get woke);
  Alcotest.(check bool) "is_closed" true (Bqueue.is_closed q)

let test_bqueue_close_race () =
  (* producers hammering try_push while close lands concurrently:
     every `Ok item must still come out of pop, and nothing after the
     close is lost half-way *)
  for _ = 1 to 20 do
    let q = Bqueue.create ~capacity:4 in
    let admitted = Atomic.make 0 in
    let producers =
      List.init 4 (fun _ ->
          Thread.create
            (fun () ->
              let rec go n =
                if n = 0 then ()
                else
                  match Bqueue.try_push q n with
                  | `Ok ->
                    Atomic.incr admitted;
                    go (n - 1)
                  | `Full ->
                    Thread.yield ();
                    go n
                  | `Closed -> ()
              in
              go 50)
            ())
    in
    let drained = Atomic.make 0 in
    let consumer =
      Thread.create
        (fun () ->
          let rec go () =
            match Bqueue.pop q with
            | Some _ ->
              Atomic.incr drained;
              go ()
            | None -> ()
          in
          go ())
        ()
    in
    Thread.yield ();
    Bqueue.close q;
    List.iter Thread.join producers;
    Thread.join consumer;
    Alcotest.(check int) "admitted = drained under close race"
      (Atomic.get admitted) (Atomic.get drained)
  done

let test_bqueue_capacity_clamp () =
  (* capacity is clamped to at least 1, so a misconfigured server
     still admits one request at a time instead of livelocking *)
  let q = Bqueue.create ~capacity:0 in
  Alcotest.(check bool) "one slot" true (Bqueue.try_push q 1 = `Ok);
  Alcotest.(check bool) "then full" true (Bqueue.try_push q 2 = `Full);
  Alcotest.(check (option int)) "delivered" (Some 1) (Bqueue.pop q)

(* ---- deadlines ------------------------------------------------------ *)

let test_deadline_cell () =
  let c = Deadline.cell () in
  Alcotest.(check bool) "first fill wins" true (Deadline.fill c 1);
  Alcotest.(check bool) "second fill loses" false (Deadline.fill c 2);
  Alcotest.(check (option int)) "value is first" (Some 1) (Deadline.peek c);
  Alcotest.(check (option int)) "await filled" (Some 1)
    (Deadline.await ~deadline_at:(Deadline.now () +. 1.) c);
  let empty = Deadline.cell () in
  Alcotest.(check (option int)) "await empty times out" None
    (Deadline.await ~deadline_at:(Deadline.now () +. 0.02) empty)

let test_deadline_run () =
  (match Deadline.run ~seconds:1. (fun () -> 7) with
  | Ok 7 -> ()
  | _ -> Alcotest.fail "fast call should complete");
  (match
     Deadline.run ~seconds:0.02 (fun () ->
         Thread.delay 0.3;
         0)
   with
  | Error `Timeout -> ()
  | Ok _ -> Alcotest.fail "slow call should time out");
  match Deadline.run ~seconds:1. (fun () -> failwith "boom") with
  | exception Failure msg when msg = "boom" -> ()
  | _ -> Alcotest.fail "exceptions should re-raise"

let test_deadline_edges () =
  (* a deadline already in the past: an empty cell answers None
     without blocking... *)
  let empty = Deadline.cell () in
  let t0 = Deadline.now () in
  Alcotest.(check (option int))
    "past deadline, empty cell" None
    (Deadline.await ~deadline_at:(Deadline.now () -. 1.) empty);
  Alcotest.(check bool) "and does not block" true (Deadline.now () -. t0 < 0.2);
  (* ...but a FILLED cell still delivers its value, even past the
     deadline — the server's "late result still lands" accounting
     depends on fill winning over the clock *)
  let filled = Deadline.cell () in
  ignore (Deadline.fill filled 9);
  Alcotest.(check (option int))
    "past deadline, filled cell" (Some 9)
    (Deadline.await ~deadline_at:(Deadline.now () -. 1.) filled);
  (* a fill after a timed-out await is the "late" case: it must still
     win the cell (first fill) and be visible to peek *)
  Alcotest.(check bool) "late fill wins" true (Deadline.fill empty 5);
  Alcotest.(check (option int)) "late value lands" (Some 5)
    (Deadline.peek empty)

let test_deadline_fill_race () =
  (* many racing fillers: exactly one wins, and every awaiter sees the
     winner's value *)
  for _ = 1 to 10 do
    let c = Deadline.cell () in
    let wins = Atomic.make 0 in
    let fillers =
      List.init 8 (fun i ->
          Thread.create
            (fun () -> if Deadline.fill c i then Atomic.incr wins)
            ())
    in
    List.iter Thread.join fillers;
    Alcotest.(check int) "exactly one fill wins" 1 (Atomic.get wins);
    match (Deadline.peek c, Deadline.await c) with
    | Some p, Some a -> Alcotest.(check int) "peek = await" p a
    | _ -> Alcotest.fail "winner's value must be visible"
  done

(* ---- catalog -------------------------------------------------------- *)

let tree s = Sxml.Parse.of_string s

let test_catalog_names () =
  let c = Catalog.create () in
  let e = Catalog.add c ~name:"a" (tree "<a><b/></a>") in
  ignore (Catalog.add c ~name:"b" (tree "<x/>"));
  Alcotest.(check (list string)) "names in order" [ "a"; "b" ]
    (Catalog.names c);
  Alcotest.(check bool) "find" true
    (match Catalog.find c "a" with Some x -> x == e | None -> false);
  Alcotest.(check bool) "missing" true (Catalog.find c "zz" = None);
  Alcotest.(check int) "height" 2 (Catalog.snapshot_height c (Catalog.pin e));
  Alcotest.(check (option int)) "memoized" (Some 2)
    (Catalog.snapshot_memoized_height (Catalog.pin e))

let test_catalog_intern () =
  let c = Catalog.create () in
  let d1 = tree "<a><b/></a>" in
  let others = List.init 64 (fun _ -> tree "<a/>") in
  let e1 = Catalog.intern c d1 in
  Alcotest.(check bool) "same tree, same entry" true
    (Catalog.intern c d1 == e1);
  ignore (Catalog.snapshot_height c e1);
  List.iter (fun d -> ignore (Catalog.intern c d)) others;
  (* 65 trees through the 64-entry bound: d1's anonymous entry was
     evicted, so re-interning recomputes the height *)
  let walks_before = Catalog.height_walks c in
  ignore (Catalog.snapshot_height c (Catalog.intern c d1));
  Alcotest.(check bool) "evicted entry recomputes" true
    (Catalog.height_walks c > walks_before);
  (* named entries never evict *)
  let d2 = List.hd others in
  let named = Catalog.add c ~name:"n" d2 in
  Alcotest.(check bool) "named tree interns to named entry" true
    (Catalog.intern c d2 == Catalog.pin named)

let test_catalog_height_once_concurrently () =
  let c = Catalog.create () in
  let e = Catalog.add c ~name:"d" (tree "<a><b><c/></b><b/></a>") in
  let results = Array.make 8 0 in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            results.(i) <- Catalog.snapshot_height c (Catalog.pin e))
          ())
  in
  List.iter Thread.join threads;
  Array.iter (fun h -> Alcotest.(check int) "height" 3 h) results;
  Alcotest.(check int) "one walk for 8 concurrent callers" 1
    (Catalog.height_walks c)

(* ---- pipeline thread-safety ----------------------------------------- *)

let adex_groups () =
  [
    ("re", Workload.Adex.spec);
    ("all", Secview.Spec.make Workload.Adex.dtd []);
  ]

let adex_docs () =
  List.filteri
    (fun i _ -> i < 2)
    (List.map
       (fun ds -> Workload.Datasets.load ds)
       (Workload.Datasets.series ~scale:2 ()))

let test_pipeline_hammer () =
  let dtd = Workload.Adex.dtd in
  let groups = adex_groups () in
  let docs = adex_docs () in
  let cells =
    List.concat_map
      (fun (g, _) ->
        List.concat_map
          (fun (_, q) -> List.map (fun d -> (g, q, d)) docs)
          Workload.Adex.queries)
      groups
  in
  let render ns =
    String.concat "\n" (List.map (fun n -> Sxml.Print.to_string n) ns)
  in
  let reference = Pipeline.Session.create (Pipeline.Service.create dtd ~groups) in
  let expected =
    List.map
      (fun (g, q, d) ->
        render (Pipeline.Session.answer_exn reference ~group:g q d))
      cells
  in
  let service = Pipeline.Service.create dtd ~groups in
  let wrong = Atomic.make 0 in
  let n_threads = 8 and iters = 10 in
  let sessions = Array.make n_threads None in
  let worker i =
    let pipe = Pipeline.Session.create service in
    sessions.(i) <- Some pipe;
    for _ = 1 to iters do
      List.iter2
        (fun (g, q, d) want ->
          if
            not
              (String.equal
                 (render (Pipeline.Session.answer_exn pipe ~group:g q d))
                 want)
          then Atomic.incr wrong)
        cells expected
    done
  in
  let threads = List.init n_threads (fun i -> Thread.create worker i) in
  List.iter Thread.join threads;
  Alcotest.(check int) "no wrong answers under contention" 0
    (Atomic.get wrong);
  (* per group, merged over every session: every answer call consults
     the translation cache exactly once, so hits + misses must equal
     the calls issued, and each private cache must have warmed up
     (misses well below calls) *)
  let calls_per_group =
    n_threads * iters * List.length Workload.Adex.queries * List.length docs
  in
  let merged g =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some p ->
          Pipeline.stats_merge acc (Pipeline.Session.stats_of p ~group:g))
      Pipeline.stats_zero sessions
  in
  List.iter
    (fun g ->
      let s : Pipeline.stats = merged g in
      Alcotest.(check int)
        (Printf.sprintf "hits+misses accounted for (%s)" g)
        calls_per_group (s.hits + s.misses);
      Alcotest.(check bool)
        (Printf.sprintf "cache warmed (%s)" g)
        true
        (s.misses < calls_per_group && s.hits > 0);
      (* the default engine consults the plan cache on every call *)
      Alcotest.(check int)
        (Printf.sprintf "plan lookups accounted for (%s)" g)
        calls_per_group
        (s.plan_hits + s.plan_misses);
      Alcotest.(check bool)
        (Printf.sprintf "plan cache warmed (%s)" g)
        true
        (s.plan_misses < calls_per_group && s.plan_hits > 0))
    (Pipeline.Service.order service)

(* ---- multi-domain hammer: readers race one writer ------------------- *)

(* N worker domains, each running M sessions over the shared service,
   answer a fixed query mix against two groups while one coordinator
   domain applies admitted updates.  Every observation is replayed
   post-hoc through a fresh single-threaded session against the exact
   document version the reader pinned: answers must be byte-identical,
   and no reader may ever see the catalog version move backwards. *)
let test_multidomain_hammer () =
  let dtd = Workload.Hospital.dtd in
  let full =
    Secview.Spec.make
      ~write:[ (("patientInfo", "patient"), [ Secview.Spec.Insert ]) ]
      dtd []
  in
  let billing =
    Secview.Spec.of_sidecar dtd
      "dept staffInfo N\ndept clinicalTrial N\nclinicalTrial patientInfo Y\n"
  in
  let groups = [ ("full", full); ("billing", billing) ] in
  let catalog = Catalog.create () in
  let entry =
    Catalog.add catalog ~name:"doc" (Workload.Hospital.sample_document ())
  in
  let svc = Pipeline.Service.create ~catalog dtd ~groups in
  let queries =
    List.map Sxpath.Parse.of_string
      [ "//patient/name"; "//bill"; "//staff"; "//patient" ]
  in
  let render ns =
    String.concat "\n" (List.map (fun n -> Sxml.Print.to_string n) ns)
  in
  let writes = 12 and n_domains = 2 and m_sessions = 2 and rounds = 20 in
  let flock = Mutex.create () in
  let failures = ref [] in
  let fail msg = Mutex.protect flock (fun () -> failures := msg :: !failures) in
  (* the coordinator is the only writer; it retains every version's
     document (from the receipts) for the post-hoc oracle *)
  let versions = ref [ (Catalog.version entry, Catalog.doc entry) ] in
  let coordinator =
    Domain.spawn (fun () ->
        for i = 1 to writes do
          let text =
            Printf.sprintf
              "insert into //patientInfo[patient/name = \"Bob\"] <patient><name>p%d</name><wardNo>6</wardNo><treatment><trial><bill>%d</bill></trial></treatment></patient>"
              i i
          in
          (match Supdate.Engine.apply_text svc ~group:"full" ~entry text with
          | Ok r ->
            versions :=
              (r.Supdate.Engine.r_new_version, r.Supdate.Engine.r_doc)
              :: !versions
          | Error e -> fail ("write rejected: " ^ Secview.Error.to_code e));
          Thread.yield ()
        done)
  in
  let readers =
    List.init n_domains (fun _ ->
        Domain.spawn (fun () ->
            let sessions =
              List.init m_sessions (fun _ ->
                  Pipeline.Session.create svc)
            in
            let obs = ref [] in
            let last_v = ref 0 in
            for _ = 1 to rounds do
              List.iter
                (fun sess ->
                  List.iter
                    (fun (g, _) ->
                      List.iteri
                        (fun qi q ->
                          let snap = Catalog.pin entry in
                          let v = Catalog.snapshot_version snap in
                          let doc = Catalog.snapshot_doc snap in
                          if v < !last_v then
                            fail "snapshot version went backwards";
                          last_v := v;
                          let bytes =
                            render
                              (Pipeline.Session.answer_exn sess ~group:g q doc)
                          in
                          obs := (g, qi, v, bytes) :: !obs)
                        queries)
                    groups)
                sessions
            done;
            !obs))
  in
  Domain.join coordinator;
  let all_obs = List.concat_map Domain.join readers in
  (match !failures with
  | [] -> ()
  | msgs -> Alcotest.failf "hammer failures: %s" (String.concat "; " msgs));
  let vmap = !versions in
  Alcotest.(check int) "every write admitted" (writes + 1) (List.length vmap);
  let oracle = Pipeline.Session.create (Pipeline.Service.create dtd ~groups) in
  List.iter
    (fun (g, qi, v, bytes) ->
      match List.assoc_opt v vmap with
      | None ->
        Alcotest.failf "version tearing: v%d was never produced by the writer"
          v
      | Some doc ->
        let want =
          render
            (Pipeline.Session.answer_exn oracle ~group:g (List.nth queries qi)
               doc)
        in
        if not (String.equal want bytes) then
          Alcotest.failf "answer diverges from the oracle (group %s, q%d, v%d)"
            g qi v)
    all_obs;
  Alcotest.(check int) "observations recorded"
    (n_domains * m_sessions * rounds * List.length groups
   * List.length queries)
    (List.length all_obs)

(* ---- the server over a real socket ---------------------------------- *)

let connect path = Conn.connect ~wait:5. (Unix.ADDR_UNIX path)
let recv c = snd (Conn.recv c)

let reply_code j =
  match J.member "code" j with Some (J.String c) -> Some c | _ -> None

let check_code what want j =
  if Protocol.is_ok j then Alcotest.failf "%s unexpectedly succeeded" what;
  Alcotest.(check (option string)) what (Some want) (reply_code j)

let rid_of j = Option.bind (J.member "rid" j) J.to_string_opt

let with_server ?config ?audit ?metrics ?recorder ?tracer ?runtime ?capture
    ?(dtd = Workload.Adex.dtd) ?(groups = adex_groups ()) ~docs () k =
  let catalog = Catalog.create () in
  List.iter (fun (n, d) -> ignore (Catalog.add catalog ~name:n d)) docs;
  let service = Pipeline.Service.create ~catalog dtd ~groups in
  let server =
    Server.create ?config ?audit ?metrics ?recorder ?tracer ?runtime ?capture
      service
  in
  let path = Filename.temp_file "secview-test" ".sock" in
  Sys.remove path;
  let th =
    Thread.create (fun () -> Server.serve server [ Server.Unix_socket path ]) ()
  in
  Fun.protect
    ~finally:(fun () ->
      (* idempotent: tests that already drained just re-request *)
      Server.request_drain server;
      Thread.join th)
    (fun () -> k server path)

let test_server_roundtrips () =
  let doc = List.hd (adex_docs ()) in
  with_server ~docs:[ ("d1", doc) ] () @@ fun _server path ->
  let c = connect path in
  Conn.send c (Protocol.simple "ping");
  Alcotest.(check bool) "pong" true (Protocol.is_ok (recv c));
  (* queries before hello are refused *)
  Conn.send c (Protocol.query_json "//house");
  check_code "no session" Protocol.no_session (recv c);
  Conn.send c (Protocol.hello ~peer:"tests" "nosuch");
  check_code "unknown group" Protocol.unknown_group (recv c);
  Conn.send_line c "this is not json";
  check_code "bad json" Protocol.bad_request (recv c);
  Conn.send c (Protocol.hello ~peer:"tests" "re");
  let j = recv c in
  Alcotest.(check bool) "hello ok" true (Protocol.is_ok j);
  Alcotest.(check bool) "session id" true (J.member "session" j <> None);
  (* the answer matches the single-threaded pipeline byte for byte *)
  let expected =
    let reference =
      Pipeline.Session.create
        (Pipeline.Service.create Workload.Adex.dtd ~groups:(adex_groups ()))
    in
    List.map
      (fun n -> Sxml.Print.to_string n)
      (Pipeline.Session.answer_exn reference ~group:"re"
         (Sxpath.Parse.of_string "//house") doc)
  in
  Conn.send c (Protocol.query_json ~doc:"d1" "//house");
  let j = recv c in
  Alcotest.(check bool) "query ok" true (Protocol.is_ok j);
  (match J.member "results" j with
  | Some (J.List rs) ->
    Alcotest.(check (list string))
      "byte-identical to Session.answer" expected
      (List.filter_map J.to_string_opt rs)
  | _ -> Alcotest.fail "no results field");
  Conn.send c (Protocol.query_json ~doc:"zz" "//house");
  check_code "unknown document" Protocol.unknown_document (recv c);
  Conn.send c (Protocol.query_json ~doc:"d1" "//house[");
  check_code "query parse error" Protocol.query_error (recv c);
  Conn.send c (Protocol.simple "stats");
  let j = recv c in
  Alcotest.(check bool) "stats ok" true (Protocol.is_ok j);
  Alcotest.(check bool) "stats counters" true (J.member "counters" j <> None);
  (* a plain server refuses the debug sleep command *)
  Conn.send_line c "{\"cmd\":\"sleep\",\"ms\":1}";
  check_code "sleep needs debug" Protocol.bad_request (recv c);
  Conn.close c

(* Older clients send an ["index"] flag with a query.  The server
   ignores it: with it, true or false, the reply is byte-identical to
   the one without it. *)
let test_server_ignores_index_flag () =
  let dtd = Workload.Hospital.dtd in
  with_server ~dtd
    ~groups:[ ("nurse", Workload.Hospital.nurse_spec dtd) ]
    ~docs:[ ("ward", Workload.Hospital.sample_document ()) ]
    ()
  @@ fun _server path ->
  let c = connect path in
  Conn.send c (Protocol.hello ~peer:"tests" "nurse");
  Alcotest.(check bool) "hello ok" true (Protocol.is_ok (recv c));
  let ask extra =
    Conn.send_line c
      (Printf.sprintf
         {|{"cmd":"query","rid":"q","query":"//patient//bill",%s%s}|}
         {|"bind":{"wardNo":"6"}|} extra);
    Conn.recv_line c
  in
  let plain = ask "" in
  (match J.of_string plain with
  | Ok j when Protocol.is_ok j ->
    Alcotest.(check bool) "the query answers something" true
      (J.member "results" j <> Some (J.List []))
  | _ -> Alcotest.failf "query refused: %s" plain);
  Alcotest.(check string) "index:true changes nothing" plain
    (ask {|,"index":true|});
  Alcotest.(check string) "index:false changes nothing" plain
    (ask {|,"index":false|});
  Conn.close c

(* A connection whose descriptor is past [FD_SETSIZE] (1,024) is served
   like any other: its loop waits on a receive timeout, and [select]
   cannot watch such a descriptor.  The test opens [/dev/null]
   descriptors (no threads, no connections) until the next one is past
   the limit, then connects. *)
let test_server_descriptor_past_fd_setsize () =
  let dtd = Workload.Hospital.dtd in
  with_server ~dtd
    ~groups:[ ("nurse", Workload.Hospital.nurse_spec dtd) ]
    ~docs:[ ("ward", Workload.Hospital.sample_document ()) ]
    ()
  @@ fun _server path ->
  (* a first answer proves the listener open, below the limit: the
     acceptor's own [select] is not what this test is about *)
  let c = connect path in
  Conn.send c (Protocol.simple "ping");
  Alcotest.(check bool) "pong below the limit" true (Protocol.is_ok (recv c));
  Conn.close c;
  (* on Unix a descriptor is its number *)
  let number (fd : Unix.file_descr) : int = Obj.magic fd in
  let opened = ref [] in
  let rec fill () =
    match Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
    | fd ->
      opened := fd :: !opened;
      number fd >= 1024 || fill ()
    | exception Unix.Unix_error ((EMFILE | ENFILE), _, _) -> false
  in
  Fun.protect ~finally:(fun () -> List.iter Unix.close !opened) @@ fun () ->
  if not (fill ()) then begin
    print_endline
      "skipped: the soft descriptor limit is too low to open one past 1,024";
    Alcotest.skip ()
  end;
  let c = connect path in
  Fun.protect ~finally:(fun () -> Conn.close c) @@ fun () ->
  Alcotest.(check bool) "the connection's descriptor is past 1,024" true
    (number (Conn.fd c) > 1024);
  (* a server that cannot serve the connection never replies: the
     timed-out read raises [Sys_blocked_io] *)
  Unix.setsockopt_float (Conn.fd c) SO_RCVTIMEO 5.;
  let call what request =
    match Conn.call c request with
    | _, reply -> reply
    | exception (Conn.Error _ | Sys_blocked_io) ->
      Alcotest.failf "%s: no reply within 5 s" what
  in
  Alcotest.(check bool) "pong" true
    (Protocol.is_ok (call "ping" (Protocol.simple "ping")));
  ignore (call "hello" (Protocol.hello ~peer:"tests" "nurse"));
  let j =
    call "query"
      (Protocol.query_json ~bind:[ ("wardNo", "6") ] "//patient/name")
  in
  Alcotest.(check bool) "the query is answered" true
    (Protocol.is_ok j && J.member "results" j <> Some (J.List []))

(* Every job the worker pool or the coordinator pops records how long
   it queued, in one series per verb; no group name reaches a
   queue-wait series. *)
let test_server_queue_wait () =
  let dtd = Workload.Hospital.dtd in
  let spec =
    Workload.Hospital.nurse_spec
      ~write:[ (("regular", "bill"), [ Secview.Spec.Replace ]) ]
      dtd
  in
  with_server ~dtd ~groups:[ ("nurse", spec) ]
    ~docs:[ ("ward", Workload.Hospital.sample_document ()) ]
    ()
  @@ fun server path ->
  let c = connect path in
  Conn.send c (Protocol.hello ~peer:"tests" "nurse");
  ignore (recv c);
  let bind = [ ("wardNo", "6") ] in
  Conn.send c (Protocol.query_json ~bind "//patient/name");
  Alcotest.(check bool) "query ok" true (Protocol.is_ok (recv c));
  Conn.send c
    (Protocol.update_json ~bind
       "replace //patient[name = \"Bob\"]//bill with <bill>7</bill>");
  Alcotest.(check bool) "update ok" true (Protocol.is_ok (recv c));
  Conn.close c;
  let snap = Server.metrics server in
  List.iter
    (fun (verb, n) ->
      Alcotest.(check int) ("queued " ^ verb) n
        (match Sobs.Metrics.summary snap ("server.queue_wait_ms." ^ verb) with
        | Some s -> s.Sobs.Metrics.count
        | None -> 0))
    [ ("query", 1); ("update", 1); ("explain", 0) ];
  Alcotest.(check (list string)) "constant names"
    [ "server.queue_wait_ms.query"; "server.queue_wait_ms.update" ]
    (List.filter
       (fun name -> String.starts_with ~prefix:"server.queue_wait_ms." name)
       (List.map fst (Sobs.Metrics.summaries snap)));
  Alcotest.(check bool) "in the exposition" true
    (List.exists
       (String.starts_with ~prefix:"# TYPE secview_server_queue_wait_ms_update ")
       (String.split_on_char '\n' (Server.openmetrics server)))

(* Concurrent clients against a server with one and with four worker
   domains: every reply must be the one-session answer, byte for byte,
   whichever domain served it. *)
let test_server_concurrent_clients () =
  let groups = adex_groups () in
  let docs =
    List.mapi (fun i d -> (Printf.sprintf "d%d" (i + 1), d)) (adex_docs ())
  in
  let reference =
    Pipeline.Session.create (Pipeline.Service.create Workload.Adex.dtd ~groups)
  in
  (* computed before any client starts: a session is not shared
     between threads *)
  let expected =
    List.map
      (fun (g, _) ->
        ( g,
          List.concat_map
            (fun (_, q) ->
              List.map
                (fun (dname, doc) ->
                  ( Sxpath.Print.to_string q,
                    dname,
                    List.map
                      (fun n -> Sxml.Print.to_string n)
                      (Pipeline.Session.answer_exn reference ~group:g q doc) ))
                docs)
            Workload.Adex.queries ))
      groups
  in
  let clients = 4 and rounds = 5 in
  List.iter
    (fun domains ->
      let config = { Server.default_config with domains } in
      with_server ~config ~docs () @@ fun _server path ->
      let right = Atomic.make 0 in
      let client i () =
        let g = fst (List.nth groups (i mod List.length groups)) in
        let c = connect path in
        Conn.send c (Protocol.hello ~peer:"tests" g);
        ignore (recv c);
        for _ = 1 to rounds do
          List.iter
            (fun (q, dname, want) ->
              Conn.send c (Protocol.query_json ~doc:dname q);
              match J.member "results" (recv c) with
              | Some (J.List rs) when List.filter_map J.to_string_opt rs = want
                ->
                Atomic.incr right
              | _ -> ())
            (List.assoc g expected)
        done;
        Conn.close c
      in
      let threads = List.init clients (fun i -> Thread.create (client i) ()) in
      List.iter Thread.join threads;
      Alcotest.(check int)
        (Printf.sprintf "replies equal to Session.answer (%d domains)" domains)
        (clients * rounds * List.length Workload.Adex.queries
       * List.length docs)
        (Atomic.get right))
    [ 1; 4 ]

(* Reply lines carry text that both escapings touch: XML's ([&], [<],
   [>], quotes in attributes) inside JSON's (quotes, backslash, tab,
   newline, control characters), plus non-ASCII text that neither
   escapes.  Whichever thread builds a reply — a worker for answers and
   document errors, the connection thread for [ping] — the line must be
   byte for byte [J.to_string] of the reply and a newline, on one
   domain (every consumer a thread of the runtime's domain) and on
   four. *)
let test_server_escaped_replies () =
  let dtd =
    Sdtd.Parse.of_string
      {|<!ELEMENT notes (note*)>
        <!ELEMENT note (body)>
        <!ATTLIST note by CDATA #REQUIRED>
        <!ELEMENT body (#PCDATA)>|}
  in
  let texts =
    [
      "a & b < c > d";
      "say \"hi\" and 'bye'";
      "back\\slash\ttab\nnewline\rreturn";
      "bell\007 nul-ish\001 escape\027";
      "caf\xc3\xa9 \xe6\x97\xa5\xe6\x9c\xac \xf0\x9f\x98\x80";
      "";
    ]
  in
  let doc =
    Sxml.Tree.(
      of_spec
        (elem "notes"
           (List.map
              (fun t ->
                elem "note" ~attrs:[ ("by", t) ] [ elem "body" [ text t ] ])
              texts)))
  in
  let groups = [ ("all", Secview.Spec.make dtd []) ] in
  let reference =
    Pipeline.Session.create (Pipeline.Service.create dtd ~groups)
  in
  let answer_line rid q =
    let rendered =
      List.map
        (fun n -> Sxml.Print.to_string n)
        (Pipeline.Session.answer_exn reference ~group:"all"
           (Sxpath.Parse.of_string q) doc)
    in
    J.to_string
      (Protocol.ok ~rid
         [
           ("results", J.List (List.map (fun s -> J.String s) rendered));
           ("count", J.Int (List.length rendered));
         ])
    ^ "\n"
  in
  (* the raw line, newline included, read straight off the socket *)
  let read_line c =
    let b = Buffer.create 256 and byte = Bytes.create 1 in
    let rec go () =
      if Unix.read (Conn.fd c) byte 0 1 = 0 then Alcotest.fail "hung up"
      else begin
        Buffer.add_bytes b byte;
        if Bytes.get byte 0 <> '\n' then go ()
      end
    in
    go ();
    Buffer.contents b
  in
  let odd = "q\"\\\t\001\xc3\xa9" in
  List.iter
    (fun domains ->
      let config = { Server.default_config with domains } in
      with_server ~config ~dtd ~groups ~docs:[ ("notes", doc) ] ()
      @@ fun _server path ->
      let c = connect path in
      let call json want =
        Conn.send c json;
        Alcotest.(check string)
          (Printf.sprintf "%s (%d domains)" (J.to_string json) domains)
          want (read_line c)
      in
      call (Protocol.hello "all")
        (J.to_string
           (Protocol.ok ~rid:"r1-1"
              [ ("session", J.Int 1); ("group", J.String "all") ])
        ^ "\n");
      List.iteri
        (fun i q ->
          let rid = Printf.sprintf "e%d" i in
          call (Protocol.query_json ~rid q) (answer_line rid q))
        [ "//note"; "//body"; "/notes"; "//note[body]" ];
      call
        (Protocol.query_json ~rid:odd ~doc:odd "//note")
        (J.to_string
           (Protocol.error_of ~rid:odd
              (Secview.Error.Unknown_doc
                 { doc = Some odd; known = [ "notes" ] }))
        ^ "\n");
      call
        (J.Obj [ ("cmd", J.String "ping"); ("rid", J.String odd) ])
        (J.to_string (Protocol.ok ~rid:odd [ ("pong", J.Bool true) ]) ^ "\n");
      Conn.close c)
    [ 1; 4 ]

let test_server_overload () =
  let config =
    { Server.default_config with domains = 1; queue_capacity = 1; debug = true }
  in
  let recorder = Sobs.Recorder.create ~capacity:8 in
  with_server ~config ~recorder ~docs:[ ("d1", List.hd (adex_docs ())) ] ()
  @@ fun _server path ->
  let c1 = connect path in
  let c2 = connect path in
  let c3 = connect path in
  Conn.send c3 (Protocol.hello ~peer:"tests" "re");
  Alcotest.(check bool) "hello" true (Protocol.is_ok (recv c3));
  (* c1 occupies the only worker, c2 fills the only queue slot, c3
     must be turned away immediately — not enqueued, not hung *)
  Conn.send_line c1 "{\"cmd\":\"sleep\",\"ms\":400}";
  Thread.delay 0.1;
  Conn.send_line c2 "{\"cmd\":\"sleep\",\"ms\":10}";
  Thread.delay 0.1;
  let t0 = Deadline.now () in
  Conn.send_line c3 "{\"cmd\":\"sleep\",\"ms\":10}";
  let j3 = recv c3 in
  let waited = Deadline.now () -. t0 in
  check_code "third request refused" Protocol.overloaded j3;
  Alcotest.(check bool) "refused immediately, not queued" true (waited < 0.25);
  (* a shed query is still a request: it reaches the flight ring *)
  Conn.send c3 (Protocol.query_json ~rid:"shed" ~doc:"d1" "//house");
  check_code "query refused" Protocol.overloaded (recv c3);
  Alcotest.(check (list string)) "shed query in flight" [ "overloaded" ]
    (List.filter_map
       (fun (r : Sobs.Request.t) ->
         if r.rid = Some "shed" then Some r.status else None)
       (Sobs.Recorder.entries recorder));
  Alcotest.(check bool) "first completes" true (Protocol.is_ok (recv c1));
  Alcotest.(check bool) "queued one completes" true (Protocol.is_ok (recv c2));
  List.iter Conn.close [ c1; c2; c3 ]

let test_server_timeout () =
  let config =
    { Server.default_config with domains = 1; deadline = Some 0.05;
      debug = true }
  in
  with_server ~config ~docs:[ ("d1", List.hd (adex_docs ())) ] ()
  @@ fun _server path ->
  let c = connect path in
  Conn.send_line c "{\"cmd\":\"sleep\",\"ms\":300}";
  check_code "deadline exceeded" Protocol.timeout (recv c);
  Conn.close c

let test_server_rid_and_flight () =
  let doc = List.hd (adex_docs ()) in
  let recorder = Sobs.Recorder.create ~capacity:8 in
  with_server ~recorder ~docs:[ ("d1", doc) ] () @@ fun _server path ->
  let c = connect path in
  (* a server-generated rid on every reply, r<session>-<n> shaped *)
  Conn.send c (Protocol.simple "ping");
  (match rid_of (recv c) with
  | Some r when String.length r > 1 && r.[0] = 'r' -> ()
  | other ->
    Alcotest.failf "expected a generated rid, got %s"
      (Option.value ~default:"<none>" other));
  (* the client's rid wins and is echoed verbatim, on success... *)
  Conn.send_line c "{\"cmd\":\"ping\",\"rid\":\"mine-1\"}";
  Alcotest.(check (option string)) "client rid echoed" (Some "mine-1")
    (rid_of (recv c));
  (* ...and on error replies, even for lines that are not commands *)
  Conn.send_line c "{\"cmd\":\"frob\",\"rid\":\"mine-2\"}";
  let j = recv c in
  Alcotest.(check bool) "frob refused" false (Protocol.is_ok j);
  Alcotest.(check (option string)) "rid on error reply" (Some "mine-2")
    (rid_of j);
  (* the flight recorder retains the answered query in full fidelity,
     keyed by the same rid the reply carried *)
  Conn.send c (Protocol.hello ~peer:"tests" "re");
  Alcotest.(check bool) "hello" true (Protocol.is_ok (recv c));
  Conn.send c (Protocol.query_json ~rid:"fq-1" ~doc:"d1" "//house");
  Alcotest.(check bool) "query ok" true (Protocol.is_ok (recv c));
  Conn.send c (Protocol.simple "flight");
  let j = recv c in
  Alcotest.(check bool) "flight ok" true (Protocol.is_ok j);
  (match J.member "entries" j with
  | Some (J.List es) ->
    Alcotest.(check bool) "recorder holds the query under its rid" true
      (List.exists
         (fun e ->
           rid_of e = Some "fq-1"
           && Option.is_some
                (Option.bind (J.member "digest" e) J.to_string_opt))
         es)
  | _ -> Alcotest.fail "flight reply has no entries");
  Conn.close c

let test_server_gc_attribution () =
  let doc = List.hd (adex_docs ()) in
  let recorder = Sobs.Recorder.create ~capacity:8 in
  let tracer = Sobs.Tracer.create ~retain:false () in
  Sobs.Tracer.install tracer;
  let runtime = Sobs.Runtime.offline () in
  (* a synthetic pause so wide every request's span window overlaps
     it: the flight entry must carry a non-zero attribution *)
  Sobs.Runtime.inject_pause runtime ~domain:0 ~kind:Sobs.Runtime.Minor
    ~start_ns:0L ~stop_ns:Int64.max_int;
  Fun.protect ~finally:Sobs.Tracer.uninstall @@ fun () ->
  with_server ~recorder ~tracer ~runtime ~docs:[ ("d1", doc) ] ()
  @@ fun _server path ->
  let c = connect path in
  Conn.send c (Protocol.hello ~peer:"tests" "re");
  Alcotest.(check bool) "hello" true (Protocol.is_ok (recv c));
  Conn.send c (Protocol.query_json ~rid:"gc-1" ~doc:"d1" "//house");
  Alcotest.(check bool) "query ok" true (Protocol.is_ok (recv c));
  Conn.send c (Protocol.simple "flight");
  let j = recv c in
  Alcotest.(check bool) "flight ok" true (Protocol.is_ok j);
  (match J.member "entries" j with
  | Some (J.List es) -> (
    match
      List.find_opt
        (fun e ->
          Option.bind (J.member "rid" e) J.to_string_opt = Some "gc-1")
        es
    with
    | Some e ->
      let ms =
        Option.value ~default:0.
          (Option.bind (J.member "gc_pause_ms" e) J.to_float_opt)
      in
      let n =
        Option.value ~default:0
          (Option.bind (J.member "gc_pauses" e) J.to_int_opt)
      in
      Alcotest.(check bool)
        (Printf.sprintf "overlapping pause stamped (%g ms)" ms)
        true (ms > 0.);
      Alcotest.(check int) "one pause episode" 1 n
    | None -> Alcotest.fail "no flight entry for gc-1")
  | _ -> Alcotest.fail "flight reply has no entries");
  (* the stats verb carries the runtime section with the same pause *)
  Conn.send c (Protocol.simple "stats");
  let j = recv c in
  Alcotest.(check bool) "stats ok" true (Protocol.is_ok j);
  (match J.member "runtime" j with
  | Some rt ->
    Alcotest.(check (option bool)) "runtime enabled" (Some true)
      (Option.bind (J.member "enabled" rt) J.to_bool_opt);
    Alcotest.(check int) "one pause total" 1
      (Option.value ~default:0
         (Option.bind (J.member "pauses_total" rt) J.to_int_opt))
  | None -> Alcotest.fail "stats reply has no runtime section");
  Conn.close c

(* A line that never ends is refused once, typed, and hung up on —
   the server neither buffers it without bound nor stops answering
   other connections. *)
let test_server_oversized_line () =
  let doc = List.hd (adex_docs ()) in
  with_server ~docs:[ ("d1", doc) ] () @@ fun server path ->
  let c = connect path in
  (* a server that buffers forever must fail the test, not hang it *)
  Unix.setsockopt_float (Conn.fd c) Unix.SO_RCVTIMEO 10.;
  let writer =
    Thread.create
      (fun () ->
        (* 2 MiB, no newline; the server hangs up midway *)
        try Conn.write c (String.make (2 * 1024 * 1024) 'x')
        with Conn.Error _ | Unix.Unix_error _ -> ())
      ()
  in
  check_code "oversized line refused" Protocol.bad_request (recv c);
  (* hung up: EOF, or a reset because the rest of the line went unread *)
  (match Conn.recv_line c with
  | exception Conn.Error _ -> ()
  | line -> Alcotest.failf "expected a closed socket, got %S" line);
  Thread.join writer;
  Conn.close c;
  Alcotest.(check (option int)) "counted" (Some 1)
    (List.assoc_opt "server.rejected.oversized"
       (Sobs.Metrics.counters (Server.metrics server)));
  let c = connect path in
  Conn.send c (Protocol.simple "ping");
  Alcotest.(check bool) "another connection is still answered" true
    (Protocol.is_ok (recv c));
  Conn.close c

(* A request line of a million opening brackets fits under the line
   cap; it is refused as [bad_request] at the nesting bound, and the
   same connection goes on to answer a query. *)
let test_server_deep_line () =
  let doc = List.hd (adex_docs ()) in
  with_server ~docs:[ ("d1", doc) ] () @@ fun _server path ->
  let c = connect path in
  Unix.setsockopt_float (Conn.fd c) Unix.SO_RCVTIMEO 10.;
  Conn.send_line c (String.make 1_000_000 '[');
  let reply = recv c in
  check_code "deep line refused" Protocol.bad_request reply;
  Alcotest.(check (option string))
    "the error names the bound"
    (Some "invalid JSON: at offset 512: nesting deeper than 512")
    (Option.bind (J.member "error" reply) J.to_string_opt);
  Conn.send c (Protocol.hello ~peer:"tests" "all");
  Alcotest.(check bool) "hello ok" true (Protocol.is_ok (recv c));
  Conn.send c (Protocol.query_json "//ad-instance");
  let j = recv c in
  Alcotest.(check bool) "answered" true (Protocol.is_ok j);
  Alcotest.(check bool) "with results" true
    (match J.member "results" j with Some (J.List (_ :: _)) -> true | _ -> false);
  Conn.close c

let jsonl_of_string text =
  List.filter_map
    (fun l ->
      if l = "" then None
      else
        match J.of_string l with
        | Ok j -> Some j
        | Error e -> Alcotest.failf "bad JSONL line %S: %s" l e)
    (String.split_on_char '\n' text)

(* Every sink is a projection of one request record, so the flight
   entry, the audit record and the capture record of a request agree on
   every field they share: an answered query, a fast-path denial, an
   admitted and a refused write, and a failed query. *)
let test_sink_agreement () =
  let dtd = Workload.Hospital.dtd in
  let spec =
    Workload.Hospital.nurse_spec
      ~write:
        [
          (("regular", "bill"), [ Secview.Spec.Replace ]);
          (("patientInfo", "patient"), Secview.Spec.all_write_ops);
        ]
      dtd
  in
  let buf = Buffer.create 1024 in
  let audit = Sobs.Audit_log.create (Sobs.Audit_log.Buffer buf) in
  let recorder = Sobs.Recorder.create ~capacity:16 in
  let cap_path = Filename.temp_file "secview-sinks" ".jsonl" in
  let capture = Sobs.Capture.open_file cap_path in
  Fun.protect ~finally:(fun () -> Sys.remove cap_path) @@ fun () ->
  let bind = [ ("wardNo", "6") ] in
  let flight =
    with_server ~audit ~recorder ~capture ~dtd ~groups:[ ("user", spec) ]
      ~docs:[ ("ward", Workload.Hospital.sample_document ()) ]
      ()
    @@ fun _server path ->
    let c = connect path in
    Conn.send c (Protocol.hello ~peer:"sinks" "user");
    Alcotest.(check bool) "hello" true (Protocol.is_ok (recv c));
    let ask what want json =
      Conn.send c json;
      Alcotest.(check bool) what want (Protocol.is_ok (recv c))
    in
    ask "answered" true
      (Protocol.query_json ~rid:"s-ok" ~doc:"ward" ~bind "//patient/name");
    ask "denied at admission" true
      (Protocol.query_json ~rid:"s-denied" ~doc:"ward" ~bind "//test");
    ask "admitted write" true
      (Protocol.update_json ~rid:"s-write" ~doc:"ward" ~bind
         "replace //patient[name = \"Bob\"]//bill with <bill>150</bill>");
    ask "refused write" false
      (Protocol.update_json ~rid:"s-refused" ~doc:"ward" ~bind
         "delete //patient[name = \"Bob\"]");
    ask "unknown document" false
      (Protocol.query_json ~rid:"s-unknown" ~doc:"zz" ~bind "//patient");
    Conn.send c (Protocol.simple "flight");
    let j = recv c in
    Conn.close c;
    match J.member "entries" j with
    | Some (J.List es) -> es
    | _ -> Alcotest.fail "flight reply has no entries"
  in
  let audit = jsonl_of_string (Buffer.contents buf) in
  let captured =
    let ic = open_in_bin cap_path in
    let text = really_input_string ic (in_channel_length ic) in
    close_in ic;
    jsonl_of_string text
  in
  (* the audit log names two shared fields after the write schema *)
  let audit_field j name =
    let is_write =
      match J.member "type" j with
      | Some (J.String ("update" | "update_denied")) -> true
      | _ -> false
    in
    match name with
    | "query" when is_write -> J.member "update" j
    | "results" when is_write -> (
      match J.member "targets" j with Some J.Null -> None | v -> v)
    | _ -> J.member name j
  in
  let shared =
    [ "rid"; "verb"; "group"; "doc"; "query"; "status"; "results"; "digest";
      "latency_ms" ]
  in
  let one what rid js =
    match List.filter (fun j -> rid_of j = Some rid) js with
    | [ j ] -> Some j
    | [] -> None
    | _ -> Alcotest.failf "%s: several records for %s" what rid
  in
  List.iter
    (fun (rid, status, replayable) ->
      let f =
        match one "flight" rid flight with
        | Some f -> f
        | None -> Alcotest.failf "no flight entry for %s" rid
      in
      let a =
        match one "audit" rid audit with
        | Some a -> a
        | None -> Alcotest.failf "no audit record for %s" rid
      in
      let c = one "capture" rid captured in
      Alcotest.(check bool)
        (rid ^ " captured iff replayable") replayable (Option.is_some c);
      Alcotest.(check (option string))
        (rid ^ " status") (Some status)
        (Option.bind (J.member "status" f) J.to_string_opt);
      List.iter
        (fun name ->
          let views =
            List.filter_map
              (fun (sink, v) ->
                Option.map (fun v -> (sink, J.to_string v)) v)
              [
                ("flight", J.member name f);
                ("audit", audit_field a name);
                ("capture", Option.bind c (fun c -> J.member name c));
              ]
          in
          match views with
          | (_, first) :: rest ->
            List.iter
              (fun (sink, v) ->
                Alcotest.(check string)
                  (Printf.sprintf "%s %s: %s agrees with flight" rid name sink)
                  first v)
              rest
          | [] -> Alcotest.failf "%s: no sink has %s" rid name)
        shared;
      (* no runtime consumer ran: GC attribution is not measured *)
      List.iter
        (fun name ->
          Alcotest.(check string)
            (Printf.sprintf "%s %s not measured" rid name)
            "null"
            (J.to_string (Option.value ~default:(J.Int 0) (J.member name f))))
        [ "gc_pause_ms"; "gc_pauses" ])
    [
      ("s-ok", "ok", true);
      ("s-denied", "denied_empty", true);
      ("s-write", "ok", true);
      ("s-refused", "update_denied", false);
      ("s-unknown", "error", false);
    ]

let check_audit buf queries =
  let lines =
    List.filter
      (fun l -> l <> "")
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  let requests =
    List.filter_map
      (fun l ->
        match J.of_string l with
        | Ok j when J.member "type" j = Some (J.String "request") -> Some j
        | Ok _ -> None
        | Error e -> Alcotest.failf "orphan/partial audit line %S: %s" l e)
      lines
  in
  Alcotest.(check int) "one audit record per admitted query"
    (List.length queries) (List.length requests);
  List.iter
    (fun j ->
      Alcotest.(check (option string))
        "group stamped" (Some "re")
        (Option.bind (J.member "group" j) J.to_string_opt);
      Alcotest.(check (option string))
        "peer stamped" (Some "audit-test")
        (Option.bind (J.member "peer" j) J.to_string_opt);
      Alcotest.(check (option string))
        "status ok" (Some "ok")
        (Option.bind (J.member "status" j) J.to_string_opt);
      Alcotest.(check bool) "rid stamped" true
        (Option.is_some (Option.bind (J.member "rid" j) J.to_string_opt)))
    requests

let test_server_drain_audit () =
  let buf = Buffer.create 512 in
  let audit = Sobs.Audit_log.create (Sobs.Audit_log.Buffer buf) in
  let doc = List.hd (adex_docs ()) in
  let queries = [ "//house"; "//apartment"; "//house/location" ] in
  with_server ~audit ~docs:[ ("d1", doc) ] () (fun _server path ->
      let c = connect path in
      Conn.send c (Protocol.hello ~peer:"audit-test" "re");
      Alcotest.(check bool) "hello" true (Protocol.is_ok (recv c));
      List.iter
        (fun q ->
          Conn.send c (Protocol.query_json ~doc:"d1" q);
          Alcotest.(check bool) q true (Protocol.is_ok (recv c)))
        queries;
      Conn.send c (Protocol.simple "shutdown");
      Alcotest.(check bool) "shutdown acknowledged" true (Protocol.is_ok (recv c));
      Conn.close c);
  (* with_server joined the server thread on the way out, so the
     audit buffer is complete: every admitted query has its record *)
  check_audit buf queries

(* Each cache and admission fact is one counter, named
   [pipeline.<family>.<group>], whether or not a tracer is installed:
   the same traffic against a traced server (as [serve --metrics-port]
   runs) and an untraced one scrapes to the same counters, and they
   are the stats reply's record through [Pipeline.stats_counters]. *)
let test_server_one_name_per_fact () =
  let dtd = Workload.Hospital.dtd in
  let groups = [ ("nurse", Workload.Hospital.nurse_spec dtd) ] in
  let docs = [ ("ward", Workload.Hospital.sample_document ()) ] in
  let bind = [ ("wardNo", "6") ] in
  let field j k =
    match Option.bind (J.member k j) J.to_int_opt with
    | Some v -> v
    | None -> Alcotest.failf "stats reply lacks %s" k
  in
  (* the merged session stats, read back from the stats reply *)
  let stats_of_reply j =
    let section name =
      match J.member name j with
      | Some (J.Obj gs) -> gs
      | _ -> Alcotest.failf "stats reply lacks %s" name
    in
    List.map
      (fun (g, cache) ->
        let adm = List.assoc g (section "admission") in
        ( g,
          {
            Pipeline.hits = field cache "hits";
            misses = field cache "misses";
            plan_hits = field cache "plan_hits";
            plan_misses = field cache "plan_misses";
            plan_compiles = field cache "plan_compiles";
            plan_fallbacks = field cache "plan_fallbacks";
            denied = field adm "denied";
            trivial = field adm "trivial";
            eval = field adm "eval";
          } ))
      (section "cache")
  in
  (* one worker session, so the repeated query is a cache hit *)
  let config = { Server.default_config with domains = 1 } in
  let scrape ?metrics ?tracer () =
    with_server ~config ?metrics ?tracer ~dtd ~groups ~docs ()
    @@ fun server path ->
    let c = connect path in
    let ok what json =
      Conn.send c json;
      let j = recv c in
      Alcotest.(check bool) what true (Protocol.is_ok j);
      j
    in
    ignore (ok "hello" (Protocol.hello ~peer:"tests" "nurse"));
    ignore (ok "query" (Protocol.query_json ~bind "//patient/name"));
    ignore (ok "query again" (Protocol.query_json ~bind "//patient/name"));
    ignore (ok "provably empty" (Protocol.query_json ~bind "//test"));
    Conn.send_line c {|{"cmd":"analyze","query":"//patient//bill"}|};
    Alcotest.(check bool) "analyze" true (Protocol.is_ok (recv c));
    let stats = stats_of_reply (ok "stats" (Protocol.simple "stats")) in
    Conn.close c;
    let counters = Sobs.Metrics.counters (Server.metrics server) in
    let pipeline =
      List.filter
        (fun (name, _) -> String.starts_with ~prefix:"pipeline." name)
        counters
    in
    Alcotest.(check (list (pair string int)))
      "pipeline counters = stats_counters of the stats reply"
      (List.sort compare
         (List.concat_map
            (fun (group, s) -> Pipeline.stats_counters ~group s)
            stats))
      pipeline;
    List.iter
      (fun (name, _) ->
        if String.starts_with ~prefix:"pipeline.stats." name then
          Alcotest.failf "a second name for a session counter: %s" name;
        if
          List.mem name
            [ "pipeline.admission.denied"; "pipeline.admission.trivial";
              "pipeline.admission.eval" ]
        then Alcotest.failf "an admission counter without a group: %s" name)
      counters;
    pipeline
  in
  let traced =
    let metrics = Sobs.Metrics.create () in
    let tracer = Sobs.Tracer.create ~metrics ~retain:false () in
    Sobs.Tracer.install tracer;
    Fun.protect ~finally:Sobs.Tracer.uninstall (scrape ~metrics ~tracer)
  in
  let plain = scrape () in
  Alcotest.(check (list (pair string int)))
    "the same counters with and without a tracer" traced plain;
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " counted") true
        (List.mem_assoc name plain))
    [ "pipeline.cache.hit.nurse"; "pipeline.cache.miss.nurse";
      "pipeline.admission.denied.nurse" ]

let () =
  Alcotest.run "server"
    [
      ( "json",
        [
          Alcotest.test_case "round trips" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_json_errors;
          Alcotest.test_case "nesting bound" `Quick test_json_nesting_bound;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "round trips" `Quick test_protocol_roundtrip;
          Alcotest.test_case "request ids" `Quick test_protocol_rid;
          Alcotest.test_case "rejects bad requests" `Quick
            test_protocol_rejects;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "bounded fifo" `Quick test_bqueue;
          Alcotest.test_case "concurrent producers/consumers" `Quick
            test_bqueue_threads;
          Alcotest.test_case "close wakes empty pop" `Quick
            test_bqueue_close_wakes_empty_pop;
          Alcotest.test_case "close races producers" `Quick
            test_bqueue_close_race;
          Alcotest.test_case "capacity clamp" `Quick test_bqueue_capacity_clamp;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "first fill wins" `Quick test_deadline_cell;
          Alcotest.test_case "run with timeout" `Quick test_deadline_run;
          Alcotest.test_case "past deadlines and late fills" `Quick
            test_deadline_edges;
          Alcotest.test_case "racing fills" `Quick test_deadline_fill_race;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "named entries" `Quick test_catalog_names;
          Alcotest.test_case "interning + eviction" `Quick test_catalog_intern;
          Alcotest.test_case "height computed once" `Quick
            test_catalog_height_once_concurrently;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "hammer: determinism + stats" `Slow
            test_pipeline_hammer;
          Alcotest.test_case "hammer: domains + writer vs oracle" `Slow
            test_multidomain_hammer;
        ] );
      ( "server",
        [
          Alcotest.test_case "round trips" `Quick test_server_roundtrips;
          Alcotest.test_case "an old client's index flag" `Quick
            test_server_ignores_index_flag;
          Alcotest.test_case "a descriptor past FD_SETSIZE" `Quick
            test_server_descriptor_past_fd_setsize;
          Alcotest.test_case "concurrent clients vs one session" `Quick
            test_server_concurrent_clients;
          Alcotest.test_case "escaped reply lines" `Quick
            test_server_escaped_replies;
          Alcotest.test_case "request ids and flight" `Quick
            test_server_rid_and_flight;
          Alcotest.test_case "gc pause attribution" `Quick
            test_server_gc_attribution;
          Alcotest.test_case "queue wait per verb" `Quick
            test_server_queue_wait;
          Alcotest.test_case "overload" `Quick test_server_overload;
          Alcotest.test_case "deadline" `Quick test_server_timeout;
          Alcotest.test_case "drain flushes audit" `Quick
            test_server_drain_audit;
          Alcotest.test_case "oversized line" `Quick
            test_server_oversized_line;
          Alcotest.test_case "deeply nested line" `Quick
            test_server_deep_line;
          Alcotest.test_case "sink agreement" `Quick test_sink_agreement;
          Alcotest.test_case "one name per fact" `Quick
            test_server_one_name_per_fact;
        ] );
    ]
