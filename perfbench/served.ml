(* The served workloads.  The program runs as a server in a child
   process — its own heap and collector, as deployed — and client
   threads in this process drive it over a Unix socket in a closed
   loop: each client sends its next request only when the previous
   reply has arrived.  Every reply is checked against an answer
   computed beforehand through a single in-process session. *)

open Common
module J = Sobs.Json
module P = Sserver.Protocol

(* Both served workloads run the server with this many worker domains
   and this many clients, whatever the machine, so figures from
   different machines differ only by the machine. *)
let domains = 2
let clients = 4

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let off = ref 0 in
  while !off < Bytes.length b do
    off := !off + Unix.write fd b !off (Bytes.length b - !off)
  done

let line j = J.to_string j ^ "\n"

(* ---- the server child ------------------------------------------- *)

type server = {
  pid : int;
  sock : string;
  report : Unix.file_descr;
}

(* Children still running; killed and reaped if this process exits
   early, so an aborted run leaves no server behind. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let connect s =
  let give_up = now () +. 60. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX s.sock) with
    | () -> Unix.in_channel_of_descr fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
      when now () < give_up ->
      Unix.close fd;
      (match Unix.waitpid [ Unix.WNOHANG ] s.pid with
      | 0, _ -> ()
      | _ -> failwith "server exited before accepting connections");
      Thread.delay 0.002;
      go ()
  in
  go ()

let exchange ic text =
  write_all (Unix.descr_of_in_channel ic) text;
  input_line ic

(* Fork a server over the service [make] builds.  The child reports,
   once drained, how long its set-up layers took and its merged
   metrics snapshot.  Returns when the server answers a ping. *)
let start ~sock ~trace make =
  (try Sys.remove sock with Sys_error _ -> ());
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let code =
      try
        let service, times = make () in
        let registry = Sobs.Metrics.create () in
        let tracer =
          if trace then begin
            let tr = Sobs.Tracer.create ~metrics:registry ~retain:false () in
            Sobs.Tracer.install tr;
            Some tr
          end
          else None
        in
        let config = { Sserver.Server.default_config with domains } in
        let server =
          Sserver.Server.create ~config ~metrics:registry ?tracer service
        in
        Sserver.Server.serve server [ Sserver.Server.Unix_socket sock ];
        let setup =
          J.Obj
            [
              ("parse_s", J.Float times.parse_s);
              ("derive_s", J.Float times.derive_s);
              ("index_s", J.Float times.index_s);
            ]
        in
        write_all w
          (line
             (J.Obj
                [
                  ("setup", setup);
                  ("metrics", Sobs.Metrics.to_json (Sserver.Server.metrics server));
                ]));
        0
      with e ->
        prerr_endline ("secbench: server: " ^ Printexc.to_string e);
        2
    in
    Unix._exit code
  | pid ->
    live := pid :: !live;
    Unix.close w;
    let s = { pid; sock; report = r } in
    let ic = connect s in
    ignore (exchange ic (line (P.simple "ping")));
    close_in ic;
    s

(* Drain the server and return its report. *)
let stop s =
  let ic = connect s in
  ignore (exchange ic (line (P.simple "shutdown")));
  close_in ic;
  let rc = Unix.in_channel_of_descr s.report in
  let report = In_channel.input_all rc in
  close_in rc;
  let _, status = Unix.waitpid [] s.pid in
  live := List.filter (( <> ) s.pid) !live;
  match (status, J.of_string (String.trim report)) with
  | Unix.WEXITED 0, Ok j -> j
  | _ -> failwith "server did not drain cleanly"

(* ---- clients ------------------------------------------------------ *)

type op = {
  text : string;  (** the request line *)
  write : bool;
  expect : J.t -> bool;  (** is this reply the right answer? *)
}

type tally = {
  reads : Samples.t array;  (** measured latencies per second, ms *)
  writes : Samples.t array;
  mutable attempted : int;
  mutable failed : int;
  mutable total_ms : float;  (** every operation, warm-up included *)
}

let client s ~group ~ops ~seconds ~warm_until ~stop_at =
  let t =
    {
      reads = Samples.windows seconds;
      writes = Samples.windows seconds;
      attempted = 0;
      failed = 0;
      total_ms = 0.;
    }
  in
  let ic = connect s in
  let hello = exchange ic (line (P.hello ~peer:"secbench" group)) in
  if not (String.starts_with ~prefix:{|{"ok":true|} hello) then
    t.failed <- t.failed + 1;
  let n = Array.length ops in
  let k = ref 0 in
  while now () < stop_at do
    let op = ops.(!k mod n) in
    incr k;
    let t0 = now () in
    let reply = exchange ic op.text in
    let t1 = now () in
    let ms = 1000. *. (t1 -. t0) in
    t.attempted <- t.attempted + 1;
    t.total_ms <- t.total_ms +. ms;
    (match J.of_string reply with
    | Ok j when op.expect j -> ()
    | _ -> t.failed <- t.failed + 1);
    Samples.record (if op.write then t.writes else t.reads) ~warm_until t0 t1
  done;
  close_in ic;
  t

let results_are expected j =
  match J.member "results" j with
  | Some (J.List rs) ->
    List.map J.to_string_opt rs = List.map Option.some expected
  | _ -> false

(* ---- workloads ---------------------------------------------------- *)

type workload = {
  groups : (string * Secview.Spec.t) list;
  xml : string;  (** the one document, served as "ward" *)
  mixes : (string * op array) list;  (** one (group, ops) per client *)
  after : server -> bool;  (** a check once the clients are done *)
}

(* Linking the static analyzer registers the admission check the
   server's fast path consults, as it does in the [secview] binary. *)
let () = ignore Sanalysis.Semantic.admission

let dtd = Workload.Hospital.dtd
let ward = [ ("wardNo", "6") ]

(* An oracle session over the same document: the expected reply of
   every read, rendered as the server renders results. *)
let oracle ~groups xml =
  let service, entries, _ = build_service ~dtd ~groups [ ("ward", xml) ] in
  let session = Secview.Pipeline.Session.create service in
  let doc = Secview.Catalog.doc (List.assoc "ward" entries) in
  fun ~group text ->
    let env name = List.assoc_opt name ward in
    List.map (fun n -> Sxml.Print.to_string n)
      (Secview.Pipeline.Session.answer_exn session ~group ~env
         (Sxpath.Parse.of_string text)
         doc)

let read_op answer ~group text =
  let expected = answer ~group text in
  {
    text = line (P.query_json ~doc:"ward" ~bind:ward text);
    write = false;
    expect = results_are expected;
  }

(* Served reads.  Two groups over one hospital document: nurses see
   their own ward through a conditional view, so their queries go
   through rewriting with a qualifier; the admin view is the whole
   document.  [//test] is provably empty for nurses and is answered by
   the admission fast path without a worker.  Every query repeats, so
   translations and plans come from the sessions' caches. *)
let read_workload ~seed =
  let groups =
    [
      ("nurse", Workload.Hospital.nurse_spec dtd);
      ("admin", Secview.Spec.make dtd []);
    ]
  in
  let xml = Inputs.hospital ~seed ~depts:40 ~patients:10 ~staff:6 in
  let answer = oracle ~groups xml in
  let nurse =
    [|
      "//patient/name";
      "//patient/wardNo";
      "//patient//bill";
      "//dept//medication";
      "//test";
    |]
  and admin =
    [|
      "//dept/staffInfo/staff/nurse/name";
      "//clinicalTrial/patientInfo/patient/name";
      "//regular/medication";
      "//dept[staffInfo/staff/doctor]/patientInfo/patient/wardNo";
    |]
  in
  let rng = Random.State.make [| seed; 1 |] in
  let mixes =
    List.init clients (fun i ->
        let group, mix = if i mod 2 = 0 then ("nurse", nurse) else ("admin", admin) in
        (group, Array.map (read_op answer ~group) (shuffle rng mix)))
  in
  { groups; xml; mixes; after = (fun _ -> true) }

(* Reads beside secure writes.  Every client is a nurse whose every
   tenth request replaces the bills of its ward's patients: a write
   admitted through the WITH CHECK OPTION check, swapped in as a new
   document version, and followed by cache eviction on every domain.
   The reads never touch bills, so their answers stay fixed while the
   writes run; afterwards every bill the nurse sees must carry one and
   the same written value. *)
let mixed_workload ~seed =
  let grants =
    [
      (("trial", "bill"), [ Secview.Spec.Replace ]);
      (("regular", "bill"), [ Secview.Spec.Replace ]);
    ]
  in
  let groups = [ ("nurse", Workload.Hospital.nurse_spec ~write:grants dtd) ] in
  let xml = Inputs.hospital ~seed ~depts:20 ~patients:10 ~staff:6 in
  let answer = oracle ~groups xml in
  let bills = List.length (answer ~group:"nurse" "//patient//bill") in
  let reads = [| "//patient/name"; "//patient/wardNo"; "//dept//medication" |] in
  let values = List.init 8 (fun i -> string_of_int (1000 + (seed mod 1000) + i)) in
  let write v =
    {
      text =
        line
          (P.update_json ~doc:"ward" ~bind:ward
             (Printf.sprintf "replace //patient//bill with <bill>%s</bill>" v));
      write = true;
      expect =
        (fun j -> Option.bind (J.member "targets" j) J.to_int_opt = Some bills);
    }
  in
  let rng = Random.State.make [| seed; 2 |] in
  let mixes =
    List.init clients (fun i ->
        let r = Array.map (read_op answer ~group:"nurse") (shuffle rng reads) in
        let w = Array.of_list (List.map write values) in
        (* 9 reads, then 1 write; clients start at different offsets so
           their writes do not line up *)
        let ops =
          Array.init 80 (fun k ->
              if k mod 10 = 9 then w.(k / 10 mod Array.length w)
              else r.(k mod Array.length r))
        in
        ("nurse", Array.append (Array.sub ops (i * 2) (80 - (i * 2))) (Array.sub ops 0 (i * 2))))
  in
  let after s =
    let ic = connect s in
    let ok =
      match
        J.of_string
          (exchange ic (line (P.hello ~peer:"secbench" "nurse")))
      with
      | Error _ -> false
      | Ok _ -> (
        match
          J.of_string
            (exchange ic (line (P.query_json ~doc:"ward" ~bind:ward "//patient//bill")))
        with
        | Ok j -> (
          match J.member "results" j with
          | Some (J.List (first :: _ as rs)) ->
            List.length rs = bills
            && List.for_all (( = ) first) rs
            && List.exists
                 (fun v -> J.to_string_opt first = Some ("<bill>" ^ v ^ "</bill>"))
                 values
          | _ -> false)
        | Error _ -> false)
    in
    close_in ic;
    ok
  in
  { groups; xml; mixes; after }

(* ---- one run ------------------------------------------------------ *)

let run ~seconds ~trace w =
  let make () =
    let service, _, times = build_service ~dtd ~groups:w.groups [ ("ward", w.xml) ] in
    (service, times)
  in
  let sock k = Printf.sprintf ".secbench/%d-%d.sock" (Unix.getpid ()) k in
  (* set up several servers and keep the last: set-up time is taken
     over fork-to-first-answer of all of them *)
  let rec setup k times reports =
    let t0 = now () in
    let s = start ~sock:(sock k) ~trace make in
    let dt = now () -. t0 in
    if k = setups then (s, dt :: times, reports)
    else setup (k + 1) (dt :: times) (stop s :: reports)
  in
  let server, setup_times, reports = setup 1 [] [] in
  let warm_until = now () +. warm_s in
  let stop_at = warm_until +. float_of_int seconds in
  let tallies = Array.make (List.length w.mixes) None in
  let threads =
    List.mapi
      (fun i (group, ops) ->
        Thread.create
          (fun () ->
            tallies.(i) <-
              (try Some (client server ~group ~ops ~seconds ~warm_until ~stop_at)
               with e ->
                 prerr_endline ("secbench: client: " ^ Printexc.to_string e);
                 None))
          ())
      w.mixes
  in
  List.iter Thread.join threads;
  let after_ok = w.after server in
  let report = stop server in
  let tallies = List.filter_map Fun.id (Array.to_list tallies) in
  let lost = List.length w.mixes - List.length tallies in
  let attempted = List.fold_left (fun a (t : tally) -> a + t.attempted) 0 tallies in
  let failed =
    List.fold_left (fun a (t : tally) -> a + t.failed) 0 tallies
    + lost
    + if after_ok then 0 else 1
  in
  let metrics =
    if not trace then
      end_to_end ~setup_s:(setup_time setup_times)
        (List.concat_map (fun t -> [ t.reads; t.writes ]) tallies)
    else begin
      let setup_of r =
        let f k =
          Option.value ~default:0.
            (Option.bind (J.member "setup" r) (fun s ->
                 Option.bind (J.member k s) J.to_float_opt))
        in
        { parse_s = f "parse_s"; derive_s = f "derive_s"; index_s = f "index_s" }
      in
      let reg =
        registry_of_json
          (Option.value ~default:(J.Obj []) (J.member "metrics" report))
      in
      let mean f =
        let n, sum =
          List.fold_left
            (fun (n, s) t ->
              let n', s' = Samples.total (f t) in
              (n + n', s +. s'))
            (0, 0.) tallies
        in
        per n sum
      in
      let client_ms = List.fold_left (fun a t -> a +. t.total_ms) 0. tallies in
      let server_n, server_ms = reg.series_with "server.latency_ms." in
      [
        ("read_ms", mean (fun t -> t.reads), "ms");
        ("write_ms", mean (fun t -> t.writes), "ms");
        ("server_ms", per server_n server_ms, "ms");
        ("transport_ms", per attempted (client_ms -. server_ms), "ms");
        ( "denied_pct",
          100. *. ratio (reg.counters_with "server.admission.denied") attempted,
          "%" );
      ]
      @ pipeline_layers reg
      @ setup_layers (List.map setup_of (report :: reports))
    end
  in
  { attempted; failed; metrics }
