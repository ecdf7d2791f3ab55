(* Table 1 evaluation, in process: the paper's queries Q1-Q4 over the
   Adex documents D1-D4, cell after cell in a seeded order, each
   answered the way a first request is — on a fresh session, so
   rewriting, optimization and plan compilation run every time instead
   of coming from a cache.  The expected answer of every cell is
   checked once against the paper's naive strategy (evaluation over a
   copy annotated with accessibility), and every timed answer must name
   the same nodes. *)

open Common

(* D1 = 20 ads, D4 = 480 ads: the paper's 1 : 5 : 16 : 24 progression
   at a size where a cold cell costs a fraction of a millisecond, most
   of it translation. *)
let scale = 20
let group = "re"

type cell = {
  q : Sxpath.Ast.path;
  doc : Sxml.Tree.t;
  expected : int list;  (** node ids of the answer *)
}

let ids = List.map (fun (n : Sxml.Tree.t) -> n.id)

let run ~seed ~seconds ~trace =
  let dtd = Workload.Adex.dtd and spec = Workload.Adex.spec in
  let groups = [ (group, spec) ] in
  let docs = Inputs.adex ~seed ~scale in
  let rec setup k times =
    let t0 = now () in
    let service, entries, layers = build_service ~dtd ~groups docs in
    let times = (now () -. t0, layers) :: times in
    if k = setups then (service, entries, times) else setup (k + 1) times
  in
  let service, entries, times = setup 1 [] in
  let view = Secview.Pipeline.Service.view service ~group in
  let mismatches = ref 0 in
  let cells =
    List.concat_map
      (fun (_, q) ->
        List.map
          (fun (_, entry) ->
            let doc = Secview.Catalog.doc entry in
            let answer =
              Secview.Pipeline.Session.answer_exn
                (Secview.Pipeline.Session.create service)
                ~group q doc
            in
            let naive =
              Secview.Naive.eval ~view q (Secview.Naive.prepare spec doc)
            in
            (* annotation keeps node ids, so the two answers must name
               the same nodes *)
            if ids answer <> ids naive then incr mismatches;
            { q; doc; expected = ids answer })
          entries)
      Workload.Adex.queries
  in
  let cells = shuffle (Random.State.make [| seed; 3 |]) (Array.of_list cells) in
  let registry = Sobs.Metrics.create () in
  let tracer =
    if trace then begin
      let tr = Sobs.Tracer.create ~metrics:registry ~retain:false () in
      Sobs.Tracer.install tr;
      Some tr
    end
    else None
  in
  let lat = Samples.windows seconds in
  let attempted = ref 0 and failed = ref !mismatches in
  let warm_until = now () +. warm_s in
  let stop_at = warm_until +. float_of_int seconds in
  let k = ref 0 in
  while now () < stop_at do
    let c = cells.(!k mod Array.length cells) in
    incr k;
    let t0 = now () in
    let session = Secview.Pipeline.Session.create service in
    let answer = Secview.Pipeline.Session.answer session ~group c.q c.doc in
    let t1 = now () in
    incr attempted;
    (match answer with
    | Ok nodes when ids nodes = c.expected -> ()
    | _ -> incr failed);
    Samples.record lat ~warm_until t0 t1;
    Option.iter (fun tr -> ignore (Sobs.Tracer.drain_new tr)) tracer
  done;
  Option.iter (fun _ -> Sobs.Tracer.uninstall ()) tracer;
  let metrics =
    if not trace then
      end_to_end ~setup_s:(setup_time (List.map fst times)) [ lat ]
    else begin
      (* the naive baseline on the same cells: Table 1's first column *)
      let prepared =
        List.map
          (fun (_, e) ->
            let d = Secview.Catalog.doc e in
            (d, Secview.Naive.prepare spec d))
          entries
      in
      let t0 = now () and rounds = 3 in
      for _ = 1 to rounds do
        Array.iter
          (fun c ->
            ignore (Secview.Naive.eval ~view c.q (List.assq c.doc prepared)))
          cells
      done;
      let naive_ms =
        1000. *. (now () -. t0) /. float_of_int (rounds * Array.length cells)
      in
      [
        ("read_ms", (let n, sum = Samples.total lat in per n sum), "ms");
        ("naive_eval_ms", naive_ms, "ms");
      ]
      @ pipeline_layers (registry_of_json (Sobs.Metrics.to_json registry))
      @ setup_layers (List.map snd times)
    end
  in
  { attempted = !attempted; failed = !failed; metrics }
