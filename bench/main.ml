(* Benchmark harness.

   Regenerates the paper's experimental artefacts:

   - Table 1 (Section 6): evaluation time of Q1-Q4 over the D1-D4
     Adex document series under the naive / rewrite / optimize
     strategies.  Absolute numbers differ from the paper's 2004
     testbed; the shape — rewrite beats naive by 1-2 orders of
     magnitude, optimization helps Q3 and eliminates Q4 — is the
     reproduction target (see EXPERIMENTS.md).
   - The rewritten/optimized query forms the Section 6 prose prints.
   - Ablations A1-A4 (DESIGN.md): algorithm costs behind the paper's
     complexity claims, measured with Bechamel.

   Usage: dune exec bench/main.exe [-- --table1|--forms|--ablations]
                                   [-- --scale N] [-- --quick]
                                   [-- --json [--out FILE]] [-- --label L]
                                   [-- --serve [--clients N]] [-- --engines]
                                   [-- --analyze]

   --json writes the Table 1 measurements (per-stage min/median/p95
   breakdowns for Q1-Q4 x D1-D4) to BENCH_PR2.json (or --out FILE),
   the machine-readable perf trajectory consumed by later PRs.

   --serve is the server benchmark: a closed loop of --clients
   concurrent clients replaying Q1-Q4 against D1-D4 over a Unix
   socket, split across two user groups, every reply byte-compared
   to the single-threaded Pipeline.answer baseline.  Writes
   throughput and per-group p50/p95/p99 to BENCH_PR3.json (or --out
   FILE).  --label stamps the results file with a run label (a
   machine nickname without leaking hostnames into the repo).

   --engines is the PR 4 ablation: the compiled-plan executor vs the
   set-at-a-time interpreter on Q1-Q4 x D1-D4, answers byte-compared,
   written to BENCH_PR4.json (or --out FILE).

   --mixed is the PR 8 study: mixed read/write serving at two groups
   (90/10 and 50/50 splits) plus a read-only pass at the PR 7 paths,
   written to BENCH_PR8.json (or --out FILE) so bench_diff can hold
   the read path to its PR 7 percentiles.

   --analyze is the PR 6 study: pairwise fleet-analysis cost over
   2/8/32 generated groups, plus an A/B of the server's admission
   fast path on a denied-heavy query mix, written to BENCH_PR6.json
   (or --out FILE). *)

module A = Sxpath.Ast
module R = Sdtd.Regex

(* all interpreter runs below go through the Ctx API *)
let eval ?env ?index p doc =
  Sxpath.Eval.run (Sxpath.Eval.Ctx.make ?env ?index ~root:doc ()) p

let time_once f =
  let t0 = Unix.gettimeofday () in
  let result = f () in
  (result, Unix.gettimeofday () -. t0)

(* Wall-time distribution of [reps] runs (after one warmup): a bare
   median hides scheduler noise; min is the contention-free floor and
   p95 the tail the server story cares about. *)
type stats = {
  t_min : float;
  t_median : float;
  t_p95 : float;
  t_samples : float array;  (** sorted, seconds — kept for the JSON dump *)
}

let measure_stats ?(reps = 5) f =
  ignore (f ());
  let times =
    Array.init reps (fun _ ->
        let _, dt = time_once f in
        dt)
  in
  Array.sort compare times;
  {
    t_min = times.(0);
    t_median = Sobs.Metrics.percentile times 50.;
    t_p95 = Sobs.Metrics.percentile times 95.;
    t_samples = times;
  }

let measure ?reps f = (measure_stats ?reps f).t_median

(* Point estimates plus the explicit-bucket histogram ([le] in ms,
   cumulative counts — the OpenMetrics shape): cross-PR tooling can
   difference whole distributions, not just three quantiles. *)
let stats_ms_json s =
  let reg = Sobs.Metrics.create () in
  Array.iter
    (fun dt -> Sobs.Metrics.observe reg "t" (1000. *. dt))
    s.t_samples;
  let buckets =
    List.map
      (fun (le, n) ->
        Sobs.Json.Obj [ ("le", Sobs.Json.Float le); ("n", Sobs.Json.Int n) ])
      (Sobs.Metrics.buckets reg "t")
    @ [
        Sobs.Json.Obj
          [
            ("le", Sobs.Json.String "+Inf");
            ("n", Sobs.Json.Int (Array.length s.t_samples));
          ];
      ]
  in
  Sobs.Json.Obj
    [
      ("min", Sobs.Json.Float (1000. *. s.t_min));
      ("median", Sobs.Json.Float (1000. *. s.t_median));
      ("p95", Sobs.Json.Float (1000. *. s.t_p95));
      ("buckets", Sobs.Json.List buckets);
    ]

(* machine-independent work measure: evaluator context×step visits *)
let visited_during f =
  let v0 = !Sxpath.Eval.visited in
  ignore (f ());
  !Sxpath.Eval.visited - v0

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

(* run metadata stamped into every BENCH_*.json so the perf
   trajectory across PRs stays comparable *)
let meta_json ~label ~scale ~reps extra =
  Sobs.Json.Obj
    ([
       ("label", Sobs.Json.String label);
       ("scale", Sobs.Json.Int scale);
       ("reps", Sobs.Json.Int reps);
     ]
    @ extra)

let table1 ?(json_out = None) ~label ~scale ~reps () =
  let dtd = Workload.Adex.dtd in
  let spec = Workload.Adex.spec in
  let view = Workload.Adex.view () in
  Printf.printf "## Table 1: secure query evaluation (times in ms)\n\n";
  Printf.printf
    "Datasets are generated from the Adex-like DTD with the paper's\n\
     1 : 5 : 16 : 24 size progression (--scale %d).\n\n"
    scale;
  Printf.printf "%-6s %-4s %9s | %10s %10s %10s | %8s %8s\n" "Query" "Data"
    "elements" "Naive" "Rewrite" "Optimize" "N/R" "R/O";
  Printf.printf "%s\n" (String.make 78 '-');
  let rows = ref [] in
  let datasets = Workload.Datasets.series ~scale () in
  List.iter
    (fun ds ->
      let doc = Workload.Datasets.load ds in
      let elements = Sxml.Tree.count_elements doc in
      let prepared = Secview.Naive.prepare spec doc in
      List.iter
        (fun (qname, q) ->
          (* translation stages, measured separately so the results
             file carries the full per-stage breakdown *)
          let s_rewrite =
            measure_stats ~reps (fun () -> Secview.Rewrite.rewrite view q)
          in
          let naive_q = Secview.Naive.rewrite_query ~view q in
          let rewritten = Secview.Rewrite.rewrite view q in
          let s_optimize =
            measure_stats ~reps (fun () -> Secview.Optimize.optimize dtd rewritten)
          in
          let optimized = Secview.Optimize.optimize dtd rewritten in
          let count p d = List.length (eval p d) in
          let n_naive = count naive_q prepared in
          let n_rw = count rewritten doc in
          let n_opt = count optimized doc in
          if not (n_naive = n_rw && n_rw = n_opt) then
            Printf.printf
              "!! approaches disagree on %s/%s: naive %d rewrite %d \
               optimize %d\n"
              qname ds.Workload.Datasets.name n_naive n_rw n_opt;
          let s_naive =
            measure_stats ~reps (fun () -> eval naive_q prepared)
          in
          let s_rw =
            measure_stats ~reps (fun () -> eval rewritten doc)
          in
          let s_opt =
            measure_stats ~reps (fun () -> eval optimized doc)
          in
          let t_naive = s_naive.t_median
          and t_rw = s_rw.t_median
          and t_opt = s_opt.t_median in
          let ratio a b =
            if b > 1e-9 then Printf.sprintf "%7.1fx" (a /. b) else "      -"
          in
          Printf.printf
            "%-6s %-4s %9d | %10.3f %10.3f %10.3f | %s %s\n" qname
            ds.Workload.Datasets.name elements (1000. *. t_naive)
            (1000. *. t_rw) (1000. *. t_opt) (ratio t_naive t_rw)
            (ratio t_rw t_opt);
          if json_out <> None then
            rows :=
              Sobs.Json.Obj
                [
                  ("query", Sobs.Json.String qname);
                  ("dataset", Sobs.Json.String ds.Workload.Datasets.name);
                  ("elements", Sobs.Json.Int elements);
                  ("results", Sobs.Json.Int n_opt);
                  ( "stages_ms",
                    Sobs.Json.Obj
                      [
                        ("rewrite", stats_ms_json s_rewrite);
                        ("optimize", stats_ms_json s_optimize);
                      ] );
                  ( "eval_ms",
                    Sobs.Json.Obj
                      [
                        ("naive", stats_ms_json s_naive);
                        ("rewrite", stats_ms_json s_rw);
                        ("optimize", stats_ms_json s_opt);
                      ] );
                  ( "visited",
                    Sobs.Json.Obj
                      [
                        ( "naive",
                          Sobs.Json.Int
                            (visited_during (fun () ->
                                 eval naive_q prepared)) );
                        ( "rewrite",
                          Sobs.Json.Int
                            (visited_during (fun () ->
                                 eval rewritten doc)) );
                        ( "optimize",
                          Sobs.Json.Int
                            (visited_during (fun () ->
                                 eval optimized doc)) );
                      ] );
                ]
              :: !rows)
        Workload.Adex.queries;
      Printf.printf "%s\n" (String.make 78 '-'))
    datasets;
  Printf.printf
    "(N/R = naive/rewrite speedup; R/O = rewrite/optimize speedup.\n\
    \ '-' entries of the paper's table correspond to queries the\n\
    \ optimizer leaves unchanged: Q1 and Q2 here, where R/O stays ~1.)\n\n";
  match json_out with
  | None -> ()
  | Some path ->
    let doc =
      Sobs.Json.Obj
        [
          ("bench", Sobs.Json.String "table1");
          ("meta", meta_json ~label ~scale ~reps []);
          ("scale", Sobs.Json.Int scale);
          ("reps", Sobs.Json.Int reps);
          ("rows", Sobs.Json.List (List.rev !rows));
        ]
    in
    let oc = open_out path in
    Sobs.Json.to_channel oc doc;
    output_char oc '\n';
    close_out oc;
    Printf.printf "(machine-readable results written to %s)\n\n" path

(* ------------------------------------------------------------------ *)
(* Query forms (Section 6 prose)                                       *)

let forms () =
  let dtd = Workload.Adex.dtd in
  let view = Workload.Adex.view () in
  Printf.printf "## Query forms per strategy (Section 6 prose)\n\n";
  List.iter
    (fun (name, q) ->
      let naive_q = Secview.Naive.rewrite_query ~view q in
      let rewritten = Secview.Rewrite.rewrite view q in
      let optimized = Secview.Optimize.optimize dtd rewritten in
      Printf.printf "%s         %s\n" name (Sxpath.Print.to_string q);
      Printf.printf "  naive     %s\n" (Sxpath.Print.to_string naive_q);
      Printf.printf "  rewrite   %s\n" (Sxpath.Print.to_string rewritten);
      Printf.printf "  optimize  %s\n\n" (Sxpath.Print.to_string optimized))
    Workload.Adex.queries;
  let q4x =
    Sxpath.Parse.of_string
      "//real-estate[house/r-e.asking-price and apartment/r-e.unit-type]"
  in
  Printf.printf
    "Q4-exclusive (the paper's rewritten Q4, killed by the exclusive\n\
     constraint at real-estate):\n";
  Printf.printf "  input     %s\n" (Sxpath.Print.to_string q4x);
  Printf.printf "  optimize  %s\n\n"
    (Sxpath.Print.to_string (Secview.Optimize.optimize dtd q4x))

(* ------------------------------------------------------------------ *)
(* Ablations (Bechamel)                                                *)

(* Synthetic DTD families for the derive-cost ablation. *)
let chain_dtd n =
  let name i = Printf.sprintf "c%d" i in
  Sdtd.Dtd.create ~root:(name 0)
    (List.init n (fun i ->
         if i = n - 1 then (name i, R.Str)
         else (name i, R.Elt (name (i + 1)))))

let fanout_dtd n =
  let name i = Printf.sprintf "f%d" i in
  Sdtd.Dtd.create ~root:"root"
    (("root", R.seq (List.init n (fun i -> R.Elt (name i))))
    :: List.init n (fun i -> (name i, R.Str)))

let choice_dtd n =
  let name i = Printf.sprintf "o%d" i in
  Sdtd.Dtd.create ~root:"root"
    (("root", R.choice (List.init n (fun i -> R.Elt (name i))))
    :: List.init n (fun i -> (name i, R.Str)))

let spec_hiding_every_other dtd =
  (* annotate every other edge N so derive exercises short-cuts and
     dummies, not just identity copying *)
  let edges =
    List.concat_map
      (fun a -> List.map (fun b -> (a, b)) (Sdtd.Dtd.children_of dtd a))
      (Sdtd.Dtd.reachable dtd)
  in
  Secview.Spec.make dtd
    (List.filteri (fun i _ -> i mod 2 = 0) edges
    |> List.map (fun e -> (e, Secview.Spec.No)))

let bechamel_run tests =
  let open Bechamel in
  let open Toolkit in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      let estimate =
        match Analyze.OLS.estimates ols with
        | Some [ ns ] -> Printf.sprintf "%12.1f ns/run" ns
        | _ -> "n/a"
      in
      Printf.printf "  %-46s %s\n" name estimate)
    (List.sort compare rows)

let ablations ~quick () =
  let open Bechamel in
  let sizes = if quick then [ 8; 32 ] else [ 8; 16; 32; 64; 128 ] in

  Printf.printf "## A1: view-derivation cost vs DTD size (quadratic claim)\n";
  bechamel_run
    (Test.make_grouped ~name:"derive"
       (List.concat_map
          (fun n ->
            List.map
              (fun (family, make) ->
                let dtd = make n in
                let spec = spec_hiding_every_other dtd in
                Test.make
                  ~name:(Printf.sprintf "%s/%03d" family n)
                  (Staged.stage (fun () -> Secview.Derive.derive spec)))
              [ ("chain", chain_dtd); ("fanout", fanout_dtd);
                ("choice", choice_dtd) ])
          sizes));
  Printf.printf "\n";

  Printf.printf
    "## A2: rewrite cost vs query size and view DTD (O(|p|*|Dv|^2) claim)\n";
  let hospital_view =
    Secview.Derive.derive (Workload.Hospital.nurse_spec Workload.Hospital.dtd)
  in
  let adex_view = Workload.Adex.view () in
  let queries =
    [
      ("q04", "//bill");
      ("q08", "//patient//bill");
      ("q16", "//dept//patientInfo//patient//bill");
      ("q24", "//dept//patientInfo//patient[name and wardNo]//treatment//bill");
    ]
  in
  bechamel_run
    (Test.make_grouped ~name:"rewrite"
       (List.map
          (fun (name, q) ->
            let p = Sxpath.Parse.of_string q in
            Test.make
              ~name:(Printf.sprintf "hospital/%s(|p|=%d)" name (A.size p))
              (Staged.stage (fun () -> Secview.Rewrite.rewrite hospital_view p)))
          queries
       @ List.map
           (fun (name, q) ->
             Test.make ~name:("adex/" ^ name)
               (Staged.stage (fun () ->
                    Secview.Rewrite.rewrite adex_view q)))
           Workload.Adex.queries));
  Printf.printf "\n";

  Printf.printf
    "## A3: optimizer machinery — constraint decisions and containment\n";
  let coexist =
    Sdtd.Dtd.create ~root:"r"
      [ ("r", R.Star (R.Elt "a")); ("a", R.Seq [ R.Elt "b"; R.Elt "c" ]);
        ("b", R.Str); ("c", R.Str) ]
  in
  let exclusive =
    Sdtd.Dtd.create ~root:"r"
      [ ("r", R.Star (R.Elt "a")); ("a", R.Choice [ R.Elt "b"; R.Elt "c" ]);
        ("b", R.Str); ("c", R.Str) ]
  in
  let qand = Sxpath.Parse.qual_of_string "b and c" in
  let adex_dtd = Workload.Adex.dtd in
  let q3_rewritten = Secview.Rewrite.rewrite adex_view Workload.Adex.q3 in
  bechamel_run
    (Test.make_grouped ~name:"optimize"
       [
         Test.make ~name:"bool_of_qual/co-existence"
           (Staged.stage (fun () -> Secview.Image.bool_of_qual coexist qand "a"));
         Test.make ~name:"bool_of_qual/exclusive"
           (Staged.stage (fun () ->
                Secview.Image.bool_of_qual exclusive qand "a"));
         Test.make ~name:"containment/diamond"
           (Staged.stage (fun () ->
                Secview.Simulate.contained coexist
                  (Sxpath.Parse.of_string "a/b")
                  (Sxpath.Parse.of_string "a/*")
                  "r"));
         Test.make ~name:"optimize/adex-q3"
           (Staged.stage (fun () ->
                Secview.Optimize.optimize adex_dtd q3_rewritten));
         Test.make ~name:"optimize/adex-q4x"
           (Staged.stage (fun () ->
                Secview.Optimize.optimize adex_dtd
                  (Sxpath.Parse.of_string
                     "//real-estate[house/r-e.asking-price and \
                      apartment/r-e.unit-type]")));
       ]);
  Printf.printf "\n";

  Printf.printf "## A4: recursive views — unfolding depth vs rewrite cost\n";
  let fig7_view = Workload.Fig7.view () in
  let heights = if quick then [ 5; 9 ] else [ 3; 5; 9; 13; 17 ] in
  bechamel_run
    (Test.make_grouped ~name:"unfold-rewrite"
       (List.map
          (fun h ->
            Test.make
              ~name:(Printf.sprintf "height-%02d" h)
              (Staged.stage (fun () ->
                   Secview.Rewrite.rewrite_with_height fig7_view ~height:h
                     (Sxpath.Parse.of_string "//b"))))
          heights));
  List.iter
    (fun h ->
      let pt =
        Secview.Rewrite.rewrite_with_height fig7_view ~height:h
          (Sxpath.Parse.of_string "//b")
      in
      Printf.printf "  height %2d: |p_t| = %d\n" h (A.size pt))
    heights;
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* A5: the evaluator's tag-index fast path                             *)

let index_ablation ~scale ~reps () =
  Printf.printf
    "## A5: evaluator tag-index ablation (beyond the paper: the same\n\
    \   rewritten queries over a scan-based vs. an indexed evaluator)\n\n";
  let view = Workload.Adex.view () in
  let doc =
    Workload.Datasets.load { Workload.Datasets.name = "D3"; ads = scale * 16;
                             buyers = scale * 8 }
  in
  let idx = Sxml.Index.build doc in
  Printf.printf "document: %s\n\n" (Workload.Datasets.describe doc);
  Printf.printf "%-6s | %10s %10s | %8s\n" "Query" "scan" "indexed" "speedup";
  Printf.printf "%s\n" (String.make 44 '-');
  List.iter
    (fun (name, q) ->
      let pt = Secview.Rewrite.rewrite view q in
      let t_scan = measure ~reps (fun () -> eval pt doc) in
      let t_idx =
        measure ~reps (fun () -> eval ~index:idx pt doc)
      in
      (* the naive loosened form benefits far more: it is all
         descendant steps *)
      let naive_q = Secview.Naive.rewrite_query ~view q in
      let prepared = Secview.Naive.prepare Workload.Adex.spec doc in
      let pidx = Sxml.Index.build prepared in
      let tn_scan = measure ~reps (fun () -> eval naive_q prepared) in
      let tn_idx =
        measure ~reps (fun () -> eval ~index:pidx naive_q prepared)
      in
      let spd a b = if b > 1e-9 then Printf.sprintf "%7.1fx" (a /. b) else "      -" in
      Printf.printf "%-6s | %10.3f %10.3f | %s   (naive: %.1f -> %.1f ms, %s)\n"
        name (1000. *. t_scan) (1000. *. t_idx) (spd t_scan t_idx)
        (1000. *. tn_scan) (1000. *. tn_idx) (spd tn_scan tn_idx))
    Workload.Adex.queries;
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* A6: the recursive XMark-flavoured workload                          *)

let xmark_bench ~reps () =
  Printf.printf
    "## A6: recursive workload (XMark-flavoured auction site; recursive\n\
    \   document DTD and recursive security view, unfolded per document)\n\n";
  let dtd = Workload.Xmark.dtd in
  let spec = Workload.Xmark.spec in
  let view = Workload.Xmark.view () in
  let doc = Workload.Xmark.document ~scale:60 () in
  let height = Workload.Xmark.element_height doc in
  Printf.printf "document: %s (element height %d)\n\n"
    (Workload.Datasets.describe doc)
    height;
  let prepared = Secview.Naive.prepare spec doc in
  Printf.printf "%-6s %8s | %10s %10s %10s\n" "Query" "results" "Naive"
    "Rewrite" "Optimize";
  Printf.printf "%s\n" (String.make 56 '-');
  List.iter
    (fun (name, q) ->
      let naive_q = Secview.Naive.rewrite_query ~view q in
      let rewritten = Secview.Rewrite.rewrite_with_height view ~height q in
      let optimized = Secview.Optimize.optimize dtd rewritten in
      let n = List.length (eval rewritten doc) in
      let t_naive = measure ~reps (fun () -> eval naive_q prepared) in
      let t_rw = measure ~reps (fun () -> eval rewritten doc) in
      let t_opt = measure ~reps (fun () -> eval optimized doc) in
      Printf.printf "%-6s %8d | %10.3f %10.3f %10.3f\n" name n
        (1000. *. t_naive) (1000. *. t_rw) (1000. *. t_opt))
    Workload.Xmark.queries;
  Printf.printf "\n"

(* ------------------------------------------------------------------ *)
(* Approximation quality of the containment test                       *)

let approx () =
  Printf.printf
    "## Approximation quality of the simulation containment test\n\
    \   (Prop. 5.1 is sound but incomplete; instance sampling gives a\n\
    \   one-sided reference: refuted pairs are definitely not contained)\n\n";
  let cases =
    [
      ( "adex",
        Workload.Adex.dtd,
        [
          "//buyer-info"; "//buyer-info/contact-info"; "//contact-info";
          "//house"; "//house/r-e.warranty"; "//real-estate/*";
          "//real-estate/house"; "head/buyer-info"; "//name"; "//*";
          "//location/city"; "//city";
        ] );
      ( "hospital",
        Workload.Hospital.dtd,
        [
          "//patient"; "//patient/name"; "//name";
          "dept/(clinicalTrial | .)/patientInfo/patient"; "//dept//patient";
          "//treatment/*"; "//treatment/trial"; "//bill"; "//*[bill]";
          "//patient[treatment/trial]";
        ] );
    ]
  in
  List.iter
    (fun (name, dtd, queries) ->
      let queries = List.map Sxpath.Parse.of_string queries in
      let stats = Secview.Containment.measure ~samples:15 dtd ~queries in
      Format.printf "%-10s %a@." name Secview.Containment.pp_stats stats;
      assert (stats.Secview.Containment.claimed_and_refuted = 0))
    cases;
  Printf.printf
    "\n\
     Silent-but-unrefuted pairs bound the completeness loss from above\n\
     (instance sampling can miss witnesses, so the true loss is lower).\n\n"

(* ------------------------------------------------------------------ *)
(* Server benchmark: closed-loop concurrent clients over a Unix       *)
(* socket, every reply byte-compared to the single-threaded baseline  *)

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let connect_retry path =
  let give_up = Unix.gettimeofday () +. 5. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
      when Unix.gettimeofday () < give_up ->
      Unix.close fd;
      Thread.delay 0.02;
      go ()
  in
  go ()

let serve_bench ~label ~scale ~reps ~clients ~out () =
  let dtd = Workload.Adex.dtd in
  (* two user groups: the paper's real-estate policy and an
     everything-accessible one, so per-group accounting has two
     distinct translation caches and latency series to show *)
  let groups =
    [ ("re", Workload.Adex.spec); ("all", Secview.Spec.make dtd []) ]
  in
  let docs =
    List.map
      (fun ds -> (ds.Workload.Datasets.name, Workload.Datasets.load ds))
      (Workload.Datasets.series ~scale ())
  in
  Printf.printf "## Server bench: %d clients x %d reps, Q1-Q4 x D1-D4, \
                 groups re+all\n\n" clients reps;
  (* the byte-exact expected reply for every (group, query, dataset)
     cell, computed single-threaded before the server exists *)
  let reference =
    Secview.Pipeline.Session.create (Secview.Pipeline.Service.create dtd ~groups)
  in
  let expected =
    List.concat_map
      (fun (g, _) ->
        List.concat_map
          (fun (qname, q) ->
            List.map
              (fun (dname, doc) ->
                let answers =
                  Secview.Pipeline.Session.answer_exn reference ~group:g q doc
                in
                ( (g, qname, dname),
                  String.concat "\n"
                    (List.map (fun n -> Sxml.Print.to_string n) answers) ))
              docs)
          Workload.Adex.queries)
      groups
  in
  let catalog = Secview.Catalog.create () in
  List.iter
    (fun (n, d) -> ignore (Secview.Catalog.add catalog ~name:n d))
    docs;
  let service = Secview.Pipeline.Service.create ~catalog dtd ~groups in
  let workers = 4 in
  let config = { Sserver.Server.default_config with domains = workers } in
  let server = Sserver.Server.create ~config service in
  let sock = Filename.temp_file "secview-bench" ".sock" in
  Sys.remove sock;
  let server_thread =
    Thread.create
      (fun () ->
        Sserver.Server.serve server [ Sserver.Server.Unix_socket sock ])
      ()
  in
  let wrong = Atomic.make 0 in
  let merge_lock = Mutex.create () in
  let latencies : (string, float list ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter (fun (g, _) -> Hashtbl.replace latencies g (ref [])) groups;
  let client i () =
    let g, _ = List.nth groups (i mod List.length groups) in
    let fd = connect_retry sock in
    let ic = Unix.in_channel_of_descr fd in
    let send j = write_all fd (Sobs.Json.to_string j ^ "\n") in
    send (Sserver.Protocol.hello ~peer:(Printf.sprintf "bench-%d" i) g);
    ignore (input_line ic);
    let mine = ref [] in
    for _ = 1 to reps do
      List.iter
        (fun (qname, q) ->
          List.iter
            (fun (dname, _) ->
              let t0 = Unix.gettimeofday () in
              send
                (Sserver.Protocol.query_json ~doc:dname
                   (Sxpath.Print.to_string q));
              let line = input_line ic in
              mine := (Unix.gettimeofday () -. t0) :: !mine;
              let got =
                match Sobs.Json.of_string line with
                | Ok j -> (
                  match Sobs.Json.member "results" j with
                  | Some (Sobs.Json.List rs) ->
                    Some
                      (String.concat "\n"
                         (List.filter_map Sobs.Json.to_string_opt rs))
                  | _ -> None)
                | Error _ -> None
              in
              match got with
              | Some s when String.equal s (List.assoc (g, qname, dname) expected)
                -> ()
              | _ -> Atomic.incr wrong)
            docs)
        Workload.Adex.queries
    done;
    Unix.close fd;
    Mutex.protect merge_lock (fun () ->
        let acc = Hashtbl.find latencies g in
        acc := !mine @ !acc)
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun i -> Thread.create (client i) ()) in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  (* drain: one more connection asks for shutdown, then join *)
  let fd = connect_retry sock in
  write_all fd (Sobs.Json.to_string (Sserver.Protocol.simple "shutdown") ^ "\n");
  ignore (input_line (Unix.in_channel_of_descr fd));
  Unix.close fd;
  Thread.join server_thread;
  let requests =
    clients * reps * List.length Workload.Adex.queries * List.length docs
  in
  let group_stats =
    List.map
      (fun (g, _) ->
        let times = Array.of_list !(Hashtbl.find latencies g) in
        Array.sort compare times;
        let pct p =
          if Array.length times = 0 then 0.
          else 1000. *. Sobs.Metrics.percentile times p
        in
        (g, Array.length times, pct 50., pct 95., pct 99.))
      groups
  in
  Printf.printf "requests   %d (wrong: %d)\n" requests (Atomic.get wrong);
  Printf.printf "wall       %.2f s\n" wall;
  Printf.printf "throughput %.0f req/s\n\n" (float_of_int requests /. wall);
  List.iter
    (fun (g, n, p50, p95, p99) ->
      Printf.printf
        "group %-4s  %6d req | p50 %8.3f ms  p95 %8.3f ms  p99 %8.3f ms\n" g
        n p50 p95 p99)
    group_stats;
  if Atomic.get wrong > 0 then
    Printf.printf "\n!! %d replies differed from the single-threaded baseline\n"
      (Atomic.get wrong);
  let doc =
    Sobs.Json.Obj
      [
        ("bench", Sobs.Json.String "serve");
        ( "meta",
          meta_json ~label ~scale ~reps
            [
              ("clients", Sobs.Json.Int clients);
              ("workers", Sobs.Json.Int workers);
            ] );
        ("requests", Sobs.Json.Int requests);
        ("wrong", Sobs.Json.Int (Atomic.get wrong));
        ("wall_s", Sobs.Json.Float wall);
        ("throughput_rps", Sobs.Json.Float (float_of_int requests /. wall));
        ( "groups",
          Sobs.Json.Obj
            (List.map
               (fun (g, n, p50, p95, p99) ->
                 ( g,
                   Sobs.Json.Obj
                     [
                       ("count", Sobs.Json.Int n);
                       ("p50_ms", Sobs.Json.Float p50);
                       ("p95_ms", Sobs.Json.Float p95);
                       ("p99_ms", Sobs.Json.Float p99);
                     ] ))
               group_stats) );
      ]
  in
  let oc = open_out out in
  Sobs.Json.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n(machine-readable results written to %s)\n\n" out;
  if Atomic.get wrong > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Engine ablation: the PR 4 physical-plan executor vs the            *)
(* interpreter, same translated queries, byte-compared answers        *)

let engines_bench ~label ~scale ~reps ~out () =
  let dtd = Workload.Adex.dtd in
  let groups = [ ("re", Workload.Adex.spec) ] in
  Printf.printf
    "## Engine ablation: interpreter vs compiled plans (times in ms)\n\n\
     Same pipeline, same translated queries; both engines get the\n\
     document's tag/extent index, so the delta is plan execution\n\
     (binary-searched interval joins) vs the set-at-a-time\n\
     interpreter.  Answers are byte-compared per cell.\n\n";
  Printf.printf "%-6s %-4s %9s %8s | %10s %10s | %8s\n" "Query" "Data"
    "elements" "results" "Interp" "Plan" "I/P";
  Printf.printf "%s\n" (String.make 66 '-');
  let catalog = Secview.Catalog.create () in
  let pipe =
    Secview.Pipeline.Session.create
      (Secview.Pipeline.Service.create ~catalog dtd ~groups)
  in
  let rows = ref [] in
  let mismatches = ref 0 in
  List.iter
    (fun ds ->
      let doc = Workload.Datasets.load ds in
      let elements = Sxml.Tree.count_elements doc in
      let index = Sxml.Index.build doc in
      List.iter
        (fun (qname, q) ->
          let run engine () =
            Secview.Pipeline.Session.answer_exn pipe ~group:"re" ~engine
              ~index q doc
          in
          let render ns =
            String.concat "\n" (List.map (fun n -> Sxml.Print.to_string n) ns)
          in
          let a_interp = render (run Secview.Pipeline.Interp ()) in
          let a_plan = render (run Secview.Pipeline.Plan ()) in
          let identical = String.equal a_interp a_plan in
          if not identical then begin
            incr mismatches;
            Printf.printf "!! engines disagree on %s/%s\n" qname
              ds.Workload.Datasets.name
          end;
          let s_interp =
            measure_stats ~reps (run Secview.Pipeline.Interp)
          in
          let s_plan = measure_stats ~reps (run Secview.Pipeline.Plan) in
          let ratio a b =
            if b > 1e-9 then Printf.sprintf "%7.1fx" (a /. b) else "      -"
          in
          let results =
            List.length (run Secview.Pipeline.Plan ())
          in
          Printf.printf "%-6s %-4s %9d %8d | %10.3f %10.3f | %s\n" qname
            ds.Workload.Datasets.name elements results
            (1000. *. s_interp.t_median) (1000. *. s_plan.t_median)
            (ratio s_interp.t_median s_plan.t_median);
          rows :=
            Sobs.Json.Obj
              [
                ("query", Sobs.Json.String qname);
                ("dataset", Sobs.Json.String ds.Workload.Datasets.name);
                ("elements", Sobs.Json.Int elements);
                ("results", Sobs.Json.Int results);
                ("identical", Sobs.Json.Bool identical);
                ( "eval_ms",
                  Sobs.Json.Obj
                    [
                      ("interp", stats_ms_json s_interp);
                      ("plan", stats_ms_json s_plan);
                    ] );
              ]
            :: !rows)
        Workload.Adex.queries;
      Printf.printf "%s\n" (String.make 66 '-'))
    (Workload.Datasets.series ~scale ());
  let stats : Secview.Pipeline.stats =
    Secview.Pipeline.Session.stats_of pipe ~group:"re"
  in
  Printf.printf
    "plan cache: %d hit(s) %d miss(es), %d compiled, %d fallback(s)\n\n"
    stats.Secview.Pipeline.plan_hits stats.Secview.Pipeline.plan_misses
    stats.Secview.Pipeline.plan_compiles stats.Secview.Pipeline.plan_fallbacks;
  let doc =
    Sobs.Json.Obj
      [
        ("bench", Sobs.Json.String "engines");
        ("meta", meta_json ~label ~scale ~reps []);
        ("mismatches", Sobs.Json.Int !mismatches);
        ( "plan_cache",
          Sobs.Json.Obj
            [
              ("hits", Sobs.Json.Int stats.Secview.Pipeline.plan_hits);
              ("misses", Sobs.Json.Int stats.Secview.Pipeline.plan_misses);
              ("compiles", Sobs.Json.Int stats.Secview.Pipeline.plan_compiles);
              ( "fallbacks",
                Sobs.Json.Int stats.Secview.Pipeline.plan_fallbacks );
            ] );
        ("rows", Sobs.Json.List (List.rev !rows));
      ]
  in
  let oc = open_out out in
  Sobs.Json.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "(machine-readable results written to %s)\n\n" out;
  if !mismatches > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* PR 6: the semantic analyzer's cost, and what the server's          *)
(* admission fast path buys on a denied-heavy query mix               *)

let analyze_bench ~label ~reps ~out () =
  let dtd = Workload.Hospital.dtd in
  (* a fleet of distinct groups: toggle 5 annotation slots of a
     variable-free nurse-like policy — every subset is a valid access
     specification over the hospital DTD, so 32 bit patterns give 32
     genuinely different accessible regions *)
  let trial_depts = Sxpath.Parse.qual_of_string "*/patient/treatment/trial" in
  let slots =
    [|
      (("hospital", "dept"), Secview.Spec.Cond trial_depts);
      (("dept", "clinicalTrial"), Secview.Spec.No);
      (("clinicalTrial", "patientInfo"), Secview.Spec.Yes);
      (("treatment", "trial"), Secview.Spec.No);
      (("treatment", "regular"), Secview.Spec.No);
    |]
  in
  let group i =
    let annots =
      List.filteri (fun b _ -> (i lsr b) land 1 = 1) (Array.to_list slots)
    in
    ( Printf.sprintf "g%02d" i,
      Secview.Derive.derive (Secview.Spec.make dtd annots) )
  in
  Printf.printf "## Analyzer bench: pairwise fleet analysis, %d reps\n\n" reps;
  let fleet_cells =
    List.map
      (fun n ->
        let views = List.init n group in
        (* the warmup inside measure_stats fills Image's
           process-global memo tables: the measured medians are the
           steady-state cost a long-lived server pays *)
        let s =
          measure_stats ~reps (fun () -> Sanalysis.Semantic.fleet dtd views)
        in
        let pairs = n * (n - 1) / 2 in
        Printf.printf
          "groups %2d  (%3d pairs): median %8.2f ms  (%.3f ms/pair)\n" n pairs
          (1000. *. s.t_median)
          (1000. *. s.t_median /. float_of_int pairs);
        (n, pairs, s))
      [ 2; 8; 32 ]
  in
  (* ---- serve A/B: admission fast path on a denied-heavy mix ------- *)
  (* 4 provably-empty queries to 1 real one — the mix of a client
     population probing for structure its view hides *)
  let mix =
    [
      ("denied", "//test");
      ("denied", "//clinicalTrial");
      ("denied", "//trial");
      ("denied", "//medication/name");
      ("eval", "//patient/name");
    ]
  in
  let kinds = [ "denied"; "eval" ] in
  let clients = 8 in
  let rounds = 25 * reps in
  let serve_mix ~admission =
    let catalog = Secview.Catalog.create () in
    let doc = Workload.Hospital.generated_document ~seed:7 ~scale:40 () in
    ignore (Secview.Catalog.add catalog ~name:"ward" doc);
    let service =
      Secview.Pipeline.Service.create ~catalog dtd
        ~groups:[ ("nurse", Workload.Hospital.nurse_spec dtd) ]
    in
    let config =
      { Sserver.Server.default_config with domains = 4; admission }
    in
    let server = Sserver.Server.create ~config service in
    let sock = Filename.temp_file "secview-bench" ".sock" in
    Sys.remove sock;
    let server_thread =
      Thread.create
        (fun () ->
          Sserver.Server.serve server [ Sserver.Server.Unix_socket sock ])
        ()
    in
    let lock = Mutex.create () in
    let samples : (string, float list ref) Hashtbl.t = Hashtbl.create 2 in
    List.iter (fun k -> Hashtbl.replace samples k (ref [])) kinds;
    let client i () =
      let fd = connect_retry sock in
      let ic = Unix.in_channel_of_descr fd in
      let send j = write_all fd (Sobs.Json.to_string j ^ "\n") in
      send (Sserver.Protocol.hello ~peer:(Printf.sprintf "ab-%d" i) "nurse");
      ignore (input_line ic);
      let mine = Hashtbl.create 2 in
      List.iter (fun k -> Hashtbl.replace mine k (ref [])) kinds;
      for _ = 1 to rounds do
        List.iter
          (fun (kind, q) ->
            let t0 = Unix.gettimeofday () in
            send
              (Sserver.Protocol.query_json ~doc:"ward"
                 ~bind:[ ("wardNo", "6") ] q);
            ignore (input_line ic);
            let dt = Unix.gettimeofday () -. t0 in
            let acc = Hashtbl.find mine kind in
            acc := dt :: !acc)
          mix
      done;
      Unix.close fd;
      Mutex.protect lock (fun () ->
          List.iter
            (fun k ->
              let acc = Hashtbl.find samples k in
              acc := !(Hashtbl.find mine k) @ !acc)
            kinds)
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (fun i -> Thread.create (client i) ()) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let fd = connect_retry sock in
    write_all fd
      (Sobs.Json.to_string (Sserver.Protocol.simple "shutdown") ^ "\n");
    ignore (input_line (Unix.in_channel_of_descr fd));
    Unix.close fd;
    Thread.join server_thread;
    let requests = clients * rounds * List.length mix in
    let pct kind p =
      let times = Array.of_list !(Hashtbl.find samples kind) in
      Array.sort compare times;
      if Array.length times = 0 then 0.
      else 1000. *. Sobs.Metrics.percentile times p
    in
    (requests, wall, pct)
  in
  Printf.printf
    "\n## Admission fast path A/B: %d clients, 4 denied : 1 eval mix\n\n"
    clients;
  let ab =
    List.map
      (fun admission ->
        let requests, wall, pct = serve_mix ~admission in
        Printf.printf
          "admission %-3s  %6d req in %6.2f s (%7.0f req/s) | denied p50 \
           %7.3f ms p95 %7.3f ms | eval p50 %7.3f ms\n"
          (if admission then "on" else "off")
          requests wall
          (float_of_int requests /. wall)
          (pct "denied" 50.) (pct "denied" 95.) (pct "eval" 50.);
        (admission, requests, wall, pct))
      [ true; false ]
  in
  let doc =
    Sobs.Json.Obj
      [
        ("bench", Sobs.Json.String "analyze");
        ( "meta",
          meta_json ~label ~scale:40 ~reps
            [
              ("clients", Sobs.Json.Int clients);
              ("rounds", Sobs.Json.Int rounds);
            ] );
        ( "fleet",
          Sobs.Json.List
            (List.map
               (fun (n, pairs, s) ->
                 Sobs.Json.Obj
                   [
                     ("groups", Sobs.Json.Int n);
                     ("pairs", Sobs.Json.Int pairs);
                     ("ms", stats_ms_json s);
                   ])
               fleet_cells) );
        ( "admission",
          Sobs.Json.Obj
            (List.map
               (fun (admission, requests, wall, pct) ->
                 ( (if admission then "on" else "off"),
                   Sobs.Json.Obj
                     [
                       ("requests", Sobs.Json.Int requests);
                       ("wall_s", Sobs.Json.Float wall);
                       ( "throughput_rps",
                         Sobs.Json.Float (float_of_int requests /. wall) );
                       ("denied_p50_ms", Sobs.Json.Float (pct "denied" 50.));
                       ("denied_p95_ms", Sobs.Json.Float (pct "denied" 95.));
                       ("eval_p50_ms", Sobs.Json.Float (pct "eval" 50.));
                       ("eval_p95_ms", Sobs.Json.Float (pct "eval" 95.));
                     ] ))
               ab) );
      ]
  in
  let oc = open_out out in
  Sobs.Json.to_channel oc doc;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n(machine-readable results written to %s)\n\n" out

(* ------------------------------------------------------------------ *)
(* PR 7: what attaching the observability spine (request spans, the
   flight recorder, a capture sink) costs on the serve hot path, and
   how a local replay of the captured workload compares to the live
   latencies it recorded *)

let pr7_bench ~label ~reps ~out () =
  let dtd = Workload.Hospital.dtd in
  let scale = 40 in
  let mix = [ "//patient/name"; "//patient/wardNo"; "//patient" ] in
  let clients = 8 in
  let rounds = 25 * reps in
  let fresh_pipeline () =
    let catalog = Secview.Catalog.create () in
    let doc = Workload.Hospital.generated_document ~seed:7 ~scale () in
    ignore (Secview.Catalog.add catalog ~name:"ward" doc);
    ( Secview.Pipeline.Service.create ~catalog dtd
        ~groups:[ ("nurse", Workload.Hospital.nurse_spec dtd) ],
      doc )
  in
  (* the same closed-loop mix against two servers: bare, and with the
     full observability spine attached — per-request span trees, a
     256-entry flight recorder, and a capture file recording every
     answered query *)
  let serve_mix ~observed =
    let service, _ = fresh_pipeline () in
    let config = { Sserver.Server.default_config with domains = 4 } in
    let capture_path =
      if observed then Some (Filename.temp_file "secview-pr7" ".jsonl")
      else None
    in
    let tracer =
      if observed then begin
        let tr = Sobs.Tracer.create ~retain:false () in
        Sobs.Tracer.install tr;
        Some tr
      end
      else None
    in
    let recorder =
      if observed then Some (Sobs.Recorder.create ~capacity:256) else None
    in
    let cap = Option.map Sobs.Capture.open_file capture_path in
    let server =
      Sserver.Server.create ~config ?tracer ?recorder ?capture:cap service
    in
    let sock = Filename.temp_file "secview-bench" ".sock" in
    Sys.remove sock;
    let server_thread =
      Thread.create
        (fun () ->
          Sserver.Server.serve server [ Sserver.Server.Unix_socket sock ])
        ()
    in
    let lock = Mutex.create () in
    let samples = ref [] in
    let client i () =
      let fd = connect_retry sock in
      let ic = Unix.in_channel_of_descr fd in
      let send j = write_all fd (Sobs.Json.to_string j ^ "\n") in
      send (Sserver.Protocol.hello ~peer:(Printf.sprintf "pr7-%d" i) "nurse");
      ignore (input_line ic);
      let mine = ref [] in
      for _ = 1 to rounds do
        List.iter
          (fun q ->
            let t0 = Unix.gettimeofday () in
            send
              (Sserver.Protocol.query_json ~doc:"ward"
                 ~bind:[ ("wardNo", "6") ] q);
            ignore (input_line ic);
            mine := (Unix.gettimeofday () -. t0) :: !mine)
          mix
      done;
      Unix.close fd;
      Mutex.protect lock (fun () -> samples := !mine @ !samples)
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (fun i -> Thread.create (client i) ()) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let fd = connect_retry sock in
    write_all fd
      (Sobs.Json.to_string (Sserver.Protocol.simple "shutdown") ^ "\n");
    ignore (input_line (Unix.in_channel_of_descr fd));
    Unix.close fd;
    Thread.join server_thread;
    (match tracer with Some _ -> Sobs.Tracer.uninstall () | None -> ());
    let requests = clients * rounds * List.length mix in
    let times = Array.of_list !samples in
    Array.sort compare times;
    let pct p = 1000. *. Sobs.Metrics.percentile times p in
    (requests, wall, pct, capture_path)
  in
  Printf.printf
    "## Flight recorder A/B: %d clients, %d rounds, %d-query mix (serve)\n\n"
    clients rounds (List.length mix);
  let side observed =
    let requests, wall, pct, capture_path = serve_mix ~observed in
    Printf.printf
      "recorder %-3s  %6d req in %6.2f s (%7.0f req/s) | p50 %7.3f ms  p95 \
       %7.3f ms  p99 %7.3f ms\n"
      (if observed then "on" else "off")
      requests wall
      (float_of_int requests /. wall)
      (pct 50.) (pct 95.) (pct 99.);
    (requests, wall, pct, capture_path)
  in
  let off = side false in
  let on = side true in
  let side_json (requests, wall, pct, _) =
    Sobs.Json.Obj
      [
        ("requests", Sobs.Json.Int requests);
        ("wall_s", Sobs.Json.Float wall);
        ("throughput_rps", Sobs.Json.Float (float_of_int requests /. wall));
        ("p50_ms", Sobs.Json.Float (pct 50.));
        ("p95_ms", Sobs.Json.Float (pct 95.));
        ("p99_ms", Sobs.Json.Float (pct 99.));
      ]
  in
  (* ---- replay-vs-live: re-execute the observed run's capture ------ *)
  let records =
    match on with
    | _, _, _, Some path -> (
      match Sobs.Capture.read_file path with
      | Ok rs ->
        Sys.remove path;
        rs
      | Error e -> failwith (Printf.sprintf "pr7: %s" e))
    | _ -> []
  in
  let svc, doc = fresh_pipeline () in
  let pipe = Secview.Pipeline.Session.create svc in
  let mismatches = ref 0 in
  let cap_ms = ref [] and rep_ms = ref [] in
  List.iter
    (fun (r : Sobs.Capture.record) ->
      let engine =
        match Secview.Pipeline.engine_of_string r.c_engine with
        | Some e -> e
        | None -> failwith ("pr7: unknown engine " ^ r.c_engine)
      in
      let q = Sxpath.Parse.of_string r.c_query in
      let env name = List.assoc_opt name r.c_bind in
      let t0 = Unix.gettimeofday () in
      let nodes =
        Secview.Pipeline.Session.answer_exn pipe ~group:r.c_group ~engine
          ~env q doc
      in
      let ms = 1000. *. (Unix.gettimeofday () -. t0) in
      let rendered = List.map (fun n -> Sxml.Print.to_string n) nodes in
      if Sobs.Capture.digest rendered <> r.c_digest then incr mismatches;
      cap_ms := r.c_latency_ms :: !cap_ms;
      rep_ms := ms :: !rep_ms)
    records;
  let pct l p =
    let a = Array.of_list !l in
    Array.sort compare a;
    if Array.length a = 0 then 0. else Sobs.Metrics.percentile a p
  in
  Printf.printf
    "\n\
     ## Replay vs live: %d captured record(s), %d digest mismatch(es)\n\n\
     live     p50 %7.3f ms  p95 %7.3f ms\n\
     replayed p50 %7.3f ms  p95 %7.3f ms  (local pipeline, no socket, \
     no queueing)\n"
    (List.length records) !mismatches (pct cap_ms 50.) (pct cap_ms 95.)
    (pct rep_ms 50.) (pct rep_ms 95.);
  let doc_json =
    Sobs.Json.Obj
      [
        ("bench", Sobs.Json.String "pr7");
        ( "meta",
          meta_json ~label ~scale ~reps
            [
              ("clients", Sobs.Json.Int clients);
              ("rounds", Sobs.Json.Int rounds);
            ] );
        ( "recorder",
          Sobs.Json.Obj [ ("off", side_json off); ("on", side_json on) ] );
        ( "replay",
          Sobs.Json.Obj
            [
              ("records", Sobs.Json.Int (List.length records));
              ("mismatches", Sobs.Json.Int !mismatches);
              ( "captured",
                Sobs.Json.Obj
                  [
                    ("p50_ms", Sobs.Json.Float (pct cap_ms 50.));
                    ("p95_ms", Sobs.Json.Float (pct cap_ms 95.));
                  ] );
              ( "replayed",
                Sobs.Json.Obj
                  [
                    ("p50_ms", Sobs.Json.Float (pct rep_ms 50.));
                    ("p95_ms", Sobs.Json.Float (pct rep_ms 95.));
                  ] );
            ] );
      ]
  in
  let oc = open_out out in
  Sobs.Json.to_channel oc doc_json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n(machine-readable results written to %s)\n\n" out;
  if !mismatches > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* PR 8: mixed read/write serving.  A read-only pass reproduces the
   PR 7 hot path at the same JSON paths (under recorder.off), so
   bench_diff can hold the read path to its PR 7 percentiles; then
   two mixed passes (90/10 and 50/50 read/write) at two groups
   measure what transactional updates — writer lock, copy-on-write
   rebuild, snapshot swap — cost
   writers while readers keep answering from pinned snapshots. *)

let pr8_bench ~label ~reps ~out () =
  let dtd = Workload.Hospital.dtd in
  let scale = 40 in
  let mix = [ "//patient/name"; "//patient/wardNo"; "//patient" ] in
  let update_text = "replace //patient//bill with <bill>7</bill>" in
  let clients = 8 in
  let rounds = 25 * reps in
  let bill_grants =
    [
      (("trial", "bill"), [ Secview.Spec.Replace ]);
      (("regular", "bill"), [ Secview.Spec.Replace ]);
    ]
  in
  let fresh_pipeline () =
    let catalog = Secview.Catalog.create () in
    let doc = Workload.Hospital.generated_document ~seed:7 ~scale () in
    ignore (Secview.Catalog.add catalog ~name:"ward" doc);
    Secview.Pipeline.Service.create ~catalog dtd
      ~groups:
        [
          ("nurse", Workload.Hospital.nurse_spec ~write:bill_grants dtd);
          ("admin", Secview.Spec.make ~write:bill_grants dtd []);
        ]
  in
  (* one closed-loop pass; every [write_every]-th request is an
     update (0 = read-only) *)
  let run_pass ~write_every =
    let service = fresh_pipeline () in
    let config = { Sserver.Server.default_config with domains = 4 } in
    let server = Sserver.Server.create ~config service in
    let sock = Filename.temp_file "secview-pr8" ".sock" in
    Sys.remove sock;
    let server_thread =
      Thread.create
        (fun () ->
          Sserver.Server.serve server [ Sserver.Server.Unix_socket sock ])
        ()
    in
    let lock = Mutex.create () in
    let reads = ref [] and writes = ref [] in
    let failures = ref 0 in
    let qmix = Array.of_list mix in
    let n = Array.length qmix in
    let client i () =
      (* the read-only pass keeps every client on the nurse group so
         its numbers stay comparable to the PR 7 read benchmark; the
         mixed passes split clients across both groups (the admin
         view is the whole document, so its reads return more) *)
      let group =
        if write_every > 0 && i land 1 = 1 then "admin" else "nurse"
      in
      let fd = connect_retry sock in
      let ic = Unix.in_channel_of_descr fd in
      let send j = write_all fd (Sobs.Json.to_string j ^ "\n") in
      send (Sserver.Protocol.hello ~peer:(Printf.sprintf "pr8-%d" i) group);
      ignore (input_line ic);
      let mine_r = ref [] and mine_w = ref [] and mine_f = ref 0 in
      for k = 0 to (rounds * n) - 1 do
        let is_write =
          write_every > 0 && k mod write_every = write_every - 1
        in
        let t0 = Unix.gettimeofday () in
        (if is_write then
           send
             (Sserver.Protocol.update_json ~doc:"ward"
                ~bind:[ ("wardNo", "6") ] update_text)
         else
           send
             (Sserver.Protocol.query_json ~doc:"ward"
                ~bind:[ ("wardNo", "6") ]
                qmix.(k mod n)));
        let line = input_line ic in
        let ms = 1000. *. (Unix.gettimeofday () -. t0) in
        (* replies put "ok" first; a prefix check keeps client-side
           work off this machine's CPU (a full JSON parse of every
           result list would compete with the server's workers) *)
        if not (String.length line >= 10 && String.sub line 0 10 = {|{"ok":true|})
        then incr mine_f;
        if is_write then mine_w := ms :: !mine_w
        else mine_r := ms :: !mine_r
      done;
      Unix.close fd;
      Mutex.protect lock (fun () ->
          reads := !mine_r @ !reads;
          writes := !mine_w @ !writes;
          failures := !failures + !mine_f)
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (fun i -> Thread.create (client i) ()) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let fd = connect_retry sock in
    write_all fd
      (Sobs.Json.to_string (Sserver.Protocol.simple "shutdown") ^ "\n");
    ignore (input_line (Unix.in_channel_of_descr fd));
    Unix.close fd;
    Thread.join server_thread;
    if !failures > 0 then
      failwith (Printf.sprintf "pr8: %d request(s) failed" !failures);
    let pct_of l =
      let a = Array.of_list l in
      Array.sort compare a;
      fun p ->
        if Array.length a = 0 then 0. else Sobs.Metrics.percentile a p
    in
    ( clients * rounds * n,
      List.length !writes,
      wall,
      pct_of !reads,
      pct_of !writes )
  in
  let show tag (requests, nwrites, wall, rpct, wpct) =
    Printf.printf
      "%-6s %6d req (%5d writes) in %6.2f s (%7.0f req/s) | read p50 %7.3f \
       ms  p95 %7.3f ms | write p50 %7.3f ms  p95 %7.3f ms\n"
      tag requests nwrites wall
      (float_of_int requests /. wall)
      (rpct 50.) (rpct 95.) (wpct 50.) (wpct 95.)
  in
  Printf.printf
    "## Mixed read/write: %d clients over 2 groups, %d requests each \
     (serve)\n\n"
    clients (rounds * List.length mix);
  let read_only = run_pass ~write_every:0 in
  show "reads" read_only;
  let m9010 = run_pass ~write_every:10 in
  show "90/10" m9010;
  let m5050 = run_pass ~write_every:2 in
  show "50/50" m5050;
  let lat_json pct =
    Sobs.Json.Obj
      [
        ("p50_ms", Sobs.Json.Float (pct 50.));
        ("p95_ms", Sobs.Json.Float (pct 95.));
        ("p99_ms", Sobs.Json.Float (pct 99.));
      ]
  in
  let side_json (requests, _, wall, rpct, _) =
    Sobs.Json.Obj
      [
        ("requests", Sobs.Json.Int requests);
        ("wall_s", Sobs.Json.Float wall);
        ("throughput_rps", Sobs.Json.Float (float_of_int requests /. wall));
        ("p50_ms", Sobs.Json.Float (rpct 50.));
        ("p95_ms", Sobs.Json.Float (rpct 95.));
        ("p99_ms", Sobs.Json.Float (rpct 99.));
      ]
  in
  let mixed_json lbl (requests, nwrites, wall, rpct, wpct) =
    Sobs.Json.Obj
      [
        ("label", Sobs.Json.String lbl);
        ("groups", Sobs.Json.Int 2);
        ("requests", Sobs.Json.Int requests);
        ("writes", Sobs.Json.Int nwrites);
        ("wall_s", Sobs.Json.Float wall);
        ("throughput_rps", Sobs.Json.Float (float_of_int requests /. wall));
        ("read", lat_json rpct);
        ("write", lat_json wpct);
      ]
  in
  let doc_json =
    Sobs.Json.Obj
      [
        ("bench", Sobs.Json.String "pr8");
        ( "meta",
          meta_json ~label ~scale ~reps
            [
              ("clients", Sobs.Json.Int clients);
              ("rounds", Sobs.Json.Int rounds);
            ] );
        (* read-only pass at PR 7's paths, so bench_diff gates the
           read path against BENCH_PR7.json *)
        ("recorder", Sobs.Json.Obj [ ("off", side_json read_only) ]);
        ( "mixed",
          Sobs.Json.List
            [ mixed_json "90/10" m9010; mixed_json "50/50" m5050 ] );
      ]
  in
  let oc = open_out out in
  Sobs.Json.to_channel oc doc_json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n(machine-readable results written to %s)\n\n" out

(* ------------------------------------------------------------------ *)
(* PR 9: domain-per-worker scaling sweep.  The PR 8 read workload     *)
(* (hospital, 8 clients, Q-mix over the nurse view) against servers   *)
(* with 1/2/4/8 worker domains, every reply byte-compared to a        *)
(* single-session oracle; the 1-domain pass is written at PR 8's      *)
(* recorder.off paths so bench_diff holds the single-domain read      *)
(* path to the threaded server's numbers.  A final 90/10 mixed pass   *)
(* exercises the update-coordinator domain.  Scaling beyond the       *)
(* machine's core count cannot show: the meta block stamps            *)
(* Domain.recommended_domain_count so readers can judge the sweep.    *)

let pr9_bench ~label ~reps ~out () =
  let dtd = Workload.Hospital.dtd in
  let scale = 40 in
  let mix = [ "//patient/name"; "//patient/wardNo"; "//patient" ] in
  let update_text = "replace //patient//bill with <bill>7</bill>" in
  let clients = 8 in
  let rounds = 25 * reps in
  let cores = Domain.recommended_domain_count () in
  let bill_grants =
    [
      (("trial", "bill"), [ Secview.Spec.Replace ]);
      (("regular", "bill"), [ Secview.Spec.Replace ]);
    ]
  in
  let fresh_service () =
    let catalog = Secview.Catalog.create () in
    let doc = Workload.Hospital.generated_document ~seed:7 ~scale () in
    ignore (Secview.Catalog.add catalog ~name:"ward" doc);
    ( Secview.Pipeline.Service.create ~catalog dtd
        ~groups:
          [
            ("nurse", Workload.Hospital.nurse_spec ~write:bill_grants dtd);
            ("admin", Secview.Spec.make ~write:bill_grants dtd []);
          ],
      doc )
  in
  (* byte-exact expected answers, computed on one session before any
     server exists — the sweep's correctness oracle *)
  let expected =
    let svc, doc = fresh_service () in
    let sess = Secview.Pipeline.Session.create svc in
    let env name = if name = "wardNo" then Some "6" else None in
    List.map
      (fun qtext ->
        let q = Sxpath.Parse.of_string qtext in
        let nodes =
          Secview.Pipeline.Session.answer_exn sess ~group:"nurse" ~env q doc
        in
        ( qtext,
          String.concat "\n"
            (List.map (fun n -> Sxml.Print.to_string n) nodes) ))
      mix
  in
  let qmix = Array.of_list mix in
  let n = Array.length qmix in
  (* Replies are deterministic once the rid is pinned client-side
     ({"ok","v","rid","results","count"} over an immutable document),
     so the timed loops can verify every reply byte-for-byte at the
     cost of one string compare: capture each query's reply line from
     a 1-domain reference server, full-parse it once here, check its
     results against the session oracle, and hand the raw lines to
     the sweep.  (A JSON parse per reply inside the timed loop would
     compete with the server for this machine's cores.) *)
  let expected_lines = ref [] in
  (* one closed-loop pass at [domains] workers; [write_every] as in
     the PR 8 bench (0 = read-only, every reply byte-compared to the
     reference line; mixed passes only prefix-check replies — the
     document mutates) *)
  let run_pass ~domains ~write_every =
    let service, _ = fresh_service () in
    let config = { Sserver.Server.default_config with domains } in
    let server = Sserver.Server.create ~config service in
    let sock = Filename.temp_file "secview-pr9" ".sock" in
    Sys.remove sock;
    let server_thread =
      Thread.create
        (fun () ->
          Sserver.Server.serve server [ Sserver.Server.Unix_socket sock ])
        ()
    in
    let lock = Mutex.create () in
    let reads = ref [] and writes = ref [] in
    let failures = ref 0 in
    let wrong = Atomic.make 0 in
    let client i () =
      let group =
        if write_every > 0 && i land 1 = 1 then "admin" else "nurse"
      in
      let fd = connect_retry sock in
      let ic = Unix.in_channel_of_descr fd in
      let send j = write_all fd (Sobs.Json.to_string j ^ "\n") in
      send (Sserver.Protocol.hello ~peer:(Printf.sprintf "pr9-%d" i) group);
      ignore (input_line ic);
      let mine_r = ref [] and mine_w = ref [] and mine_f = ref 0 in
      for k = 0 to (rounds * n) - 1 do
        let is_write =
          write_every > 0 && k mod write_every = write_every - 1
        in
        let qtext = qmix.(k mod n) in
        let t0 = Unix.gettimeofday () in
        (if is_write then
           send
             (Sserver.Protocol.update_json ~doc:"ward"
                ~bind:[ ("wardNo", "6") ] update_text)
         else
           send
             (Sserver.Protocol.query_json ~rid:"o" ~doc:"ward"
                ~bind:[ ("wardNo", "6") ] qtext));
        let line = input_line ic in
        let ms = 1000. *. (Unix.gettimeofday () -. t0) in
        if not (String.length line >= 10 && String.sub line 0 10 = {|{"ok":true|})
        then incr mine_f;
        if (not is_write) && write_every = 0 then begin
          (* read-only pass: every reply byte-identical to the
             oracle-checked reference line *)
          match List.assoc_opt qtext !expected_lines with
          | Some want when String.equal line want -> ()
          | _ -> Atomic.incr wrong
        end;
        if is_write then mine_w := ms :: !mine_w
        else mine_r := ms :: !mine_r
      done;
      Unix.close fd;
      Mutex.protect lock (fun () ->
          reads := !mine_r @ !reads;
          writes := !mine_w @ !writes;
          failures := !failures + !mine_f)
    in
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (fun i -> Thread.create (client i) ()) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    let fd = connect_retry sock in
    write_all fd
      (Sobs.Json.to_string (Sserver.Protocol.simple "shutdown") ^ "\n");
    ignore (input_line (Unix.in_channel_of_descr fd));
    Unix.close fd;
    Thread.join server_thread;
    if !failures > 0 then
      failwith (Printf.sprintf "pr9: %d request(s) failed" !failures);
    let pct_of l =
      let a = Array.of_list l in
      Array.sort compare a;
      fun p ->
        if Array.length a = 0 then 0. else Sobs.Metrics.percentile a p
    in
    ( clients * rounds * n,
      List.length !writes,
      wall,
      pct_of !reads,
      pct_of !writes,
      Atomic.get wrong )
  in
  (* capture the reference reply lines and oracle-check them (full
     JSON parse, off the clock) before any timed pass runs *)
  let () =
    let service, _ = fresh_service () in
    let config = { Sserver.Server.default_config with domains = 1 } in
    let server = Sserver.Server.create ~config service in
    let sock = Filename.temp_file "secview-pr9ref" ".sock" in
    Sys.remove sock;
    let th =
      Thread.create
        (fun () ->
          Sserver.Server.serve server [ Sserver.Server.Unix_socket sock ])
        ()
    in
    let fd = connect_retry sock in
    let ic = Unix.in_channel_of_descr fd in
    let send j = write_all fd (Sobs.Json.to_string j ^ "\n") in
    send (Sserver.Protocol.hello ~peer:"pr9-ref" "nurse");
    ignore (input_line ic);
    List.iter
      (fun qtext ->
        send
          (Sserver.Protocol.query_json ~rid:"o" ~doc:"ward"
             ~bind:[ ("wardNo", "6") ] qtext);
        let line = input_line ic in
        let got =
          match Sobs.Json.of_string line with
          | Ok j -> (
            match Sobs.Json.member "results" j with
            | Some (Sobs.Json.List rs) ->
              Some
                (String.concat "\n"
                   (List.filter_map Sobs.Json.to_string_opt rs))
            | _ -> None)
          | Error _ -> None
        in
        (match got with
        | Some s when String.equal s (List.assoc qtext expected) -> ()
        | _ ->
          failwith
            ("pr9: reference reply diverges from the oracle on " ^ qtext));
        expected_lines := (qtext, line) :: !expected_lines)
      mix;
    send (Sserver.Protocol.simple "shutdown");
    ignore (input_line ic);
    Unix.close fd;
    Thread.join th
  in
  Printf.printf
    "## Domain sweep: %d clients, %d requests each, nurse view reads \
     (serve; %d core(s) available)\n\n"
    clients (rounds * n) cores;
  let sweep =
    List.map
      (fun domains ->
        let ((requests, _, wall, rpct, _, wrong) as r) =
          run_pass ~domains ~write_every:0
        in
        Printf.printf
          "domains %d  %6d req in %6.2f s (%7.0f req/s) | p50 %7.3f ms  \
           p95 %7.3f ms | wrong %d\n%!"
          domains requests wall
          (float_of_int requests /. wall)
          (rpct 50.) (rpct 95.) wrong;
        (domains, r))
      [ 1; 2; 4; 8 ]
  in
  let total_wrong =
    List.fold_left (fun acc (_, (_, _, _, _, _, w)) -> acc + w) 0 sweep
  in
  if total_wrong > 0 then
    Printf.printf "\n!! %d replies differed from the one-session oracle\n"
      total_wrong;
  if cores = 1 then
    Printf.printf
      "\n(single-core machine: the sweep measures domain overhead, not \
       scaling)\n";
  let requests_m, nwrites_m, wall_m, rpct_m, wpct_m, _ =
    run_pass ~domains:4 ~write_every:10
  in
  Printf.printf
    "\n90/10  %6d req (%5d writes) in %6.2f s (%7.0f req/s) | read p50 \
     %7.3f ms | write p50 %7.3f ms (1 coordinator)\n"
    requests_m nwrites_m wall_m
    (float_of_int requests_m /. wall_m)
    (rpct_m 50.) (wpct_m 50.);
  let side_json (requests, _, wall, rpct, _, _) =
    Sobs.Json.Obj
      [
        ("requests", Sobs.Json.Int requests);
        ("wall_s", Sobs.Json.Float wall);
        ("throughput_rps", Sobs.Json.Float (float_of_int requests /. wall));
        ("p50_ms", Sobs.Json.Float (rpct 50.));
        ("p95_ms", Sobs.Json.Float (rpct 95.));
        ("p99_ms", Sobs.Json.Float (rpct 99.));
      ]
  in
  let base_rps =
    match sweep with
    | (_, (requests, _, wall, _, _, _)) :: _ ->
      float_of_int requests /. wall
    | [] -> 1.
  in
  let sweep_json =
    Sobs.Json.List
      (List.map
         (fun (domains, ((requests, _, wall, _, _, wrong) as r)) ->
           let rps = float_of_int requests /. wall in
           match side_json r with
           | Sobs.Json.Obj fields ->
             Sobs.Json.Obj
               (("domains", Sobs.Json.Int domains)
               :: ("wrong", Sobs.Json.Int wrong)
               :: ("speedup_vs_1", Sobs.Json.Float (rps /. base_rps))
               :: fields)
           | j -> j)
         sweep)
  in
  let doc_json =
    Sobs.Json.Obj
      [
        ("bench", Sobs.Json.String "pr9");
        ( "meta",
          meta_json ~label ~scale ~reps
            [
              ("clients", Sobs.Json.Int clients);
              ("rounds", Sobs.Json.Int rounds);
              ("cores", Sobs.Json.Int cores);
            ] );
        ("wrong", Sobs.Json.Int total_wrong);
        (* 1-domain read pass at PR 8's paths: bench_diff gates the
           single-domain read path against BENCH_PR8.json *)
        ( "recorder",
          Sobs.Json.Obj [ ("off", side_json (List.assoc 1 sweep)) ] );
        ("domains", sweep_json);
        ( "mixed",
          Sobs.Json.Obj
            [
              ("label", Sobs.Json.String "90/10");
              ("domains", Sobs.Json.Int 4);
              ("requests", Sobs.Json.Int requests_m);
              ("writes", Sobs.Json.Int nwrites_m);
              ("wall_s", Sobs.Json.Float wall_m);
              ( "throughput_rps",
                Sobs.Json.Float (float_of_int requests_m /. wall_m) );
              ( "read",
                Sobs.Json.Obj
                  [
                    ("p50_ms", Sobs.Json.Float (rpct_m 50.));
                    ("p95_ms", Sobs.Json.Float (rpct_m 95.));
                  ] );
              ( "write",
                Sobs.Json.Obj
                  [
                    ("p50_ms", Sobs.Json.Float (wpct_m 50.));
                    ("p95_ms", Sobs.Json.Float (wpct_m 95.));
                  ] );
            ] );
      ]
  in
  let oc = open_out out in
  Sobs.Json.to_channel oc doc_json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n(machine-readable results written to %s)\n\n" out;
  if total_wrong > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* PR 10: runtime-health overhead.  The PR 9 read workload against a  *)
(* 4-domain server that already runs the flight recorder and tracer,  *)
(* with and without the Runtime_events consumer — the added cost of   *)
(* per-domain GC telemetry plus per-request pause attribution.  Every *)
(* reply is byte-compared to a one-session oracle, and a monitor      *)
(* thread polls the stats verb throughout (the [secview top] path),   *)
(* so the scrape merge runs concurrently with the traffic it reads.   *)

let pr10_bench ~label ~reps ~out () =
  let dtd = Workload.Hospital.dtd in
  let scale = 40 in
  let mix = [ "//patient/name"; "//patient/wardNo"; "//patient" ] in
  let clients = 8 in
  let rounds = 25 * reps in
  let cores = Domain.recommended_domain_count () in
  let fresh_service () =
    let catalog = Secview.Catalog.create () in
    let doc = Workload.Hospital.generated_document ~seed:7 ~scale () in
    ignore (Secview.Catalog.add catalog ~name:"ward" doc);
    ( Secview.Pipeline.Service.create ~catalog dtd
        ~groups:[ ("nurse", Workload.Hospital.nurse_spec dtd) ],
      doc )
  in
  let expected =
    let svc, doc = fresh_service () in
    let sess = Secview.Pipeline.Session.create svc in
    let env name = if name = "wardNo" then Some "6" else None in
    List.map
      (fun qtext ->
        let q = Sxpath.Parse.of_string qtext in
        let nodes =
          Secview.Pipeline.Session.answer_exn sess ~group:"nurse" ~env q doc
        in
        ( qtext,
          String.concat "\n"
            (List.map (fun n -> Sxml.Print.to_string n) nodes) ))
      mix
  in
  let qmix = Array.of_list mix in
  let n = Array.length qmix in
  let expected_lines = ref [] in
  let run_pass ~runtime_on =
    let service, _ = fresh_service () in
    let config = { Sserver.Server.default_config with domains = 4 } in
    let recorder = Sobs.Recorder.create ~capacity:256 in
    let tracer = Sobs.Tracer.create ~retain:false () in
    Sobs.Tracer.install tracer;
    let runtime = if runtime_on then Some (Sobs.Runtime.start ()) else None in
    let server =
      Sserver.Server.create ~config ~recorder ~tracer ?runtime service
    in
    let sock = Filename.temp_file "secview-pr10" ".sock" in
    Sys.remove sock;
    let server_thread =
      Thread.create
        (fun () ->
          Sserver.Server.serve server [ Sserver.Server.Unix_socket sock ])
        ()
    in
    let lock = Mutex.create () in
    let reads = ref [] in
    let failures = ref 0 in
    let wrong = Atomic.make 0 in
    (* the dashboard path: keep scraping the stats verb while the
       timed traffic runs (what [secview top --interval] does) *)
    let monitoring = Atomic.make true in
    let scrapes = ref 0 and scrape_failures = ref 0 in
    let monitor () =
      while Atomic.get monitoring do
        (try
           let fd = connect_retry sock in
           let ic = Unix.in_channel_of_descr fd in
           write_all fd
             (Sobs.Json.to_string (Sserver.Protocol.simple "stats") ^ "\n");
           let line = input_line ic in
           Unix.close fd;
           incr scrapes;
           if
             not
               (String.length line >= 10
               && String.sub line 0 10 = {|{"ok":true|})
           then incr scrape_failures
         with _ -> incr scrape_failures);
        Thread.delay 0.05
      done
    in
    let client i () =
      let fd = connect_retry sock in
      let ic = Unix.in_channel_of_descr fd in
      let send j = write_all fd (Sobs.Json.to_string j ^ "\n") in
      send (Sserver.Protocol.hello ~peer:(Printf.sprintf "pr10-%d" i) "nurse");
      ignore (input_line ic);
      let mine_r = ref [] and mine_f = ref 0 in
      for k = 0 to (rounds * n) - 1 do
        let qtext = qmix.(k mod n) in
        let t0 = Unix.gettimeofday () in
        send
          (Sserver.Protocol.query_json ~rid:"o" ~doc:"ward"
             ~bind:[ ("wardNo", "6") ] qtext);
        let line = input_line ic in
        let ms = 1000. *. (Unix.gettimeofday () -. t0) in
        if not (String.length line >= 10 && String.sub line 0 10 = {|{"ok":true|})
        then incr mine_f;
        (match List.assoc_opt qtext !expected_lines with
        | Some want when String.equal line want -> ()
        | _ -> Atomic.incr wrong);
        mine_r := ms :: !mine_r
      done;
      Unix.close fd;
      Mutex.protect lock (fun () ->
          reads := !mine_r @ !reads;
          failures := !failures + !mine_f)
    in
    let monitor_thread = Thread.create monitor () in
    let t0 = Unix.gettimeofday () in
    let threads = List.init clients (fun i -> Thread.create (client i) ()) in
    List.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    Atomic.set monitoring false;
    Thread.join monitor_thread;
    let fd = connect_retry sock in
    write_all fd
      (Sobs.Json.to_string (Sserver.Protocol.simple "shutdown") ^ "\n");
    ignore (input_line (Unix.in_channel_of_descr fd));
    Unix.close fd;
    Thread.join server_thread;
    Sobs.Tracer.uninstall ();
    if !failures > 0 then
      failwith (Printf.sprintf "pr10: %d request(s) failed" !failures);
    if !scrape_failures > 0 then
      failwith
        (Printf.sprintf "pr10: %d stats scrape(s) failed" !scrape_failures);
    let pct_of l =
      let a = Array.of_list l in
      Array.sort compare a;
      fun p ->
        if Array.length a = 0 then 0. else Sobs.Metrics.percentile a p
    in
    ( clients * rounds * n,
      wall,
      pct_of !reads,
      Atomic.get wrong,
      !scrapes )
  in
  (* reference reply lines, oracle-checked off the clock (as in pr9) *)
  let () =
    let service, _ = fresh_service () in
    let config = { Sserver.Server.default_config with domains = 1 } in
    let server = Sserver.Server.create ~config service in
    let sock = Filename.temp_file "secview-pr10ref" ".sock" in
    Sys.remove sock;
    let th =
      Thread.create
        (fun () ->
          Sserver.Server.serve server [ Sserver.Server.Unix_socket sock ])
        ()
    in
    let fd = connect_retry sock in
    let ic = Unix.in_channel_of_descr fd in
    let send j = write_all fd (Sobs.Json.to_string j ^ "\n") in
    send (Sserver.Protocol.hello ~peer:"pr10-ref" "nurse");
    ignore (input_line ic);
    List.iter
      (fun qtext ->
        send
          (Sserver.Protocol.query_json ~rid:"o" ~doc:"ward"
             ~bind:[ ("wardNo", "6") ] qtext);
        let line = input_line ic in
        let got =
          match Sobs.Json.of_string line with
          | Ok j -> (
            match Sobs.Json.member "results" j with
            | Some (Sobs.Json.List rs) ->
              Some
                (String.concat "\n"
                   (List.filter_map Sobs.Json.to_string_opt rs))
            | _ -> None)
          | Error _ -> None
        in
        (match got with
        | Some s when String.equal s (List.assoc qtext expected) -> ()
        | _ ->
          failwith
            ("pr10: reference reply diverges from the oracle on " ^ qtext));
        expected_lines := (qtext, line) :: !expected_lines)
      mix;
    send (Sserver.Protocol.simple "shutdown");
    ignore (input_line ic);
    Unix.close fd;
    Thread.join th
  in
  Printf.printf
    "## Runtime-health overhead: %d clients, %d requests each, recorder + \
     tracer on (serve; %d core(s) available)\n\n"
    clients (rounds * n) cores;
  let show tag (requests, wall, rpct, wrong, scrapes) =
    Printf.printf
      "%-12s %6d req in %6.2f s (%7.0f req/s) | p50 %7.3f ms  p95 %7.3f ms \
       | wrong %d | %d stats scrape(s)\n%!"
      tag requests wall
      (float_of_int requests /. wall)
      (rpct 50.) (rpct 95.) wrong scrapes
  in
  let ((_, _, off_pct, off_wrong, _) as off) = run_pass ~runtime_on:false in
  show "runtime off" off;
  let ((_, _, on_pct, on_wrong, _) as on_) = run_pass ~runtime_on:true in
  show "runtime on" on_;
  let overhead_pct =
    if off_pct 50. > 0. then
      (on_pct 50. -. off_pct 50.) /. off_pct 50. *. 100.
    else 0.
  in
  let total_wrong = off_wrong + on_wrong in
  Printf.printf "\nread p50 overhead with the consumer on: %+.1f%%\n"
    overhead_pct;
  if total_wrong > 0 then
    Printf.printf "!! %d replies differed from the one-session oracle\n"
      total_wrong;
  let side_json (requests, wall, rpct, wrong, scrapes) =
    Sobs.Json.Obj
      [
        ("requests", Sobs.Json.Int requests);
        ("wall_s", Sobs.Json.Float wall);
        ("throughput_rps", Sobs.Json.Float (float_of_int requests /. wall));
        ("p50_ms", Sobs.Json.Float (rpct 50.));
        ("p95_ms", Sobs.Json.Float (rpct 95.));
        ("p99_ms", Sobs.Json.Float (rpct 99.));
        ("wrong", Sobs.Json.Int wrong);
        ("stats_scrapes", Sobs.Json.Int scrapes);
      ]
  in
  let doc_json =
    Sobs.Json.Obj
      [
        ("bench", Sobs.Json.String "pr10");
        ( "meta",
          meta_json ~label ~scale ~reps
            [
              ("clients", Sobs.Json.Int clients);
              ("rounds", Sobs.Json.Int rounds);
              ("cores", Sobs.Json.Int cores);
            ] );
        ("wrong", Sobs.Json.Int total_wrong);
        ( "runtime",
          Sobs.Json.Obj [ ("off", side_json off); ("on", side_json on_) ] );
        ("overhead_pct_p50", Sobs.Json.Float overhead_pct);
      ]
  in
  let oc = open_out out in
  Sobs.Json.to_channel oc doc_json;
  output_char oc '\n';
  close_out oc;
  Printf.printf "\n(machine-readable results written to %s)\n\n" out;
  if total_wrong > 0 then exit 1

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let has flag = List.mem flag args in
  let scale =
    let rec find = function
      | "--scale" :: v :: _ -> int_of_string v
      | _ :: rest -> find rest
      | [] -> if has "--quick" then 30 else 120
    in
    find args
  in
  let reps = if has "--quick" then 3 else 5 in
  let flag_value flag default =
    let rec find = function
      | f :: v :: _ when f = flag -> v
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let label = flag_value "--label" "dev" in
  let clients = int_of_string (flag_value "--clients" "32") in
  let json_out =
    if not (has "--json") then None
    else Some (flag_value "--out" "BENCH_PR2.json")
  in
  let all =
    not
      (has "--table1" || has "--forms" || has "--ablations" || has "--approx"
     || has "--index" || has "--xmark" || has "--json" || has "--serve"
     || has "--engines" || has "--analyze" || has "--pr7" || has "--mixed"
     || has "--domains" || has "--runtime")
  in
  if all || has "--forms" then forms ();
  if all || has "--table1" || has "--json" then
    table1 ~json_out ~label ~scale ~reps ();
  if all || has "--ablations" then ablations ~quick:(has "--quick") ();
  if all || has "--index" then index_ablation ~scale:(scale / 4) ~reps ();
  if all || has "--xmark" then xmark_bench ~reps ();
  if all || has "--approx" then approx ();
  if has "--engines" then
    engines_bench ~label ~scale ~reps
      ~out:(flag_value "--out" "BENCH_PR4.json")
      ();
  if has "--serve" then
    serve_bench ~label ~scale ~reps ~clients
      ~out:(flag_value "--out" "BENCH_PR3.json")
      ();
  if has "--analyze" then
    analyze_bench ~label ~reps
      ~out:(flag_value "--out" "BENCH_PR6.json")
      ();
  if has "--mixed" then
    pr8_bench ~label ~reps ~out:(flag_value "--out" "BENCH_PR8.json") ();
  if has "--domains" then
    pr9_bench ~label ~reps ~out:(flag_value "--out" "BENCH_PR9.json") ();
  if has "--runtime" then
    pr10_bench ~label ~reps ~out:(flag_value "--out" "BENCH_PR10.json") ();
  if has "--pr7" then
    pr7_bench ~label ~reps
      ~out:(flag_value "--out" "BENCH_PR7.json")
      ()
