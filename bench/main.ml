(* Benchmark harness.

   Regenerates the paper's experimental artefacts:

   - Table 1 (Section 6): evaluation time of Q1-Q4 over the D1-D4
     Adex document series under the naive / rewrite / optimize
     strategies.  Absolute numbers differ from the paper's 2004
     testbed; the shape — rewrite beats naive by 1-2 orders of
     magnitude, optimization helps Q3 and eliminates Q4 — is the
     reproduction target (see EXPERIMENTS.md).
   - The rewritten/optimized query forms the Section 6 prose prints.
   - Ablations A1-A6 (DESIGN.md): algorithm costs behind the paper's
     complexity claims (A1-A4, measured with Bechamel), the
     evaluator's tag index (A5) and a recursive workload (A6).
   - The approximation quality of the containment test (--approx),
     which aborts if the test claims a containment that a sampled
     instance refutes.

   Usage: dune exec bench/main.exe [-- --table1|--forms|--ablations
                                       |--index|--xmark|--approx]
                                   [-- --scale N] [-- --quick]
                                   [-- --json [--out FILE]] [-- --label L]

   With no mode flag every mode runs.  --json writes the Table 1
   measurements (per-stage min/median/p95 breakdowns for Q1-Q4 x
   D1-D4) to BENCH_PR2.json (or --out FILE); --label stamps the file
   with a run label (a machine nickname without leaking hostnames into
   the repo).

   Served and mixed read/write numbers come from perfbench
   (python3 perfbench/run.py).  The committed BENCH_PR3..10.json files
   are records of the bench modes that wrote them, each regenerable
   from the commit that added it. *)

module A = Sxpath.Ast
module R = Sdtd.Regex

(* all interpreter runs below go through the Ctx API *)
let eval ?env ?index ?visits p doc =
  Sxpath.Eval.run ?visits (Sxpath.Eval.Ctx.make ?env ?index ~root:doc ()) p

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
  let visits = ref 0 in
  ignore (f visits);
  !visits

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)

(* run metadata stamped into the results file so runs stay
   comparable *)
let meta_json ~label ~scale ~reps =
  Sobs.Json.Obj
    [
      ("label", Sobs.Json.String label);
      ("scale", Sobs.Json.Int scale);
      ("reps", Sobs.Json.Int reps);
    ]

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
                            (visited_during (fun visits ->
                                 eval ~visits naive_q prepared)) );
                        ( "rewrite",
                          Sobs.Json.Int
                            (visited_during (fun visits ->
                                 eval ~visits rewritten doc)) );
                        ( "optimize",
                          Sobs.Json.Int
                            (visited_during (fun visits ->
                                 eval ~visits optimized doc)) );
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
          ("meta", meta_json ~label ~scale ~reps);
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
  let height = Secview.Catalog.element_height doc in
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

let modes =
  [ "--table1"; "--forms"; "--ablations"; "--index"; "--xmark"; "--approx";
    "--json" ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec check = function
    | [] -> ()
    | ("--scale" | "--out" | "--label") :: _ :: rest -> check rest
    | f :: rest when f = "--quick" || List.mem f modes -> check rest
    | f :: _ ->
      Printf.eprintf "bench: unknown argument %s (modes: %s)\n" f
        (String.concat " " modes);
      exit 2
  in
  check args;
  let has flag = List.mem flag args in
  let flag_value flag default =
    let rec find = function
      | f :: v :: _ when f = flag -> v
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let scale =
    int_of_string (flag_value "--scale" (if has "--quick" then "30" else "120"))
  in
  let reps = if has "--quick" then 3 else 5 in
  let label = flag_value "--label" "dev" in
  let json_out =
    if not (has "--json") then None
    else Some (flag_value "--out" "BENCH_PR2.json")
  in
  let all = not (List.exists has modes) in
  if all || has "--forms" then forms ();
  if all || has "--table1" || has "--json" then
    table1 ~json_out ~label ~scale ~reps ();
  if all || has "--ablations" then ablations ~quick:(has "--quick") ();
  if all || has "--index" then index_ablation ~scale:(scale / 4) ~reps ();
  if all || has "--xmark" then xmark_bench ~reps ();
  if all || has "--approx" then approx ()
