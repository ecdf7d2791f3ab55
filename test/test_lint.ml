(* The static-analysis layer: every checker over all four workload
   policies, plus targeted fixtures that trigger each diagnostic code. *)

module D = Sanalysis.Diagnostic
module Lint = Sanalysis.Lint
module Spec = Secview.Spec
module View = Secview.View
module R = Sdtd.Regex

let e l = R.Elt l

let codes ds = List.map (fun d -> d.D.code) ds
let error_codes ds = codes (D.errors ds)

let check_clean what ds =
  Alcotest.(check (list string)) (what ^ " has no lint errors") []
    (error_codes ds)

(* --- the four workloads lint clean ---------------------------------- *)

let test_hospital_clean () =
  let dtd = Workload.Hospital.dtd in
  let spec = Workload.Hospital.nurse_spec dtd in
  check_clean "nurse policy" (Lint.check_spec spec);
  let view = Secview.Derive.derive spec in
  check_clean "nurse view" (Lint.check_view ~dtd view);
  let p1, p2 = Workload.Hospital.inference_queries in
  List.iter
    (fun q -> check_clean "hospital query" (Lint.check_query (View.dtd view) q))
    [ p1; p2; Sxpath.Parse.of_string "//patient//bill" ]

let test_adex_clean () =
  let dtd = Workload.Adex.dtd in
  check_clean "adex policy" (Lint.check_spec Workload.Adex.spec);
  let view = Workload.Adex.view () in
  check_clean "adex view" (Lint.check_view ~dtd view);
  List.iter
    (fun (name, q) ->
      check_clean ("adex " ^ name) (Lint.check_query ~name (View.dtd view) q))
    Workload.Adex.queries

let test_adex_paper_facts () =
  (* The lints rediscover the paper's Section 6 observations: Q2's
     apartment branch is dead (warranties only exist for houses), Q3's
     qualifier is implied by the co-existence constraint, and Q4 is
     provably empty under the exclusive constraint. *)
  let vdtd = View.dtd (Workload.Adex.view ()) in
  let lint q = Lint.check_query vdtd q in
  Alcotest.(check (list string)) "Q2: dead union branch" [ "SV202" ]
    (codes (lint Workload.Adex.q2));
  Alcotest.(check (list string)) "Q3: vacuously true qualifier" [ "SV203" ]
    (codes (lint Workload.Adex.q3));
  Alcotest.(check bool) "Q4: provably empty" true
    (List.mem "SV201" (codes (lint Workload.Adex.q4)))

let test_xmark_clean () =
  let dtd = Workload.Xmark.dtd in
  check_clean "xmark policy" (Lint.check_spec Workload.Xmark.spec);
  let view = Workload.Xmark.view () in
  check_clean "xmark view (recursive)" (Lint.check_view ~dtd view);
  List.iter
    (fun (name, q) ->
      check_clean ("xmark " ^ name) (Lint.check_query ~name (View.dtd view) q))
    Workload.Xmark.queries

let test_fig7_clean () =
  let dtd = Workload.Fig7.dtd in
  check_clean "fig7 policy" (Lint.check_spec Workload.Fig7.spec);
  let view = Workload.Fig7.view () in
  check_clean "fig7 view (recursive)" (Lint.check_view ~dtd view);
  check_clean "fig7 //b"
    (Lint.check_query (View.dtd view) (Sxpath.Parse.of_string "//b"))

(* --- targeted fixtures: each code exactly once ----------------------- *)

(* r -> a, b ; a -> d, c* ; b, c, d leaves *)
let fixture_dtd =
  Sdtd.Dtd.create ~root:"r"
    [
      ("r", R.Seq [ e "a"; e "b" ]);
      ("a", R.Seq [ e "d"; R.Star (e "c") ]);
      ("b", R.Str); ("c", R.Str); ("d", R.Str);
    ]

let qual s = Sxpath.Parse.qual_of_string s
let path s = Sxpath.Parse.of_string s

let check_codes what expected ds =
  Alcotest.(check (list string)) what expected (codes ds)

let test_sv001_dead_annotation () =
  (* Y on (a, c): a is only ever accessible, so the Y changes nothing *)
  let spec = Spec.make fixture_dtd [ (("a", "c"), Spec.Yes) ] in
  check_codes "SV001 exactly once" [ "SV001" ] (Lint.check_spec spec)

let test_sv002_unknown_attribute () =
  let spec =
    Spec.make fixture_dtd [ (("r", "a"), Spec.Cond (qual "@id = \"1\"")) ]
  in
  check_codes "SV002 exactly once" [ "SV002" ] (Lint.check_spec spec)

let test_sv003_unknown_element () =
  let spec =
    Spec.make fixture_dtd [ (("r", "a"), Spec.Cond (qual "zzz")) ]
  in
  check_codes "SV003 exactly once" [ "SV003" ] (Lint.check_spec spec)

let test_sv004_hidden_regrant () =
  let spec =
    Spec.make fixture_dtd
      [ (("r", "a"), Spec.No); (("a", "c"), Spec.Yes) ]
  in
  check_codes "SV004 exactly once" [ "SV004" ] (Lint.check_spec spec)

(* hand-built views over [fixture_dtd]'s document space *)
let view_of sigma_path =
  let vdtd = Sdtd.Dtd.create ~root:"r" [ ("r", e "a"); ("a", R.Str) ] in
  View.make ~dtd:vdtd ~sigma:[ (("r", "a"), sigma_path) ] ()

let test_sv101_stale_sigma () =
  check_codes "SV101 exactly once" [ "SV101" ]
    (Lint.check_view ~dtd:fixture_dtd (view_of (path "zzz")))

let test_sv102_foreign_sigma () =
  (* σ(r, a) extracts b elements: the extraction works but lands on the
     wrong element type *)
  check_codes "SV102 exactly once" [ "SV102" ]
    (Lint.check_view ~dtd:fixture_dtd (view_of (path "b")))

let test_sv103_sigma_qualifier () =
  check_codes "SV103 exactly once" [ "SV103" ]
    (Lint.check_view ~dtd:fixture_dtd (view_of (path "a[@id = \"1\"]")))

let test_sv201_empty_query () =
  check_codes "SV201 exactly once" [ "SV201" ]
    (Lint.check_query fixture_dtd (path "zzz"))

let test_sv202_dead_branch () =
  check_codes "SV202 exactly once" [ "SV202" ]
    (Lint.check_query fixture_dtd (path "a | zzz"))

let test_sv203_vacuous_true () =
  (* d is an unskippable concatenation member of a's production:
     co-existence decides [d] at a-elements *)
  check_codes "SV203 exactly once" [ "SV203" ]
    (Lint.check_query fixture_dtd (path "a[d]"))

let test_sv204_vacuous_false () =
  (* the union keeps the query satisfiable so only the qualifier lint
     fires *)
  check_codes "SV204 exactly once" [ "SV204" ]
    (Lint.check_query fixture_dtd (path "a[zzz] | a"))

let test_sv205_undeclared_attribute () =
  check_codes "SV205 exactly once" [ "SV205" ]
    (Lint.check_query fixture_dtd (path "a/@id | a"))

(* --- the strict gate (Lint.strict) ------------------------------------ *)

let test_lint_strict_accepts () =
  let dtd = Workload.Hospital.dtd in
  let spec = Workload.Hospital.nurse_spec dtd in
  let p =
    Secview.Pipeline.Service.create dtd ~groups:[ ("nurses", spec) ]
  in
  Lint.strict p;
  Alcotest.(check int) "one group" 1
    (List.length (Secview.Pipeline.Service.groups p))

let test_lint_strict_rejects_bad_spec () =
  let spec =
    Spec.make fixture_dtd [ (("r", "a"), Spec.Cond (qual "@id = \"1\"")) ]
  in
  Alcotest.(check bool) "bad qualifier rejected" true
    (match
       Lint.strict
         (Secview.Pipeline.Service.create fixture_dtd ~groups:[ ("g", spec) ])
     with
    | exception Invalid_argument msg ->
      (* the rendered diagnostics carry their codes *)
      let contains s sub =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      contains msg "SV002"
    | _ -> false)

(* --- diagnostics plumbing -------------------------------------------- *)

let test_rendering () =
  let d =
    D.make ~code:"SV999" ~severity:D.Error ~subject:(D.Sigma ("a", "b"))
      "boom"
  in
  Alcotest.(check string) "human" "error[SV999] sigma(a, b): boom"
    (Format.asprintf "%a" D.pp d);
  Alcotest.(check string) "machine" "SV999\terror\tsigma(a, b)\tboom"
    (D.to_line d);
  let ds =
    [
      D.make ~code:"I" ~severity:D.Info "i";
      D.make ~code:"E" ~severity:D.Error "e";
      D.make ~code:"W" ~severity:D.Warning "w";
    ]
  in
  Alcotest.(check (list string)) "sorted most-severe first" [ "E"; "W"; "I" ]
    (codes (D.by_severity ds));
  Alcotest.(check bool) "has_errors" true (D.has_errors ds);
  Alcotest.(check int) "errors" 1 (List.length (D.errors ds))

let () =
  Alcotest.run "lint"
    [
      ( "workloads-clean",
        [
          Alcotest.test_case "hospital" `Quick test_hospital_clean;
          Alcotest.test_case "adex" `Quick test_adex_clean;
          Alcotest.test_case "adex paper facts" `Quick test_adex_paper_facts;
          Alcotest.test_case "xmark" `Quick test_xmark_clean;
          Alcotest.test_case "fig7" `Quick test_fig7_clean;
        ] );
      ( "codes",
        [
          Alcotest.test_case "SV001 dead annotation" `Quick
            test_sv001_dead_annotation;
          Alcotest.test_case "SV002 unknown attribute" `Quick
            test_sv002_unknown_attribute;
          Alcotest.test_case "SV003 unknown element" `Quick
            test_sv003_unknown_element;
          Alcotest.test_case "SV004 hidden re-grant" `Quick
            test_sv004_hidden_regrant;
          Alcotest.test_case "SV101 stale sigma" `Quick test_sv101_stale_sigma;
          Alcotest.test_case "SV102 foreign sigma" `Quick
            test_sv102_foreign_sigma;
          Alcotest.test_case "SV103 sigma qualifier" `Quick
            test_sv103_sigma_qualifier;
          Alcotest.test_case "SV201 empty query" `Quick test_sv201_empty_query;
          Alcotest.test_case "SV202 dead branch" `Quick test_sv202_dead_branch;
          Alcotest.test_case "SV203 vacuous true" `Quick test_sv203_vacuous_true;
          Alcotest.test_case "SV204 vacuous false" `Quick
            test_sv204_vacuous_false;
          Alcotest.test_case "SV205 undeclared attribute" `Quick
            test_sv205_undeclared_attribute;
        ] );
      ( "strict-gate",
        [
          Alcotest.test_case "accepts clean policy" `Quick
            test_lint_strict_accepts;
          Alcotest.test_case "rejects bad qualifier" `Quick
            test_lint_strict_rejects_bad_spec;
        ] );
      ( "diagnostics",
        [ Alcotest.test_case "rendering" `Quick test_rendering ] );
    ]
