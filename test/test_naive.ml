(* The naive element-level baseline (Section 6): query loosening,
   accessibility filtering, and agreement with the view-based pipeline
   on the workloads where its unique-element-name assumption holds. *)

module Naive = Secview.Naive
module Derive = Secview.Derive
module Rewrite = Secview.Rewrite

let eval = Ctx_eval.eval

let parse = Sxpath.Parse.of_string

let test_rewrite_rules () =
  (* child axes loosen to descendant axes, and the accessibility check
     lands on the last step *)
  Alcotest.(check string) "loosened form"
    "(//a//b)[@accessibility = \"1\"]"
    (Sxpath.Print.to_string (Naive.rewrite_query (parse "a/b")));
  Alcotest.(check string) "existing // kept"
    "(//a//b)[@accessibility = \"1\"]"
    (Sxpath.Print.to_string (Naive.rewrite_query (parse "//a/b")));
  Alcotest.(check string) "qualifier paths loosened too"
    "((//a)[//b]//c)[@accessibility = \"1\"]"
    (Sxpath.Print.to_string (Naive.rewrite_query (parse "a[b]/c")))

let test_dummy_labels_generalize () =
  let view = Derive.derive (Workload.Hospital.nurse_spec Workload.Hospital.dtd) in
  let p = Naive.rewrite_query ~view (parse "//treatment/dummy1/bill") in
  let s = Sxpath.Print.to_string p in
  Alcotest.(check bool) "dummy became a wildcard descent" true
    (not (String.length s >= 5 && String.sub s 0 5 = "dummy")
    && String.length s > 0
    &&
    let contains sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    contains "//*" && not (contains "dummy"))

let test_only_accessible_returned () =
  let dtd = Workload.Hospital.dtd in
  let spec = Workload.Hospital.nurse_spec dtd in
  let env = Workload.Hospital.nurse_env "6" in
  let doc = Workload.Hospital.sample_document () in
  let prepared = Naive.prepare ~env spec doc in
  let results = Naive.eval ~env (parse "//patient/name") prepared in
  let access = Secview.Access.accessible_set ~env spec doc in
  List.iter
    (fun n ->
      Alcotest.(check bool) "returned node is accessible" true
        (Secview.Access.IntSet.mem n.Sxml.Tree.id access))
    results;
  Alcotest.(check (list string)) "ward-6 names"
    [ "Alice"; "Bob"; "Carol" ]
    (List.map Sxml.Tree.string_value results)

let test_agrees_with_rewrite_on_hospital () =
  let dtd = Workload.Hospital.dtd in
  let spec = Workload.Hospital.nurse_spec dtd in
  let view = Derive.derive spec in
  let env = Workload.Hospital.nurse_env "6" in
  let doc = Workload.Hospital.sample_document () in
  let prepared = Naive.prepare ~env spec doc in
  List.iter
    (fun q ->
      let p = parse q in
      let naive_ids =
        List.map (fun n -> n.Sxml.Tree.id) (Naive.eval ~env ~view p prepared)
      in
      let rewrite_ids =
        List.map
          (fun n -> n.Sxml.Tree.id)
          (eval ~env (Rewrite.rewrite view p) doc)
      in
      Alcotest.(check (list int)) ("agree on " ^ q) rewrite_ids naive_ids)
    [
      "//patient/name";
      "//patient//bill";
      "//staffInfo//name";
      "//medication";
      "//patientInfo/patient";
    ]

let test_agrees_on_adex () =
  let view = Workload.Adex.view () in
  let doc = Workload.Adex.document ~ads:6 ~buyers:4 () in
  let prepared = Naive.prepare Workload.Adex.spec doc in
  List.iter
    (fun (name, q) ->
      let naive_ids =
        List.map (fun n -> n.Sxml.Tree.id) (Naive.eval ~view q prepared)
      in
      let rewrite_ids =
        List.map
          (fun n -> n.Sxml.Tree.id)
          (eval (Rewrite.rewrite view q) doc)
      in
      Alcotest.(check (list int)) ("agree on " ^ name) rewrite_ids naive_ids)
    Workload.Adex.queries

let test_does_more_work () =
  (* the whole point of Table 1: loosened queries visit far more
     context nodes than DTD-rewritten ones *)
  let view = Workload.Adex.view () in
  let doc = Workload.Adex.document ~ads:20 ~buyers:10 () in
  let prepared = Naive.prepare Workload.Adex.spec doc in
  let work f =
    Sxpath.Eval.visited := 0;
    ignore (f ());
    !Sxpath.Eval.visited
  in
  let q = Workload.Adex.q1 in
  let naive_work = work (fun () -> Naive.eval ~view q prepared) in
  let rewrite_work =
    let pt = Rewrite.rewrite view q in
    work (fun () -> eval pt doc)
  in
  Alcotest.(check bool)
    (Printf.sprintf "naive %d >> rewrite %d" naive_work rewrite_work)
    true
    (naive_work > 5 * rewrite_work)

let () =
  Alcotest.run "naive"
    [
      ( "rewriting",
        [
          Alcotest.test_case "the two rules" `Quick test_rewrite_rules;
          Alcotest.test_case "dummy labels generalize" `Quick
            test_dummy_labels_generalize;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "only accessible nodes" `Quick
            test_only_accessible_returned;
          Alcotest.test_case "agrees with rewrite (hospital)" `Quick
            test_agrees_with_rewrite_on_hospital;
          Alcotest.test_case "agrees with rewrite (adex)" `Quick
            test_agrees_on_adex;
          Alcotest.test_case "does much more work" `Quick test_does_more_work;
        ] );
    ]
