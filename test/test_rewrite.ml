(* Algorithm rewrite: Example 4.1, the Section 6 query forms, recProc,
   equivalence with the materialization semantics, recursive views via
   unfolding, and the paper-vs-precise mode divergence. *)

module A = Sxpath.Ast
module R = Sdtd.Regex
module Spec = Secview.Spec
module View = Secview.View
module Derive = Secview.Derive
module Rewrite = Secview.Rewrite
module Materialize = Secview.Materialize

let eval = Ctx_eval.eval

let e l = R.Elt l
let parse = Sxpath.Parse.of_string
let path_t = Alcotest.testable Sxpath.Print.pp Sxpath.Simplify.equivalent_syntax

let nurse_view () =
  Derive.derive (Workload.Hospital.nurse_spec Workload.Hospital.dtd)

(* Evaluate a view query both ways and compare answers through the
   source mapping. *)
let check_equivalent ?(env = fun _ -> None) ~spec ~view query doc =
  let pt = Rewrite.rewrite view query in
  let direct =
    List.map
      (fun n -> n.Sxml.Tree.id)
      (eval ~env pt doc)
  in
  let vt = Materialize.materialize ~env ~spec ~view doc in
  let tree, source_of = Materialize.to_tree_with_sources vt in
  let via_view =
    List.filter_map
      (fun n -> source_of n.Sxml.Tree.id)
      (eval ~env query tree)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int))
    (Printf.sprintf "p(T_v) = p_t(T) for %s" (Sxpath.Print.to_string query))
    via_view direct

(* ---- Example 4.1 --------------------------------------------------- *)

let test_example_4_1 () =
  let view = nurse_view () in
  let pt = Rewrite.rewrite view (parse "//patient//bill") in
  Alcotest.check path_t "rewritten //patient//bill"
    (parse
       "dept[*/patient/wardNo = $wardNo]/(clinicalTrial/patientInfo | \
        patientInfo)/patient/(treatment/trial/bill | treatment/regular/bill)")
    pt

let test_hospital_label_step () =
  let view = nurse_view () in
  Alcotest.check path_t "dept step keeps qualifier"
    (parse "dept[*/patient/wardNo = $wardNo]")
    (Rewrite.rewrite view (parse "dept"));
  Alcotest.check path_t "unknown label is empty" A.Empty
    (Rewrite.rewrite view (parse "clinicalTrial"));
  Alcotest.check path_t "secret type under dept is empty" A.Empty
    (Rewrite.rewrite view (parse "dept/clinicalTrial"))

let test_hospital_dummy_query () =
  (* Users can navigate through dummy labels they see in the view DTD. *)
  let view = nurse_view () in
  Alcotest.check path_t "dummy path"
    (parse
       "dept[*/patient/wardNo = $wardNo]/(clinicalTrial/patientInfo | \
        patientInfo)/patient/treatment/regular/bill")
    (Rewrite.rewrite view (parse "//treatment/dummy2/bill"))

let test_hospital_wildcard () =
  let view = nurse_view () in
  Alcotest.check path_t "wildcard at treatment"
    (parse
       "dept[*/patient/wardNo = $wardNo]/(clinicalTrial/patientInfo | \
        patientInfo)/patient/treatment/(trial | regular)")
    (Rewrite.rewrite view (parse "//treatment/*"))

let test_hospital_qualifier_rewriting () =
  let view = nurse_view () in
  (* [dummy2] at treatment rewrites to [regular]. *)
  let pt = Rewrite.rewrite view (parse "//patient[treatment/dummy2]/name") in
  let s = Sxpath.Print.to_string pt in
  Alcotest.(check bool) "qualifier mentions the hidden label" true
    (let contains s sub =
       let n = String.length sub in
       let rec go i =
         i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
       in
       go 0
     in
     contains s "treatment/regular")

let test_qualifier_false_prunes () =
  let view = nurse_view () in
  Alcotest.check path_t "[clinicalTrial] is unsatisfiable in the view"
    A.Empty
    (Rewrite.rewrite view (parse "dept[clinicalTrial]"))

let test_negated_qualifier () =
  let view = nurse_view () in
  (* not(unknown) is vacuously true. *)
  let pt = Rewrite.rewrite view (parse "dept[not(clinicalTrial)]") in
  Alcotest.check path_t "negation of unsatisfiable is true"
    (parse "dept[*/patient/wardNo = $wardNo]")
    pt

let test_equality_qualifier () =
  let view = nurse_view () in
  let pt = Rewrite.rewrite view (parse "//patient[name = \"Alice\"]") in
  Alcotest.(check bool) "rewrites without error" true (A.size pt > 0)

(* ---- recProc ------------------------------------------------------- *)

let test_recrw_hospital () =
  let view = nurse_view () in
  let table = Rewrite.recrw view "hospital" in
  Alcotest.(check bool) "self entry is eps" true
    (match List.assoc_opt "hospital" table with
    | Some A.Eps -> true
    | _ -> false);
  (match List.assoc_opt "bill" table with
  | Some q ->
    Alcotest.check path_t "all paths to bill"
      (parse
         "dept[*/patient/wardNo = $wardNo]/(clinicalTrial/patientInfo | \
          patientInfo)/patient/treatment/(trial | regular)/bill")
      q
  | None -> Alcotest.fail "bill unreachable");
  Alcotest.(check int) "reach covers the whole view DTD"
    (List.length (Sdtd.Dtd.reachable (View.dtd view)))
    (List.length table)

let test_recrw_factored_diamond () =
  (* Fig. 7 (a)'s diamond: recrw(a, g) should stay factored, not
     enumerate the four paths. *)
  let dtd =
    Sdtd.Dtd.create ~root:"a"
      [
        ("a", R.Seq [ R.Choice [ e "b"; R.Epsilon ]; e "c" ]);
        ("b", e "c");
        ("c", R.Choice [ e "f"; e "g2" ]);
        ("f", e "g");
        ("g2", e "g");
        ("g", R.Str);
      ]
  in
  (* NB: shape differs slightly from the figure; the point is prefix
     sharing through the diamond c -> (f|g2) -> g. *)
  let view = View.identity_of dtd in
  let table = Rewrite.recrw view "a" in
  match List.assoc_opt "g" table with
  | None -> Alcotest.fail "g unreachable"
  | Some q ->
    Alcotest.check path_t "factored form"
      (parse "(. | b)/c/(f | g2)/g")
      q

(* ---- equivalence with materialization ------------------------------ *)

let test_hospital_equivalence_suite () =
  let dtd = Workload.Hospital.dtd in
  let spec = Workload.Hospital.nurse_spec dtd in
  let view = Derive.derive spec in
  let env = Workload.Hospital.nurse_env "6" in
  let doc = Workload.Hospital.sample_document () in
  List.iter
    (fun q -> check_equivalent ~env ~spec ~view (parse q) doc)
    [
      "//patient//bill";
      "//patient/name";
      "dept/patientInfo/patient/name";
      "//dept//patientInfo/patient/name";
      "//staff/*/name";
      "//patient[treatment/dummy2]/name";
      "//patient[treatment/dummy1]/name";
      "//name";
      "//*[wardNo]";
      "dept/*";
      "//treatment/* | //staff";
      "//patient[not(treatment/dummy1)]/name";
      "//patient[name = \"Bob\"]/treatment//bill";
      ".";
      "//medication";
    ]

let test_generated_equivalence () =
  let dtd = Workload.Hospital.dtd in
  let spec = Workload.Hospital.nurse_spec dtd in
  let view = Derive.derive spec in
  let env = Workload.Hospital.nurse_env "6" in
  List.iter
    (fun seed ->
      let doc = Workload.Hospital.generated_document ~seed ~scale:4 () in
      List.iter
        (fun q -> check_equivalent ~env ~spec ~view (parse q) doc)
        [ "//patient//bill"; "//name"; "//patientInfo/patient" ])
    [ 1; 2; 3 ]

(* ---- the inference attack of Example 1.1 --------------------------- *)

let test_inference_attack_blocked () =
  let dtd = Workload.Hospital.dtd in
  let spec = Workload.Hospital.nurse_spec dtd in
  let view = Derive.derive spec in
  let env = Workload.Hospital.nurse_env "6" in
  let doc = Workload.Hospital.sample_document () in
  let p1, p2 = Workload.Hospital.inference_queries in
  (* Over the raw document the difference reveals the trial patient. *)
  let names p = List.map Sxml.Tree.string_value (eval ~env p doc) in
  let diff =
    List.filter (fun n -> not (List.mem n (names p2))) (names p1)
  in
  Alcotest.(check (list string)) "raw document leaks Alice and Dave"
    [ "Alice"; "Dave" ] (List.sort compare diff);
  (* Through the security view both queries rewrite to queries whose
     answers coincide: the difference is empty. *)
  let eval_rw p =
    List.map Sxml.Tree.string_value
      (eval ~env (Rewrite.rewrite view p) doc)
  in
  let r1 = eval_rw p1 and r2 = eval_rw p2 in
  Alcotest.(check (list string)) "view answers coincide" r2 r1

(* ---- recursive views ------------------------------------------------ *)

let test_recursive_rejected_without_unfolding () =
  let view = Workload.Fig7.view () in
  Alcotest.(check bool) "raises Unsupported" true
    (match Rewrite.rewrite view (parse "//b") with
    | exception Rewrite.Unsupported _ -> true
    | _ -> false)

let test_recursive_unfolding () =
  let view = Workload.Fig7.view () in
  let doc = Workload.Fig7.document ~depth:3 in
  let height = Sxml.Tree.depth doc - 1 in
  let pt = Rewrite.rewrite_with_height view ~height (parse "//b") in
  Alcotest.check path_t "(a/c)*/b truncated at the document height"
    (parse "a/b | a/c/a/b | a/c/a/c/a/b")
    pt;
  let values =
    List.map Sxml.Tree.string_value (eval pt doc)
  in
  Alcotest.(check (list string)) "hidden b excluded"
    [ "visible-1"; "visible-2"; "visible-3" ]
    values

let test_recursive_depths () =
  let view = Workload.Fig7.view () in
  List.iter
    (fun depth ->
      let doc = Workload.Fig7.document ~depth in
      let height = Sxml.Tree.depth doc - 1 in
      let pt = Rewrite.rewrite_with_height view ~height (parse "//b") in
      Alcotest.(check int)
        (Printf.sprintf "depth %d: all visible b's" depth)
        depth
        (List.length (eval pt doc)))
    [ 1; 2; 4; 6 ]

(* ---- paper mode vs precise mode ------------------------------------ *)

let leak_setup () =
  (* r -> (a, b); both a and b have a c child; c is visible under a
     but hidden under b.  The published combination step unions the
     continuations over all reached types, so (a|b)/c leaks the c
     under b; the precise mode does not. *)
  let dtd =
    Sdtd.Dtd.create ~root:"r"
      [
        ("r", R.Seq [ e "a"; e "b" ]);
        ("a", R.Seq [ e "c" ]);
        ("b", R.Seq [ e "c" ]);
        ("c", R.Str);
      ]
  in
  let spec = Spec.make dtd [ (("b", "c"), Spec.No) ] in
  let view = Derive.derive spec in
  let doc =
    Sxml.Tree.(
      of_spec
        (elem "r"
           [
             elem "a" [ elem "c" [ text "public" ] ];
             elem "b" [ elem "c" [ text "secret" ] ];
           ]))
  in
  (spec, view, doc)

let test_paper_mode_leak_documented () =
  let _, view, doc = leak_setup () in
  let q = parse "(a | b)/c" in
  let coarse = Rewrite.rewrite ~mode:`Paper view q in
  let leak =
    List.map Sxml.Tree.string_value (eval coarse doc)
  in
  Alcotest.(check (list string)) "published algorithm over-returns"
    [ "public"; "secret" ] leak

let test_precise_mode_no_leak () =
  let spec, view, doc = leak_setup () in
  let q = parse "(a | b)/c" in
  let precise = Rewrite.rewrite view q in
  let safe = List.map Sxml.Tree.string_value (eval precise doc) in
  Alcotest.(check (list string)) "precise mode returns only accessible data"
    [ "public" ] safe;
  check_equivalent ~spec ~view q doc

let test_modes_agree_on_paper_examples () =
  let view = nurse_view () in
  List.iter
    (fun q ->
      let a = Rewrite.rewrite ~mode:`Paper view (parse q) in
      let b = Rewrite.rewrite ~mode:`Precise view (parse q) in
      let doc = Workload.Hospital.sample_document () in
      let env = Workload.Hospital.nurse_env "6" in
      let ids p =
        List.map (fun n -> n.Sxml.Tree.id) (eval ~env p doc)
      in
      Alcotest.(check (list int)) ("modes agree on " ^ q) (ids a) (ids b))
    [ "//patient//bill"; "//name"; "//treatment/*"; "dept/patientInfo" ]

(* ---- misc ----------------------------------------------------------- *)

let test_targets () =
  let view = nurse_view () in
  let targets = Rewrite.targets view (parse "//patientInfo/patient") in
  Alcotest.(check (list string)) "single target type" [ "patient" ]
    (List.map fst targets)

let test_undeclared_attribute_is_empty () =
  (* the hospital DTD declares no attributes: a query demanding one can
     match nothing *)
  let view = nurse_view () in
  Alcotest.check path_t "qualifier on undeclared attribute" A.Empty
    (Rewrite.rewrite view (parse "//patient[@x]"))

let test_empty_query () =
  let view = nurse_view () in
  Alcotest.check path_t "empty stays empty" A.Empty
    (Rewrite.rewrite view A.Empty)

(* ---- additional coverage --------------------------------------------- *)

let test_adex_modes_agree () =
  let view = Workload.Adex.view () in
  let doc = Workload.Adex.document ~ads:8 ~buyers:5 () in
  List.iter
    (fun (name, q) ->
      let a = Rewrite.rewrite ~mode:`Paper view q in
      let b = Rewrite.rewrite ~mode:`Precise view q in
      let ids p =
        List.map (fun (n : Sxml.Tree.t) -> n.id) (eval p doc)
      in
      Alcotest.(check (list int)) ("adex modes agree on " ^ name) (ids a)
        (ids b))
    Workload.Adex.queries

let test_adex_targets () =
  let view = Workload.Adex.view () in
  let targets =
    Rewrite.targets view (parse "//house/r-e.warranty")
  in
  Alcotest.(check (list string)) "single warranty target"
    [ "r-e.warranty" ]
    (List.map fst targets)

let test_sigma_lookup_after_unfold () =
  (* unfolded views resolve σ through label stripping *)
  let view = Workload.Fig7.view () in
  let unfolded = View.unfolded view ~height:5 in
  let dtd = View.dtd unfolded in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          match View.sigma unfolded ~parent:a ~child:b with
          | Some _ -> ()
          | None -> Alcotest.failf "missing sigma(%s, %s) after unfold" a b)
        (Sdtd.Dtd.children_of dtd a))
    (Sdtd.Dtd.reachable dtd)

let test_rewrite_on_view_with_conditions_and_vars () =
  (* a $var inside a σ qualifier survives rewriting and is bound only
     at evaluation time *)
  let view = nurse_view () in
  let pt = Rewrite.rewrite view (parse "dept/staffInfo") in
  Alcotest.(check (list string)) "variable kept" [ "wardNo" ]
    (A.variables pt)

let test_deep_union_stays_factored () =
  let view = nurse_view () in
  let pt = Rewrite.rewrite view (parse "//bill | //medication") in
  (* factored output shares the dept prefix once per union branch at
     most: the prefix appears at most twice *)
  let s = Sxpath.Print.to_string pt in
  let count_occurrences sub =
    let n = String.length sub in
    let rec go i acc =
      if i + n > String.length s then acc
      else if String.sub s i n = sub then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check bool)
    (Printf.sprintf "prefix shared (%d occurrences in %s)"
       (count_occurrences "wardNo = $wardNo") s)
    true
    (count_occurrences "wardNo = $wardNo" <= 2)

let test_xmark_rewrite_equivalence_via_view_tree () =
  let spec = Workload.Xmark.spec in
  let view = Workload.Xmark.view () in
  let doc = Workload.Xmark.document ~seed:31 ~scale:3 () in
  let height = Secview.Catalog.element_height doc in
  let vt = Materialize.materialize ~spec ~view doc in
  let tree, source_of = Materialize.to_tree_with_sources vt in
  List.iter
    (fun q ->
      let q = parse q in
      let pt = Rewrite.rewrite_with_height view ~height q in
      let direct =
        List.map (fun (n : Sxml.Tree.t) -> n.id) (eval pt doc)
      in
      let via =
        List.filter_map
          (fun (n : Sxml.Tree.t) -> source_of n.id)
          (eval q tree)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list int))
        ("xmark " ^ Sxpath.Print.to_string q)
        via direct)
    [ "//parlist/listitem"; "//person/*"; "//item[name]//text" ]

let () =
  Alcotest.run "rewrite"
    [
      ( "hospital-forms",
        [
          Alcotest.test_case "Example 4.1" `Quick test_example_4_1;
          Alcotest.test_case "label steps" `Quick test_hospital_label_step;
          Alcotest.test_case "dummy navigation" `Quick
            test_hospital_dummy_query;
          Alcotest.test_case "wildcard" `Quick test_hospital_wildcard;
          Alcotest.test_case "qualifier rewriting" `Quick
            test_hospital_qualifier_rewriting;
          Alcotest.test_case "unsatisfiable qualifier" `Quick
            test_qualifier_false_prunes;
          Alcotest.test_case "negated qualifier" `Quick test_negated_qualifier;
          Alcotest.test_case "equality qualifier" `Quick
            test_equality_qualifier;
        ] );
      ( "recproc",
        [
          Alcotest.test_case "hospital recrw" `Quick test_recrw_hospital;
          Alcotest.test_case "diamond stays factored" `Quick
            test_recrw_factored_diamond;
        ] );
      ( "equivalence",
        [
          Alcotest.test_case "hospital query suite" `Quick
            test_hospital_equivalence_suite;
          Alcotest.test_case "generated documents" `Quick
            test_generated_equivalence;
          Alcotest.test_case "inference attack blocked" `Quick
            test_inference_attack_blocked;
        ] );
      ( "recursive-views",
        [
          Alcotest.test_case "rejected without unfolding" `Quick
            test_recursive_rejected_without_unfolding;
          Alcotest.test_case "unfolding rewrites //" `Quick
            test_recursive_unfolding;
          Alcotest.test_case "varying depths" `Quick test_recursive_depths;
        ] );
      ( "modes",
        [
          Alcotest.test_case "paper-mode corner (documented)" `Quick
            test_paper_mode_leak_documented;
          Alcotest.test_case "precise mode is safe" `Quick
            test_precise_mode_no_leak;
          Alcotest.test_case "modes agree on paper examples" `Quick
            test_modes_agree_on_paper_examples;
        ] );
      ( "misc",
        [
          Alcotest.test_case "targets" `Quick test_targets;
          Alcotest.test_case "undeclared attributes empty" `Quick
            test_undeclared_attribute_is_empty;
          Alcotest.test_case "empty query" `Quick test_empty_query;
        ] );
      ( "extended",
        [
          Alcotest.test_case "adex modes agree" `Quick test_adex_modes_agree;
          Alcotest.test_case "adex targets" `Quick test_adex_targets;
          Alcotest.test_case "sigma after unfolding" `Quick
            test_sigma_lookup_after_unfold;
          Alcotest.test_case "variables survive" `Quick
            test_rewrite_on_view_with_conditions_and_vars;
          Alcotest.test_case "factored unions" `Quick
            test_deep_union_stays_factored;
          Alcotest.test_case "xmark equivalence" `Quick
            test_xmark_rewrite_equivalence_via_view_tree;
        ] );
    ]
