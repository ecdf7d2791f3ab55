(* DTD-aware optimization: the three structural constraints of
   Example 5.1, image graphs, the simulation containment test of
   Examples 5.2/5.3, Example 5.4's union pruning, and the Section 6
   query simplifications. *)

module A = Sxpath.Ast
module R = Sdtd.Regex
module Image = Secview.Image
module Simulate = Secview.Simulate
module Optimize = Secview.Optimize

let eval = Ctx_eval.eval

let e l = R.Elt l
let parse = Sxpath.Parse.of_string
let path_t = Alcotest.testable Sxpath.Print.pp Sxpath.Simplify.equivalent_syntax

let bool3 =
  Alcotest.testable
    (fun ppf v ->
      Format.pp_print_string ppf
        (match v with `True -> "True" | `False -> "False" | `Unknown -> "?"))
    ( = )

(* Example 5.1's three DTDs. *)
let coexist_dtd =
  (* a -> (b, c): both children always exist. *)
  Sdtd.Dtd.create ~root:"r"
    [ ("r", R.Star (e "a")); ("a", R.Seq [ e "b"; e "c" ]); ("b", R.Str);
      ("c", R.Str) ]

let exclusive_dtd =
  (* a -> (b | c): exactly one child. *)
  Sdtd.Dtd.create ~root:"r"
    [ ("r", R.Star (e "a")); ("a", R.Choice [ e "b"; e "c" ]); ("b", R.Str);
      ("c", R.Str) ]

let nonexist_dtd =
  (* b has no c child. *)
  Sdtd.Dtd.create ~root:"r"
    [ ("r", R.Seq [ e "a"; e "b" ]); ("a", e "c"); ("b", e "d");
      ("c", R.Str); ("d", R.Str) ]

let test_coexistence () =
  (* //a[b ∧ c] ≡ //a when a -> (b, c). *)
  Alcotest.check bool3 "[b and c] true at a" `True
    (Image.bool_of_qual coexist_dtd
       (Sxpath.Parse.qual_of_string "b and c")
       "a");
  Alcotest.check path_t "qualifier dropped" (parse "a")
    (Optimize.optimize ~at:"r" coexist_dtd (parse "a[b and c]"))

let test_exclusive () =
  Alcotest.check bool3 "[b and c] false at a" `False
    (Image.bool_of_qual exclusive_dtd
       (Sxpath.Parse.qual_of_string "b and c")
       "a");
  Alcotest.check path_t "query empties" A.Empty
    (Optimize.optimize ~at:"r" exclusive_dtd (parse "a[b and c]"))

let test_exclusive_via_descendants () =
  (* the exclusive rule also fires through // paths *)
  Alcotest.check bool3 "[//b and //c] false at a" `False
    (Image.bool_of_qual exclusive_dtd
       (Sxpath.Parse.qual_of_string "//b and //c")
       "a")

let test_nonexistence () =
  (* (a ∪ b)/c ≡ a/c when b has no c child. *)
  Alcotest.check path_t "dead branch dropped" (parse "a/c")
    (Optimize.optimize nonexist_dtd (parse "(a | b)/c"));
  Alcotest.check bool3 "[c] false at b" `False
    (Image.bool_of_qual nonexist_dtd (Sxpath.Parse.qual_of_string "c") "b")

let test_wildcard_qualifier () =
  (* paper case (7): [*] decided by the production shape *)
  Alcotest.check bool3 "[*] true on concatenation" `True
    (Image.bool_of_qual coexist_dtd (Sxpath.Parse.qual_of_string "*") "a");
  Alcotest.check bool3 "[*] true on disjunction" `True
    (Image.bool_of_qual exclusive_dtd (Sxpath.Parse.qual_of_string "*") "a");
  Alcotest.check bool3 "[*] false on PCDATA" `False
    (Image.bool_of_qual coexist_dtd (Sxpath.Parse.qual_of_string "*") "b")

(* ---- Example 5.2 / 5.3: the diamond DTD and simulation ------------- *)

(* Fig. 9 (a): a -> (b?, c...) — reconstructed as
   a -> (b | c), d through e|f to g, such that
   p1 = a[b]/*/d/*/g etc. make sense.  We follow the figure: a has
   children b and c; b and c have d; d has e and f; e and f have g. *)
let diamond_dtd =
  Sdtd.Dtd.create ~root:"top"
    [
      ("top", e "a");
      ("a", R.Seq [ e "b"; e "c" ]);
      ("b", e "d");
      ("c", e "d");
      ("d", R.Seq [ e "e"; e "f" ]);
      ("e", e "g");
      ("f", e "g");
      ("g", R.Str);
    ]

let p1 = parse "a[b]/*/d/*/g"
let p2 = parse "a[b]/(b | c)/d/(e | f)/g"
let p3 = parse "a[b]/b/d/e/g | a/b/d/f/g"

let test_simulation_containment_5_3 () =
  let c p q = Simulate.contained diamond_dtd p q "top" in
  Alcotest.(check bool) "p2 contained in p1" true (c p2 p1);
  Alcotest.(check bool) "p3 contained in p1" true (c p3 p1);
  Alcotest.(check bool) "p3 contained in p2" true (c p3 p2);
  (* the approximate direction: p2 ⊆ p3 holds semantically here but
     simulation cannot see it *)
  Alcotest.(check bool) "p2 in p3 not detected (approximation)" false
    (c p2 p3)

let test_union_pruned_by_containment () =
  Alcotest.check path_t "p2 ∪ p1 collapses to p1"
    (Optimize.optimize ~at:"top" diamond_dtd p1)
    (Optimize.optimize ~at:"top" diamond_dtd (A.Union (p2, p1)))

let test_containment_soundness_on_instances () =
  (* Whenever the test claims containment, instance-level containment
     must hold. *)
  let docs =
    List.map
      (fun seed ->
        Sdtd.Gen.generate
          ~config:{ Sdtd.Gen.default_config with seed }
          diamond_dtd)
      [ 0; 1; 2 ]
  in
  let queries = [ p1; p2; p3; parse "a/*"; parse "//g"; parse "a/b//g" ] in
  List.iter
    (fun q1 ->
      List.iter
        (fun q2 ->
          if Simulate.contained diamond_dtd q1 q2 "top" then
            List.iter
              (fun doc ->
                let set p =
                  List.map
                    (fun n -> n.Sxml.Tree.id)
                    (eval p doc)
                in
                let s1 = set q1 and s2 = set q2 in
                Alcotest.(check bool)
                  (Printf.sprintf "%s ⊆ %s on instance"
                     (Sxpath.Print.to_string q1) (Sxpath.Print.to_string q2))
                  true
                  (List.for_all (fun x -> List.mem x s2) s1))
              docs)
        queries)
    queries

let test_equality_atoms_keep_their_paths () =
  (* [t3 = "alpha"] does not imply [. = "alpha"]: the first t2's own
     string value is "alphabeta".  Pruning the first branch into the
     second would lose that t2. *)
  let dtd =
    Sdtd.Dtd.create ~root:"t0"
      [ ("t0", R.Seq [ e "t1"; e "t2" ]);
        ("t1", R.Seq [ e "t2"; e "t2"; e "t2" ]); ("t2", R.Star (e "t3"));
        ("t3", R.Str) ]
  in
  let doc =
    Sxml.Parse.of_string
      "<t0><t1><t2><t3>alpha</t3><t3>beta</t3></t2><t2/><t2/></t1><t2/></t0>"
  in
  let view = Secview.Derive.derive (Secview.Spec.make dtd []) in
  let rewritten =
    Secview.Rewrite.rewrite view
      (parse {|t1/t2[t3 = "alpha"] | t1/t2[. = "alpha"]|})
  in
  let ids p = List.map (fun n -> n.Sxml.Tree.id) (eval p doc) in
  Alcotest.(check int) "rewrite finds the t2" 1 (List.length (ids rewritten));
  Alcotest.(check (list int)) "optimize answers = rewrite answers"
    (ids rewritten)
    (ids (Optimize.optimize dtd rewritten))

(* ---- Example 5.4 ---------------------------------------------------- *)

let test_example_5_4 () =
  let dtd = Workload.Hospital.dtd in
  let p =
    parse "//patient | //(patient | staff)[//medication]"
  in
  let po = Optimize.optimize dtd p in
  (* the second branch is contained in the first: //patient absorbs it *)
  Alcotest.check path_t "collapses to the expansion of //patient"
    (Optimize.optimize dtd (parse "//patient"))
    po;
  (* and the expansion is the precise path of Example 5.4 *)
  Alcotest.check path_t "hospital/dept expansion"
    (parse "dept/(clinicalTrial | .)/patientInfo/patient")
    po

let test_descendant_expansion () =
  let dtd = Workload.Hospital.dtd in
  Alcotest.check path_t "//medication expands"
    (parse "dept/(clinicalTrial | .)/patientInfo/patient/treatment/regular/\
            medication")
    (Optimize.optimize dtd (parse "//medication"))

let test_recursive_dtd_keeps_descendant () =
  let dtd = Workload.Fig7.dtd in
  let po = Optimize.optimize dtd (parse "//b") in
  Alcotest.(check bool) "still uses //" true
    (let rec has_dslash = function
       | A.Dslash _ -> true
       | A.Slash (a, b) | A.Union (a, b) -> has_dslash a || has_dslash b
       | A.Qualify (a, _) -> has_dslash a
       | A.Empty | A.Eps | A.Label _ | A.Wildcard | A.Attribute _ -> false
     in
     has_dslash po);
  (* but impossible descendants still die *)
  Alcotest.check path_t "unsatisfiable descendant" A.Empty
    (Optimize.optimize dtd (parse "//zz"))

(* ---- Section 6 simplifications -------------------------------------- *)

let test_adex_q3_q4 () =
  let dtd = Workload.Adex.dtd in
  let view = Workload.Adex.view () in
  let rw q = Secview.Rewrite.rewrite view q in
  Alcotest.check path_t "Q3: co-existence drops the qualifier"
    (parse "head/buyer-info")
    (Optimize.optimize dtd (rw Workload.Adex.q3));
  Alcotest.check path_t "Q4 empties" A.Empty
    (Optimize.optimize dtd (rw Workload.Adex.q4));
  Alcotest.check path_t "exclusive form of Q4 empties" A.Empty
    (Optimize.optimize dtd
       (parse
          "//real-estate[house/r-e.asking-price and apartment/r-e.unit-type]"))

let test_optimize_preserves_hospital_answers () =
  let dtd = Workload.Hospital.dtd in
  let doc = Workload.Hospital.sample_document () in
  List.iter
    (fun q ->
      let p = parse q in
      let po = Optimize.optimize dtd p in
      let ids p =
        List.map (fun n -> n.Sxml.Tree.id) (eval p doc)
      in
      Alcotest.(check (list int)) ("equivalent: " ^ q) (ids p) (ids po))
    [
      "//patient/name";
      "//patient[treatment/trial]/name";
      "//staff/*";
      "dept/patientInfo | dept/staffInfo";
      "//patient[name and wardNo]";
      "//dept//bill";
      "//*[medication]";
      "dept[staffInfo]/patientInfo";
      "//treatment[trial and regular]";
    ]

(* ---- image graphs ---------------------------------------------------- *)

let test_image_basic () =
  (match Image.image coexist_dtd (parse "a/b") "r" with
  | None -> Alcotest.fail "image should exist"
  | Some g ->
    Alcotest.(check string) "root label" "r" g.Image.root.Image.label;
    Alcotest.(check (list string)) "frontier" [ "b" ]
      (List.map (fun n -> n.Image.label) g.Image.frontier));
  Alcotest.(check bool) "empty image for impossible path" true
    (Image.image coexist_dtd (parse "a/zz") "r" = None)

let test_image_prunes_dead_branches () =
  match Image.image nonexist_dtd (parse "(a | b)/c") "r" with
  | None -> Alcotest.fail "image should exist"
  | Some g ->
    (* the b branch dies: no b node should survive pruning *)
    let labels =
      let seen = Hashtbl.create 8 in
      let rec go (n : Image.node) =
        if not (Hashtbl.mem seen n.Image.id) then begin
          Hashtbl.add seen n.Image.id ();
          Hashtbl.replace seen n.Image.id ();
          List.iter go n.Image.kids
        end
      in
      go g.Image.root;
      Hashtbl.length seen
    in
    Alcotest.(check bool) "small graph" true (labels <= 3)

let test_image_reach () =
  Alcotest.(check (list string)) "reach of (a|b)/c" [ "c" ]
    (Image.reach nonexist_dtd (parse "(a | b)/c") "r");
  Alcotest.(check bool) "descendants include self" true
    (List.mem "r" (Image.descendant_or_self_types nonexist_dtd "r"))

let test_guaranteed () =
  Alcotest.(check bool) "b guaranteed under a" true
    (Image.guaranteed coexist_dtd (parse "b") "a");
  Alcotest.(check bool) "b not guaranteed under choice" false
    (Image.guaranteed exclusive_dtd (parse "b") "a");
  Alcotest.(check bool) "b or c guaranteed under choice" true
    (Image.guaranteed exclusive_dtd (parse "b | c") "a");
  Alcotest.(check bool) "eps always guaranteed" true
    (Image.guaranteed coexist_dtd A.Eps "a");
  Alcotest.(check bool) "starred child not guaranteed" false
    (Image.guaranteed coexist_dtd (parse "a") "r")

let test_requires_child () =
  Alcotest.(check bool) "label" true (Image.requires_child (parse "b"));
  Alcotest.(check bool) "eps" false (Image.requires_child A.Eps);
  Alcotest.(check bool) "descendant label" true
    (Image.requires_child (parse "//b"));
  Alcotest.(check bool) "descendant eps" false
    (Image.requires_child (parse "//."));
  Alcotest.(check bool) "union needs both" false
    (Image.requires_child (parse "b | ."))

let test_simplify_qual () =
  Alcotest.(check bool) "decided true" true
    (Optimize.simplify_qual coexist_dtd "a"
       (Sxpath.Parse.qual_of_string "b and c")
    = A.True);
  Alcotest.(check bool) "conjunct absorbed" true
    (let q =
       Optimize.simplify_qual diamond_dtd "top"
         (A.And (A.Exists p3, A.Exists p1))
     in
     A.qual_size q < A.qual_size (A.And (A.Exists p3, A.Exists p1)))

(* ---- coarse mode on recursive document DTDs -------------------------- *)

let test_xmark_optimize_equivalence () =
  (* the recursive auction DTD forces the optimizer's coarse fallback;
     answers must still be preserved *)
  let dtd = Workload.Xmark.dtd in
  let doc = Workload.Xmark.document ~seed:21 ~scale:3 () in
  List.iter
    (fun q ->
      let p = parse q in
      let po = Optimize.optimize dtd p in
      let ids p =
        List.map (fun (n : Sxml.Tree.t) -> n.id) (eval p doc)
      in
      Alcotest.(check (list int)) ("xmark equivalent: " ^ q) (ids p) (ids po))
    [
      "//listitem//text";
      "//person[creditcard]/name";
      "//description//parlist";
      "//open-auction/bidder | //closed-auction";
      "regions//item[payment]/name";
      "//parlist[listitem]//text";
    ]

let test_bool_of_qual_boolean_operators () =
  Alcotest.check bool3 "or of false and true" `True
    (Image.bool_of_qual exclusive_dtd
       (Sxpath.Parse.qual_of_string "b or not(b and c)")
       "a");
  Alcotest.check bool3 "not of exclusive-false" `True
    (Image.bool_of_qual exclusive_dtd
       (Sxpath.Parse.qual_of_string "not(b and c)")
       "a");
  Alcotest.check bool3 "or of two unknowns" `Unknown
    (Image.bool_of_qual exclusive_dtd
       (Sxpath.Parse.qual_of_string "b or c")
       "a");
  (* b or c is in fact guaranteed under a choice — Exists-level
     reasoning sees it, boolean-Or does not (documented asymmetry) *)
  Alcotest.check bool3 "union path is guaranteed" `True
    (Image.bool_of_qual exclusive_dtd
       (Sxpath.Parse.qual_of_string "(b | c)")
       "a")

let test_optimize_idempotent_semantically () =
  let dtd = Workload.Hospital.dtd in
  let doc = Workload.Hospital.sample_document () in
  List.iter
    (fun q ->
      let p1 = Optimize.optimize dtd (parse q) in
      let p2 = Optimize.optimize dtd p1 in
      let ids p =
        List.map (fun (n : Sxml.Tree.t) -> n.id) (eval p doc)
      in
      Alcotest.(check (list int)) ("idempotent on " ^ q) (ids p1) (ids p2))
    [ "//patient[name]"; "//dept//bill"; "//staff/* | //patient" ]

let test_attribute_paths_left_alone () =
  let dtd = Workload.Hospital.dtd in
  let p = parse "//patient[@accessibility = \"1\"]" in
  let po = Optimize.optimize dtd p in
  Alcotest.(check bool) "attribute qualifier survives" true
    (Sxpath.Ast.mem_attribute po
    ||
    (* or the whole qualifier was kept opaque *)
    String.length (Sxpath.Print.to_string po) > 0)

let () =
  Alcotest.run "optimize"
    [
      ( "dtd-constraints",
        [
          Alcotest.test_case "co-existence" `Quick test_coexistence;
          Alcotest.test_case "exclusive" `Quick test_exclusive;
          Alcotest.test_case "exclusive via //" `Quick
            test_exclusive_via_descendants;
          Alcotest.test_case "non-existence" `Quick test_nonexistence;
          Alcotest.test_case "wildcard qualifier" `Quick
            test_wildcard_qualifier;
        ] );
      ( "containment",
        [
          Alcotest.test_case "Example 5.3 simulations" `Quick
            test_simulation_containment_5_3;
          Alcotest.test_case "union pruning" `Quick
            test_union_pruned_by_containment;
          Alcotest.test_case "soundness on instances" `Quick
            test_containment_soundness_on_instances;
          Alcotest.test_case "= atoms keep their paths" `Quick
            test_equality_atoms_keep_their_paths;
        ] );
      ( "expansion",
        [
          Alcotest.test_case "Example 5.4" `Quick test_example_5_4;
          Alcotest.test_case "descendant expansion" `Quick
            test_descendant_expansion;
          Alcotest.test_case "recursive DTDs keep //" `Quick
            test_recursive_dtd_keeps_descendant;
        ] );
      ( "section-6",
        [
          Alcotest.test_case "Q3/Q4 simplifications" `Quick test_adex_q3_q4;
          Alcotest.test_case "hospital equivalence" `Quick
            test_optimize_preserves_hospital_answers;
        ] );
      ( "coarse-and-misc",
        [
          Alcotest.test_case "xmark equivalence (coarse mode)" `Quick
            test_xmark_optimize_equivalence;
          Alcotest.test_case "boolean operators" `Quick
            test_bool_of_qual_boolean_operators;
          Alcotest.test_case "semantic idempotence" `Quick
            test_optimize_idempotent_semantically;
          Alcotest.test_case "attribute paths" `Quick
            test_attribute_paths_left_alone;
        ] );
      ( "images",
        [
          Alcotest.test_case "basic construction" `Quick test_image_basic;
          Alcotest.test_case "dead-branch pruning" `Quick
            test_image_prunes_dead_branches;
          Alcotest.test_case "reach" `Quick test_image_reach;
          Alcotest.test_case "guaranteed" `Quick test_guaranteed;
          Alcotest.test_case "requires_child" `Quick test_requires_child;
          Alcotest.test_case "simplify_qual" `Quick test_simplify_qual;
        ] );
    ]
