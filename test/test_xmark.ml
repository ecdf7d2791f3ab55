(* The XMark-flavoured recursive workload: derive over a general
   (non-normal-form) recursive DTD, recursive-view rewriting on
   realistic documents, and end-to-end equivalence. *)

module View = Secview.View
module Rewrite = Secview.Rewrite
module Materialize = Secview.Materialize
module Access = Secview.Access

let eval = Ctx_eval.eval

let parse = Sxpath.Parse.of_string

let test_dtd_shape () =
  let dtd = Workload.Xmark.dtd in
  Alcotest.(check bool) "recursive" true (Sdtd.Dtd.is_recursive dtd);
  Alcotest.(check bool) "not in the paper's normal form" false
    (Sdtd.Dtd.in_normal_form dtd);
  Alcotest.(check bool) "consistent" true (Sdtd.Dtd.is_consistent dtd);
  (* description reaches the parlist ↔ listitem cycle but is not on
     it *)
  Alcotest.(check (list string)) "recursive types"
    [ "listitem"; "parlist" ]
    (List.sort compare
       (List.filter
          (fun t -> t <> "site")
          (Sdtd.Dtd.recursive_types dtd)))

let test_documents_conform () =
  List.iter
    (fun seed ->
      let doc = Workload.Xmark.document ~seed ~scale:6 () in
      Alcotest.(check (list string))
        (Printf.sprintf "seed %d" seed)
        []
        (List.map
           (fun v -> v.Sdtd.Validate.message)
           (Sdtd.Validate.check Workload.Xmark.dtd doc)))
    [ 1; 2; 3 ]

let test_view_hides_payment_data () =
  let view = Workload.Xmark.view () in
  let dtd = View.dtd view in
  List.iter
    (fun hidden ->
      Alcotest.(check bool) (hidden ^ " hidden") false (Sdtd.Dtd.mem dtd hidden))
    [ "creditcard"; "profile"; "income"; "education"; "payment";
      "closed-auctions"; "closed-auction" ];
  (* prices of closed auctions survive, reached through dummies *)
  Alcotest.(check bool) "price still reachable" true
    (List.exists
       (fun a -> List.mem "price" (Sdtd.Dtd.children_of dtd a))
       (Sdtd.Dtd.reachable dtd));
  Alcotest.(check bool) "view is recursive" true (Sdtd.Dtd.is_recursive dtd)

let test_view_sound_complete () =
  let spec = Workload.Xmark.spec in
  let view = Workload.Xmark.view () in
  let doc = Workload.Xmark.document ~seed:5 ~scale:4 () in
  let vt = Materialize.materialize ~spec ~view doc in
  let accessible = Access.accessible_set spec doc in
  let non_dummy =
    List.filter_map
      (fun (l, id) -> if View.is_dummy view l then None else Some id)
      (Materialize.element_sources vt)
    |> List.sort_uniq compare
  in
  let expected =
    List.filter_map
      (fun (n : Sxml.Tree.t) ->
        if Sxml.Tree.is_element n && Access.IntSet.mem n.id accessible then
          Some n.id
        else None)
      (Sxml.Tree.descendants_or_self doc)
  in
  Alcotest.(check (list int)) "sound and complete" expected non_dummy;
  Alcotest.(check bool) "conforms to the view DTD" true
    (Sdtd.Validate.conforms (View.dtd view)
       (Materialize.to_tree vt))

let check_equivalent ~spec ~view q doc =
  let height = Secview.Catalog.element_height doc in
  let pt = Rewrite.rewrite_with_height view ~height q in
  let direct =
    List.map (fun (n : Sxml.Tree.t) -> n.id) (eval pt doc)
  in
  let vt = Materialize.materialize ~spec ~view doc in
  let tree, source_of = Materialize.to_tree_with_sources vt in
  let via_view =
    List.filter_map
      (fun (n : Sxml.Tree.t) -> source_of n.id)
      (eval q tree)
    |> List.sort_uniq compare
  in
  Alcotest.(check (list int))
    ("equivalent: " ^ Sxpath.Print.to_string q)
    via_view direct

let test_query_equivalence () =
  let spec = Workload.Xmark.spec in
  let view = Workload.Xmark.view () in
  let doc = Workload.Xmark.document ~seed:7 ~scale:4 () in
  List.iter
    (fun (_, q) -> check_equivalent ~spec ~view q doc)
    Workload.Xmark.queries

let test_recursive_descent_bounded_by_height () =
  let view = Workload.Xmark.view () in
  let doc = Workload.Xmark.document ~seed:9 ~scale:3 () in
  let height = Secview.Catalog.element_height doc in
  let q = parse "//listitem//text" in
  let pt = Rewrite.rewrite_with_height view ~height q in
  (* the rewritten query must find exactly the texts under listitems *)
  let expected =
    List.filter
      (fun (n : Sxml.Tree.t) ->
        Sxml.Tree.tag n = Some "text")
      (eval (parse "//listitem//text") doc)
  in
  Alcotest.(check int) "all nested texts found"
    (List.length expected)
    (List.length (eval pt doc))

let test_hidden_data_unreachable () =
  let view = Workload.Xmark.view () in
  let doc = Workload.Xmark.document ~seed:3 ~scale:4 () in
  let height = Secview.Catalog.element_height doc in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (q ^ " rewrites to nothing")
        0
        (List.length
           (eval
              (Rewrite.rewrite_with_height view ~height (parse q))
              doc)))
    [ "//creditcard"; "//income"; "//payment"; "//closed-auction/buyer" ]

let test_conditional_address_rule () =
  let spec = Workload.Xmark.spec in
  let view = Workload.Xmark.view () in
  let doc = Workload.Xmark.document ~seed:13 ~scale:8 () in
  let height = Secview.Catalog.element_height doc in
  let pt = Rewrite.rewrite_with_height view ~height (parse "//address") in
  let results = eval pt doc in
  Alcotest.(check bool) "some US addresses in a big enough document" true
    (results <> []);
  List.iter
    (fun (n : Sxml.Tree.t) ->
      Alcotest.(check bool) "only US addresses" true
        (List.exists
           (fun c -> Sxml.Tree.string_value c = "US")
           (eval (parse "country") n)))
    results;
  ignore spec

let () =
  Alcotest.run "xmark"
    [
      ( "fixture",
        [
          Alcotest.test_case "DTD shape" `Quick test_dtd_shape;
          Alcotest.test_case "documents conform" `Quick
            test_documents_conform;
        ] );
      ( "view",
        [
          Alcotest.test_case "hides payment data" `Quick
            test_view_hides_payment_data;
          Alcotest.test_case "sound and complete" `Quick
            test_view_sound_complete;
        ] );
      ( "queries",
        [
          Alcotest.test_case "equivalence X1-X5" `Quick
            test_query_equivalence;
          Alcotest.test_case "recursive descent" `Quick
            test_recursive_descent_bounded_by_height;
          Alcotest.test_case "hidden data unreachable" `Quick
            test_hidden_data_unreachable;
          Alcotest.test_case "conditional address rule" `Quick
            test_conditional_address_rule;
        ] );
    ]
