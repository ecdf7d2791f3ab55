(* Materialization semantics: soundness and completeness of derived
   views (Theorem 3.2's characterization), dummy handling, ordering,
   and abort behaviour. *)

module R = Sdtd.Regex
module Spec = Secview.Spec
module View = Secview.View
module Derive = Secview.Derive
module Access = Secview.Access
module Materialize = Secview.Materialize

let eval = Ctx_eval.eval

let e l = R.Elt l

let hospital_setup () =
  let dtd = Workload.Hospital.dtd in
  let spec = Workload.Hospital.nurse_spec dtd in
  let view = Derive.derive spec in
  let env = Workload.Hospital.nurse_env "6" in
  let doc = Workload.Hospital.sample_document () in
  (spec, view, env, doc)

let test_hospital_materializes_and_conforms () =
  let spec, view, env, doc = hospital_setup () in
  let vt = Materialize.materialize ~env ~spec ~view doc in
  let tree = Materialize.to_tree vt in
  Alcotest.(check (list string)) "conforms to the view DTD" []
    (List.map
       (fun v -> v.Sdtd.Validate.message)
       (Sdtd.Validate.check (View.dtd view) tree))

let test_hospital_sound_and_complete () =
  (* Non-dummy view elements are exactly the accessible elements of
     the document; dummy sources are inaccessible. *)
  let spec, view, env, doc = hospital_setup () in
  let vt = Materialize.materialize ~env ~spec ~view doc in
  let accessible = Access.accessible_set ~env spec doc in
  let sources = Materialize.element_sources vt in
  let non_dummy_sources =
    List.filter_map
      (fun (label, id) -> if View.is_dummy view label then None else Some id)
      sources
  in
  let accessible_element_ids =
    List.filter_map
      (fun n ->
        if Sxml.Tree.is_element n && Access.IntSet.mem n.Sxml.Tree.id accessible
        then Some n.Sxml.Tree.id
        else None)
      (Sxml.Tree.descendants_or_self doc)
  in
  Alcotest.(check (list int)) "sound and complete"
    accessible_element_ids
    (List.sort compare non_dummy_sources);
  List.iter
    (fun (label, id) ->
      if View.is_dummy view label then
        Alcotest.(check bool)
          (Printf.sprintf "dummy source %d inaccessible" id)
          false
          (Access.IntSet.mem id accessible))
    sources

let test_ward_filtering () =
  (* Only the ward-6 department materializes under $wardNo = 6. *)
  let spec, view, env, doc = hospital_setup () in
  let vt = Materialize.materialize ~env ~spec ~view doc in
  let tree = Materialize.to_tree vt in
  Alcotest.(check int) "one dept" 1
    (List.length (eval (Sxpath.Parse.of_string "dept") tree));
  let names =
    List.map Sxml.Tree.string_value
      (eval
         (Sxpath.Parse.of_string "//patient/name")
         tree)
  in
  Alcotest.(check (list string)) "ward 6 patients only"
    [ "Alice"; "Bob"; "Carol" ] names

let test_trial_membership_hidden () =
  (* All patients of the visible dept appear side by side; nothing in
     the view separates trial from regular patients. *)
  let spec, view, env, doc = hospital_setup () in
  let vt = Materialize.materialize ~env ~spec ~view doc in
  let tree = Materialize.to_tree vt in
  Alcotest.(check int) "clinicalTrial absent" 0
    (List.length
       (eval (Sxpath.Parse.of_string "//clinicalTrial") tree));
  Alcotest.(check int) "two patientInfo siblings" 2
    (List.length
       (eval (Sxpath.Parse.of_string "dept/patientInfo") tree))

let test_document_order_preserved () =
  let spec, view, env, doc = hospital_setup () in
  let vt = Materialize.materialize ~env ~spec ~view doc in
  let sources = List.map snd (Materialize.element_sources vt) in
  (* Preorder of the view must respect the document order within each
     sibling group; as a cheap proxy: bill values appear in document
     order. *)
  ignore sources;
  let tree = Materialize.to_tree vt in
  Alcotest.(check (list string)) "bills in document order"
    [ "900"; "120"; "80" ]
    (List.map Sxml.Tree.string_value
       (eval (Sxpath.Parse.of_string "//bill") tree))

let test_to_tree_with_sources () =
  let spec, view, env, doc = hospital_setup () in
  let vt = Materialize.materialize ~env ~spec ~view doc in
  let tree, source_of = Materialize.to_tree_with_sources vt in
  let names = eval (Sxpath.Parse.of_string "//patient/name") tree in
  List.iter
    (fun n ->
      match source_of n.Sxml.Tree.id with
      | None -> Alcotest.fail "missing source mapping"
      | Some src ->
        let orig =
          List.find
            (fun m -> m.Sxml.Tree.id = src)
            (Sxml.Tree.descendants_or_self doc)
        in
        Alcotest.(check (option string)) "source has same tag" (Some "name")
          (Sxml.Tree.tag orig))
    names

let test_abort_on_wrong_root () =
  let spec, view, env, _ = hospital_setup () in
  ignore env;
  let bad = Sxml.Tree.(of_spec (elem "clinic" [])) in
  Alcotest.(check bool) "aborts" true
    (match Materialize.materialize ~spec ~view bad with
    | exception Materialize.Abort _ -> true
    | _ -> false)

let test_abort_on_nonconforming_extraction () =
  (* A handcrafted view whose σ extracts two nodes for a
     one-node slot must abort. *)
  let dtd = Sdtd.Dtd.create ~root:"r" [ ("r", e "a"); ("a", R.Str) ] in
  let view =
    View.make ~dtd
      ~sigma:[ (("r", "a"), Sxpath.Parse.of_string "a | b") ]
      ()
  in
  let doc_dtd =
    Sdtd.Dtd.create ~root:"r"
      [ ("r", R.Seq [ e "a"; e "b" ]); ("a", R.Str); ("b", R.Str) ]
  in
  let spec = Spec.make doc_dtd [] in
  let doc =
    Sxml.Tree.(
      of_spec (elem "r" [ elem "a" [ text "1" ]; elem "b" [ text "2" ] ]))
  in
  Alcotest.(check bool) "aborts on arity violation" true
    (match Materialize.materialize ~spec ~view doc with
    | exception Materialize.Abort _ -> true
    | _ -> false)

let test_empty_star_is_fine () =
  let dtd = Sdtd.Dtd.create ~root:"r" [ ("r", R.Star (e "a")); ("a", R.Str) ] in
  let spec = Spec.make dtd [] in
  let view = View.identity_of dtd in
  let doc = Sxml.Tree.(of_spec (elem "r" [])) in
  let vt = Materialize.materialize ~spec ~view doc in
  Alcotest.(check int) "single root, no children" 1 (Materialize.size vt)

let test_identity_view_is_identity () =
  let dtd = Workload.Hospital.dtd in
  let spec = Spec.make dtd [] in
  let view = View.identity_of dtd in
  let doc = Workload.Hospital.sample_document () in
  let vt = Materialize.materialize ~spec ~view doc in
  Alcotest.(check bool) "materialization equals the document" true
    (Sxml.Tree.equal_structure doc (Materialize.to_tree vt))

let test_size () =
  let spec, view, env, doc = hospital_setup () in
  let vt = Materialize.materialize ~env ~spec ~view doc in
  Alcotest.(check int) "size counts elements and texts"
    (Sxml.Tree.size (Materialize.to_tree vt))
    (Materialize.size vt)

let () =
  Alcotest.run "materialize"
    [
      ( "hospital",
        [
          Alcotest.test_case "conforms to view DTD" `Quick
            test_hospital_materializes_and_conforms;
          Alcotest.test_case "sound and complete" `Quick
            test_hospital_sound_and_complete;
          Alcotest.test_case "ward filtering" `Quick test_ward_filtering;
          Alcotest.test_case "trial membership hidden" `Quick
            test_trial_membership_hidden;
          Alcotest.test_case "document order" `Quick
            test_document_order_preserved;
          Alcotest.test_case "source mapping" `Quick test_to_tree_with_sources;
        ] );
      ( "aborts-and-edges",
        [
          Alcotest.test_case "wrong root" `Quick test_abort_on_wrong_root;
          Alcotest.test_case "arity violation" `Quick
            test_abort_on_nonconforming_extraction;
          Alcotest.test_case "empty star" `Quick test_empty_star_is_fine;
          Alcotest.test_case "identity view" `Quick
            test_identity_view_is_identity;
          Alcotest.test_case "size" `Quick test_size;
        ] );
    ]
