(* Document indexes and the evaluator's indexed fast path. *)

module A = Sxpath.Ast

let eval = Ctx_eval.eval

let parse = Sxpath.Parse.of_string

let doc () =
  Sxml.Tree.(
    of_spec
      (elem "r"
         [
           elem "a" [ elem "b" [ text "1" ]; elem "a" [ elem "b" [ text "2" ] ] ];
           elem "c" [ elem "b" [ text "3" ] ];
           elem "b" [ text "4" ];
         ]))

let test_extents () =
  let d = doc () in
  let idx = Sxml.Index.build d in
  Alcotest.(check int) "root extent covers everything"
    (Sxml.Tree.size d - 1)
    (Sxml.Index.extent idx 0);
  (* node 1 is the first <a>, whose subtree is ids 1..6 *)
  Alcotest.(check int) "first a extent" 6 (Sxml.Index.extent idx 1);
  Alcotest.(check int) "size" (Sxml.Tree.size d) (Sxml.Index.size idx)

let test_by_tag () =
  let idx = Sxml.Index.build (doc ()) in
  Alcotest.(check int) "four b elements" 4
    (Array.length (Sxml.Index.by_tag idx "b"));
  Alcotest.(check int) "no z elements" 0
    (Array.length (Sxml.Index.by_tag idx "z"));
  Alcotest.(check (list string)) "tags sorted"
    [ "a"; "b"; "c"; "r" ]
    (Sxml.Index.tags idx);
  let ids = Array.to_list (Sxml.Index.by_tag idx "b") in
  Alcotest.(check bool) "document order" true
    (List.sort Sxml.Tree.compare_doc_order ids = ids)

let test_descendants_with_tag () =
  let d = doc () in
  let idx = Sxml.Index.build d in
  let first_a = Sxml.Index.node idx 1 in
  Alcotest.(check (list string)) "b descendants of the first a"
    [ "1"; "2" ]
    (List.map Sxml.Tree.string_value
       (Sxml.Index.descendants_with_tag idx ~context:first_a "b"));
  Alcotest.(check int) "strict: the context itself is excluded" 1
    (List.length (Sxml.Index.descendants_with_tag idx ~context:first_a "a"))

let test_build_rejects_non_root () =
  let d = doc () in
  let sub = List.hd (Sxml.Tree.element_children d) in
  Alcotest.(check bool) "non-root rejected" true
    (match Sxml.Index.build sub with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* [Index.edit] refuses targets it cannot place; the document has
   nodes 0..11, node 3 is text. *)
let test_edit_rejects_bad_targets () =
  let idx = Sxml.Index.build (doc ()) in
  let content = Sxml.Tree.elem "x" [] in
  List.iter
    (fun (label, op, targets) ->
      Alcotest.(check bool) label true
        (match Sxml.Index.edit idx op targets with
        | exception Invalid_argument _ -> true
        | _ -> false))
    [
      ("descending", Sxml.Index.Delete, [ 4; 1 ]);
      ("repeated", Sxml.Index.Delete, [ 1; 1 ]);
      ("out of range", Sxml.Index.Delete, [ 12 ]);
      ("into text", Sxml.Index.Insert (Into, content), [ 3 ]);
      ("root removed", Sxml.Index.Delete, [ 0 ]);
      ("root replaced", Sxml.Index.Replace content, [ 0 ]);
      ("root sibling", Sxml.Index.Insert (After, content), [ 0 ]);
    ]

let test_indexed_eval_equivalence () =
  let d = doc () in
  let idx = Sxml.Index.build d in
  List.iter
    (fun q ->
      let p = parse q in
      let plain = List.map (fun n -> n.Sxml.Tree.id) (eval p d) in
      let fast =
        List.map (fun n -> n.Sxml.Tree.id) (eval ~index:idx p d)
      in
      Alcotest.(check (list int)) ("indexed = plain on " ^ q) plain fast)
    [
      "//b"; "//a//b"; "//a/b"; "//b[. = \"2\"]"; "a//b | //c/b";
      "//a[//b]/a"; "//."; "//a/a/b"; ".//b";
    ]

let test_indexed_eval_on_workload () =
  let doc = Workload.Adex.document ~ads:15 ~buyers:8 () in
  let idx = Sxml.Index.build doc in
  let view = Workload.Adex.view () in
  List.iter
    (fun (name, q) ->
      let pt = Secview.Rewrite.rewrite view q in
      let plain =
        List.map (fun n -> n.Sxml.Tree.id) (eval pt doc)
      in
      let fast =
        List.map
          (fun n -> n.Sxml.Tree.id)
          (eval ~index:idx pt doc)
      in
      Alcotest.(check (list int)) ("adex " ^ name) plain fast;
      (* the naive loosened forms hit the fast path hard *)
      let naive_q = Secview.Naive.rewrite_query ~view q in
      let prepared = Secview.Naive.prepare Workload.Adex.spec doc in
      let pidx = Sxml.Index.build prepared in
      let plain_n =
        List.map (fun n -> n.Sxml.Tree.id) (eval naive_q prepared)
      in
      let fast_n =
        List.map
          (fun n -> n.Sxml.Tree.id)
          (eval ~index:pidx naive_q prepared)
      in
      Alcotest.(check (list int)) ("naive " ^ name) plain_n fast_n)
    Workload.Adex.queries

let test_fast_path_does_less_work () =
  let doc = Workload.Adex.document ~ads:40 ~buyers:20 () in
  let idx = Sxml.Index.build doc in
  let q = parse "//buyer-info//name" in
  let work f =
    let visits = ref 0 in
    ignore (f visits);
    !visits
  in
  let scan = work (fun visits -> eval ~visits q doc) in
  let fast = work (fun visits -> eval ~visits ~index:idx q doc) in
  Alcotest.(check bool)
    (Printf.sprintf "index %d << scan %d" fast scan)
    true
    (fast * 5 < scan)

(* property: indexed and plain evaluation agree on random docs/queries *)
let gen_case =
  let open QCheck2.Gen in
  let* seed = int_bound 1000 in
  let doc =
    Sdtd.Gen.generate
      ~config:{ Sdtd.Gen.default_config with seed }
      Workload.Hospital.dtd
  in
  let labels = Sdtd.Dtd.reachable Workload.Hospital.dtd in
  let* size = int_range 1 8 in
  let rec gen n =
    if n <= 1 then map (fun l -> A.Label l) (oneofl labels)
    else
      oneof
        [
          map (fun l -> A.Label l) (oneofl labels);
          return A.Wildcard;
          map2 (fun a b -> A.Slash (a, b)) (gen (n / 2)) (gen (n / 2));
          map (fun a -> A.Dslash a) (gen (n - 1));
          map2 (fun a b -> A.Union (a, b)) (gen (n / 2)) (gen (n / 2));
          map2
            (fun a q -> A.Qualify (a, A.Exists q))
            (gen (n / 2))
            (gen (n / 2));
        ]
  in
  let* q = gen size in
  return (doc, q)

let prop_indexed_equivalence =
  QCheck2.Test.make ~name:"indexed evaluation = plain evaluation" ~count:300
    ~print:(fun (_, q) -> Sxpath.Print.to_string q)
    gen_case
    (fun (doc, q) ->
      let idx = Sxml.Index.build doc in
      List.map (fun n -> n.Sxml.Tree.id) (eval q doc)
      = List.map
          (fun n -> n.Sxml.Tree.id)
          (eval ~index:idx q doc))

let () =
  Alcotest.run "index"
    [
      ( "structure",
        [
          Alcotest.test_case "extents" `Quick test_extents;
          Alcotest.test_case "by_tag" `Quick test_by_tag;
          Alcotest.test_case "descendants_with_tag" `Quick
            test_descendants_with_tag;
          Alcotest.test_case "non-root rejected" `Quick
            test_build_rejects_non_root;
          Alcotest.test_case "edit rejects bad targets" `Quick
            test_edit_rejects_bad_targets;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "equivalence (handwritten)" `Quick
            test_indexed_eval_equivalence;
          Alcotest.test_case "equivalence (workload)" `Quick
            test_indexed_eval_on_workload;
          Alcotest.test_case "less work" `Quick test_fast_path_does_less_work;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_indexed_equivalence ] );
    ]
