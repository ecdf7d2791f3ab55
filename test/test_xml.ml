(* XML trees: construction, preorder identifiers, queries, and the
   parser/serializer pair. *)

open Sxml

let sample () =
  Tree.(
    of_spec
      (elem "r"
         [
           elem "a" ~attrs:[ ("k", "v1") ] [ text "one" ];
           elem "b" [ elem "c" []; text "two" ];
         ]))

let test_preorder_ids () =
  let doc = sample () in
  let ids = List.map (fun n -> n.Tree.id) (Tree.descendants_or_self doc) in
  Alcotest.(check (list int)) "preorder, contiguous" [ 0; 1; 2; 3; 4; 5 ] ids

let test_tags_and_text () =
  let doc = sample () in
  Alcotest.(check (option string)) "root tag" (Some "r") (Tree.tag doc);
  let texts =
    List.filter_map Tree.text_value (Tree.descendants_or_self doc)
  in
  Alcotest.(check (list string)) "texts in document order" [ "one"; "two" ]
    texts

let test_string_value () =
  let doc = sample () in
  Alcotest.(check string) "string value concatenates" "onetwo"
    (Tree.string_value doc)

let test_attr () =
  let doc = sample () in
  let a = List.hd (Tree.find_all (fun n -> Tree.tag n = Some "a") doc) in
  Alcotest.(check (option string)) "attr present" (Some "v1") (Tree.attr a "k");
  Alcotest.(check (option string)) "attr absent" None (Tree.attr a "zz")

let test_size_depth_counts () =
  let doc = sample () in
  Alcotest.(check int) "size" 6 (Tree.size doc);
  Alcotest.(check int) "elements" 4 (Tree.count_elements doc);
  Alcotest.(check int) "depth" 3 (Tree.depth doc)

let test_sort_dedup () =
  let doc = sample () in
  let all = Tree.descendants_or_self doc in
  let shuffled = List.rev all @ all in
  let sorted = Tree.sort_dedup shuffled in
  Alcotest.(check (list int)) "sorted and deduped" [ 0; 1; 2; 3; 4; 5 ]
    (List.map (fun n -> n.Tree.id) sorted)

let test_with_attr () =
  let doc = sample () in
  let doc' = Tree.with_attr doc "x" "1" in
  Alcotest.(check (option string)) "attr added" (Some "1")
    (Tree.attr doc' "x");
  Alcotest.(check int) "id preserved" doc.Tree.id doc'.Tree.id

let test_map_attrs () =
  let doc = sample () in
  let doc' = Tree.map_attrs (fun n -> [ ("id", string_of_int n.Tree.id) ]) doc in
  let b = List.hd (Tree.find_all (fun n -> Tree.tag n = Some "b") doc') in
  Alcotest.(check (option string)) "id stamped" (Some "3") (Tree.attr b "id");
  Alcotest.(check int) "text untouched" 6 (Tree.size doc')

let test_equal_structure () =
  Alcotest.(check bool) "equal to itself rebuilt" true
    (Tree.equal_structure (sample ()) (sample ()));
  let other = Tree.(of_spec (elem "r" [])) in
  Alcotest.(check bool) "different" false
    (Tree.equal_structure (sample ()) other)

let roundtrip ?indent doc =
  Parse.of_string (Print.to_string ?indent doc)

let test_print_parse_roundtrip () =
  let doc = sample () in
  Alcotest.(check bool) "compact roundtrip" true
    (Tree.equal_structure doc (roundtrip doc));
  Alcotest.(check bool) "indented roundtrip" true
    (Tree.equal_structure doc (roundtrip ~indent:true doc))

let test_escaping () =
  let doc =
    Tree.(
      of_spec
        (elem "r" ~attrs:[ ("q", "a\"b<c&d") ] [ text "x<y & z>w" ]))
  in
  let doc' = roundtrip doc in
  Alcotest.(check bool) "special characters survive" true
    (Tree.equal_structure doc doc')

let test_parse_entities () =
  let doc = Parse.of_string "<r>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;</r>" in
  Alcotest.(check string) "entities decoded" "<&>\"'AB"
    (Tree.string_value doc)

let test_parse_whitespace_modes () =
  let input = "<r>\n  <a/>\n  <b/>\n</r>" in
  let stripped = Parse.of_string input in
  Alcotest.(check int) "whitespace dropped" 3 (Tree.size stripped);
  let kept = Parse.of_string ~keep_whitespace:true input in
  Alcotest.(check bool) "whitespace kept" true (Tree.size kept > 3)

let test_parse_prolog_and_comments () =
  let doc =
    Parse.of_string
      "<?xml version=\"1.0\"?><!DOCTYPE r><!-- hi --><r><!-- in -->\
       <a/></r><!-- after -->"
  in
  Alcotest.(check int) "prolog and comments skipped" 2 (Tree.size doc)

let test_parse_self_closing_and_attrs () =
  let doc = Parse.of_string "<r a=\"1\" b='2'/>" in
  Alcotest.(check (option string)) "double quoted" (Some "1")
    (Tree.attr doc "a");
  Alcotest.(check (option string)) "single quoted" (Some "2")
    (Tree.attr doc "b")

let expect_error input =
  match Parse.of_string input with
  | exception Parse.Error _ -> ()
  | _ -> Alcotest.failf "expected parse error on %s" input

let test_parse_errors () =
  expect_error "<r>";
  expect_error "<r></s>";
  expect_error "<r><a></r></a>";
  expect_error "";
  expect_error "<r a=\"1\" a=\"2\"/>";
  expect_error "<r>&unknown;</r>";
  expect_error "<r/><r/>";
  expect_error "plain text"

let test_error_position () =
  match Parse.of_string "<r>\n<a></b>\n</r>" with
  | exception Parse.Error e ->
    Alcotest.(check int) "error on line 2" 2 e.Parse.line
  | _ -> Alcotest.fail "expected error"

(* Property: print/parse roundtrip on random trees. *)
let gen_tree =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "d" ] in
  let txt = oneofl [ "x"; "hello"; "<&>"; "a b" ] in
  let node =
    sized @@ fix (fun self n ->
        if n <= 1 then
          oneof
            [ map Sxml.Tree.text txt; map (fun t -> Sxml.Tree.elem t []) tag ]
        else
          map2
            (fun t kids -> Sxml.Tree.elem t kids)
            tag
            (list_size (int_bound 4) (self (n / 3))))
  in
  (* Wrap in a root element; merge adjacent text nodes would be needed
     for exact roundtrip, so force element-only children at the top and
     avoid adjacent-text ambiguity by interleaving elements. *)
  map (fun kids -> Sxml.Tree.of_spec (Sxml.Tree.elem "root" kids))
    (list_size (int_bound 4) node)

let no_adjacent_texts doc =
  let rec ok (n : Sxml.Tree.t) =
    let rec pairs = function
      | a :: (b :: _ as rest) ->
        (not (Sxml.Tree.is_text a && Sxml.Tree.is_text b)) && pairs rest
      | _ -> true
    in
    pairs (Sxml.Tree.children n)
    && List.for_all ok (Sxml.Tree.children n)
  in
  ok doc

let all_texts_solid doc =
  (* whitespace-only texts are dropped by the parser; skip those. *)
  List.for_all
    (fun n ->
      match Sxml.Tree.text_value n with
      | Some s -> String.trim s <> ""
      | None -> true)
    (Sxml.Tree.descendants_or_self doc)

let prop_roundtrip =
  QCheck2.Test.make ~name:"print/parse roundtrip" ~count:200 gen_tree
    (fun doc ->
      QCheck2.assume (no_adjacent_texts doc);
      QCheck2.assume (all_texts_solid doc);
      Sxml.Tree.equal_structure doc (roundtrip doc))

let prop_ids_preorder =
  QCheck2.Test.make ~name:"identifiers are dense preorder" ~count:200 gen_tree
    (fun doc ->
      let ids =
        List.map (fun n -> n.Sxml.Tree.id) (Sxml.Tree.descendants_or_self doc)
      in
      ids = List.init (List.length ids) Fun.id)

(* Trees whose text is drawn from a two-letter alphabet, empty strings
   included, in mixed content split across several sibling and nested
   text nodes: string values then often equal, prefix or extend one
   another. *)
let gen_text_tree =
  let open QCheck2.Gen in
  let txt = string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_bound 3) in
  let node =
    sized_size (int_bound 12) @@ fix (fun self n ->
        if n <= 1 then map Tree.text txt
        else
          oneof
            [
              map Tree.text txt;
              map (fun kids -> Tree.elem "e" kids)
                (list_size (int_bound 4) (self (n / 2)));
            ])
  in
  map (fun kids -> Tree.of_spec (Tree.elem "root" kids))
    (list_size (int_bound 4) node)

(* Candidates for the compared constant: the string value itself, its
   prefixes and extensions, a changed character, the empty string, and
   unrelated text. *)
let gen_compared =
  let open QCheck2.Gen in
  let* doc = gen_text_tree in
  let sv = Tree.string_value doc in
  let n = String.length sv in
  let* s =
    oneof
      [
        return sv;
        map (fun k -> String.sub sv 0 k) (int_bound n);
        map (fun c -> sv ^ String.make 1 c) (oneofl [ 'a'; 'b' ]);
        (if n = 0 then return "a"
         else
           map
             (fun i ->
               String.mapi
                 (fun j c -> if j = i then (if c = 'a' then 'b' else 'a') else c)
                 sv)
             (int_bound (n - 1)));
        return "";
        string_size ~gen:(oneofl [ 'a'; 'b' ]) (int_bound 6);
      ]
  in
  return (doc, s)

let prop_string_value_equal =
  QCheck2.Test.make ~name:"in-place = agrees with string_value" ~count:1000
    ~print:(fun (doc, s) -> Printf.sprintf "%s vs %S" (Print.to_string doc) s)
    gen_compared
    (fun (doc, s) ->
      List.for_all
        (fun n ->
          Tree.string_value_equal n s
          = String.equal (Tree.string_value n) s)
        (Tree.descendants_or_self doc))

(* The answer renderer reuses its buffer: per node it allocates the
   string it returns and a list cell.  A fresh buffer per node (the
   renderer's predecessor reserved 1 KB each time) costs at least 128
   words a node. *)
let test_answer_allocation () =
  let doc =
    Tree.(
      of_spec
        (elem "r"
           (List.init 200 (fun i ->
                elem "item"
                  ~attrs:[ ("k", "v&" ^ string_of_int i) ]
                  [ text "x < y"; elem "leaf" [ text "z" ] ]))))
  in
  let nodes = Tree.children doc in
  let buf = Buffer.create 1024 in
  let expected = List.map (fun n -> Print.to_string n) nodes in
  Alcotest.(check (list string)) "answer = to_string, node by node" expected
    (Print.answer buf nodes);
  let string_words =
    List.fold_left
      (fun acc s -> acc + 1 + ((String.length s + 8) / 8))
      0 expected
  in
  let rounds = 50 in
  let w0 = Gc.minor_words () in
  for _ = 1 to rounds do
    ignore (Sys.opaque_identity (Print.answer buf nodes))
  done;
  let w1 = Gc.minor_words () in
  let per_node =
    ((w1 -. w0) /. float rounds -. float string_words)
    /. float (List.length nodes)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per node beyond the strings" per_node)
    true (per_node <= 8.)

let () =
  Alcotest.run "xml"
    [
      ( "tree",
        [
          Alcotest.test_case "preorder ids" `Quick test_preorder_ids;
          Alcotest.test_case "tags and text" `Quick test_tags_and_text;
          Alcotest.test_case "string_value" `Quick test_string_value;
          Alcotest.test_case "attributes" `Quick test_attr;
          Alcotest.test_case "size/depth/count" `Quick test_size_depth_counts;
          Alcotest.test_case "sort_dedup" `Quick test_sort_dedup;
          Alcotest.test_case "with_attr" `Quick test_with_attr;
          Alcotest.test_case "map_attrs" `Quick test_map_attrs;
          Alcotest.test_case "equal_structure" `Quick test_equal_structure;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_print_parse_roundtrip;
          Alcotest.test_case "escaping" `Quick test_escaping;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "whitespace modes" `Quick
            test_parse_whitespace_modes;
          Alcotest.test_case "prolog/comments" `Quick
            test_parse_prolog_and_comments;
          Alcotest.test_case "attributes" `Quick
            test_parse_self_closing_and_attrs;
          Alcotest.test_case "malformed inputs" `Quick test_parse_errors;
          Alcotest.test_case "error positions" `Quick test_error_position;
          Alcotest.test_case "answer renderer allocation" `Quick
            test_answer_allocation;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [ prop_roundtrip; prop_ids_preorder; prop_string_value_equal ] );
    ]
