(* The attribute extension ("attributes ... can be easily
   incorporated", Section 2): declarations, policies on attributes,
   derivation, materialization, rewriting and DTD-aware decisions. *)

module A = Sxpath.Ast
module R = Sdtd.Regex
module Spec = Secview.Spec
module View = Secview.View
module Derive = Secview.Derive
module Materialize = Secview.Materialize
module Access = Secview.Access

let eval = Ctx_eval.eval

let e l = R.Elt l
let parse = Sxpath.Parse.of_string
let path_t = Alcotest.testable Sxpath.Print.pp Sxpath.Simplify.equivalent_syntax

(* A small records DTD with attributes: record has a public @id and a
   sensitive @owner; note has a @lang. *)
let dtd =
  Sdtd.Dtd.create
    ~attlist:[ ("record", [ "id"; "owner" ]); ("note", [ "lang" ]) ]
    ~root:"db"
    [
      ("db", R.Star (e "record"));
      ("record", R.Seq [ e "note"; e "secret" ]);
      ("note", R.Str);
      ("secret", R.Str);
    ]

let spec =
  Spec.make dtd
    [ (("record", "@owner"), Spec.No); (("record", "secret"), Spec.No) ]

let doc () =
  Sxml.Tree.(
    of_spec
      (elem "db"
         [
           elem "record"
             ~attrs:[ ("id", "r1"); ("owner", "alice") ]
             [
               elem "note" ~attrs:[ ("lang", "en") ] [ text "hello" ];
               elem "secret" [ text "s1" ];
             ];
           elem "record"
             ~attrs:[ ("id", "r2"); ("owner", "bob") ]
             [
               elem "note" [ text "salut" ];
               elem "secret" [ text "s2" ];
             ];
         ]))

let test_dtd_declarations () =
  Alcotest.(check (list string)) "record attributes" [ "id"; "owner" ]
    (Sdtd.Dtd.attributes dtd "record");
  Alcotest.(check (list string)) "none for db" [] (Sdtd.Dtd.attributes dtd "db")

let test_dtd_attlist_roundtrip () =
  let printed = Sdtd.Dtd.to_string dtd in
  let reparsed = Sdtd.Parse.of_string printed in
  Alcotest.(check bool) "roundtrips with attributes" true
    (Sdtd.Dtd.equal dtd reparsed);
  Alcotest.(check (list string)) "attributes survive" [ "id"; "owner" ]
    (Sdtd.Dtd.attributes reparsed "record")

let test_parse_attlist_forms () =
  let d =
    Sdtd.Parse.of_string
      {|<!ELEMENT r EMPTY>
        <!ATTLIST r a CDATA #REQUIRED
                    b (yes | no) "yes"
                    c CDATA #FIXED "k">|}
  in
  Alcotest.(check (list string)) "all three attribute forms"
    [ "a"; "b"; "c" ]
    (List.sort compare (Sdtd.Dtd.attributes d "r"))

let test_validate_checks_attributes () =
  Alcotest.(check bool) "declared attributes accepted" true
    (Sdtd.Validate.conforms dtd (doc ()));
  let bad =
    Sxml.Tree.(
      of_spec
        (elem "db"
           [
             elem "record" ~attrs:[ ("zz", "1") ]
               [ elem "note" [ text "x" ]; elem "secret" [ text "y" ] ];
           ]))
  in
  Alcotest.(check bool) "undeclared attribute rejected" true
    (List.exists
       (fun v ->
         let m = v.Sdtd.Validate.message in
         String.length m > 9 && String.sub m 0 9 = "attribute")
       (Sdtd.Validate.check dtd bad))

let test_spec_attribute_edges () =
  Alcotest.(check bool) "undeclared attribute rejected" true
    (match Spec.make dtd [ (("record", "@zz"), Spec.No) ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "attribute on wrong element rejected" true
    (match Spec.make dtd [ (("note", "@owner"), Spec.No) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_accessible_attributes () =
  let d = doc () in
  let records = eval (parse "record") d in
  List.iter
    (fun r ->
      Alcotest.(check (list (pair string string)))
        "only @id visible"
        [ ("id", Sxml.Tree.attr r "id" |> Option.get) ]
        (Access.accessible_attributes spec d r))
    records

let test_explicit_y_attribute_on_hidden_element () =
  (* @owner explicitly granted even though the record is hidden *)
  let spec' =
    Spec.make dtd
      [ (("db", "record"), Spec.No); (("record", "@owner"), Spec.Yes) ]
  in
  let d = doc () in
  let r = List.hd (eval (parse "record") d) in
  Alcotest.(check (list string)) "owner exposed, id hidden with the element"
    [ "owner" ]
    (List.map fst (Access.accessible_attributes spec' d r))

(* An explicit grant needs every qualifier on the element and above it
   to hold: the record whose qualifier fails keeps its @id hidden. *)
let test_granted_attribute_under_qualifier () =
  let spec' =
    Spec.make dtd
      [
        ( ("db", "record"),
          Spec.Cond (Sxpath.Parse.qual_of_string "note = \"hello\"") );
        (("record", "@id"), Spec.Yes);
        (("record", "@owner"), Spec.No);
      ]
  in
  let d = doc () in
  Alcotest.(check (list (list string)))
    "@id of the record whose qualifier holds"
    [ [ "id" ]; [] ]
    (List.map
       (fun r -> List.map fst (Access.accessible_attributes spec' d r))
       (eval (parse "record") d))

(* Whether the qualifiers above an element hold comes with the
   accessibility flags, so a view digest with a granted attribute
   costs the same per record at any size: 4x the records allocate
   about 4x the words, where a search from the root for every granted
   element would allocate about 16x. *)
let test_granted_attribute_digest_linear () =
  let spec' =
    Spec.make dtd
      [
        (("record", "@id"), Spec.Yes);
        (("record", "@owner"), Spec.No);
        (("record", "secret"), Spec.No);
      ]
  in
  let view = Derive.derive spec' in
  let records n =
    Sxml.Index.build
      Sxml.Tree.(
        of_spec
          (elem "db"
             (List.init n (fun i ->
                  elem "record"
                    ~attrs:[ ("id", string_of_int i); ("owner", "o") ]
                    [ elem "note" [ text "n" ]; elem "secret" [ text "s" ] ]))))
  in
  let words index =
    let w0 = Gc.minor_words () in
    ignore (Secview.View_text.digest ~spec:spec' ~view index : string);
    Gc.minor_words () -. w0
  in
  let small = records 500 and large = records 2000 in
  let text = Secview.View_text.to_string ~spec:spec' ~view small in
  let shown = {|<record id="499">|} in
  let n = String.length shown in
  let rec contains i =
    i + n <= String.length text
    && (String.sub text i n = shown || contains (i + 1))
  in
  Alcotest.(check bool) "the grant shows" true (contains 0);
  let ws = words small and wl = words large in
  if wl > 5. *. ws then
    Alcotest.failf "2,000 records allocate %.0f words, %.1fx the %.0f of 500"
      wl (wl /. ws) ws

let test_view_dtd_attributes () =
  let view = Derive.derive spec in
  Alcotest.(check (list string)) "view record keeps only @id" [ "id" ]
    (Sdtd.Dtd.attributes (View.dtd view) "record");
  Alcotest.(check (list string)) "note keeps @lang" [ "lang" ]
    (Sdtd.Dtd.attributes (View.dtd view) "note")

let test_materialize_attributes () =
  let view = Derive.derive spec in
  let vt = Materialize.materialize ~spec ~view (doc ()) in
  let tree = Materialize.to_tree vt in
  let records = eval (parse "record") tree in
  Alcotest.(check (list (option string))) "ids kept"
    [ Some "r1"; Some "r2" ]
    (List.map (fun r -> Sxml.Tree.attr r "id") records);
  Alcotest.(check (list (option string))) "owners stripped" [ None; None ]
    (List.map (fun r -> Sxml.Tree.attr r "owner") records);
  Alcotest.(check bool) "materialization conforms (attribute check incl.)"
    true
    (Sdtd.Validate.conforms (View.dtd view) tree)

let test_rewrite_attribute_qualifiers () =
  let view = Derive.derive spec in
  (* visible attribute: passes through *)
  Alcotest.check path_t "visible @id"
    (parse "record[@id = \"r1\"]")
    (Secview.Rewrite.rewrite view (parse "record[@id = \"r1\"]"));
  (* hidden attribute: the qualifier can never hold in the view *)
  Alcotest.check path_t "hidden @owner" A.Empty
    (Secview.Rewrite.rewrite view (parse "record[@owner]"));
  (* negated hidden attribute is vacuously true *)
  Alcotest.check path_t "not(@owner)" (parse "record")
    (Secview.Rewrite.rewrite view (parse "record[not(@owner)]"))

let test_rewrite_attribute_evaluation () =
  let view = Derive.derive spec in
  let d = doc () in
  let pt = Secview.Rewrite.rewrite view (parse "record[@id = \"r2\"]/note") in
  Alcotest.(check (list string)) "selects through the visible attribute"
    [ "salut" ]
    (List.map Sxml.Tree.string_value (eval pt d));
  (* a query over the materialized view agrees *)
  let vt = Materialize.materialize ~spec ~view d in
  let tree = Materialize.to_tree vt in
  Alcotest.(check (list string)) "same through the view"
    [ "salut" ]
    (List.map Sxml.Tree.string_value
       (eval (parse "record[@id = \"r2\"]/note") tree))

let test_optimize_attribute_decisions () =
  (* [@zz] is undeclared on record: decided false from the DTD *)
  Alcotest.check path_t "undeclared attribute kills the qualifier" A.Empty
    (Secview.Optimize.optimize dtd (parse "//record[@zz]"));
  Alcotest.(check bool) "declared attribute stays undecided" true
    (Secview.Optimize.optimize dtd (parse "//record[@id]") <> A.Empty)

let test_gen_attributes () =
  let config =
    {
      Sdtd.Gen.default_config with
      attr_for =
        (fun _el attr _rng -> if attr = "id" then Some "generated" else None);
    }
  in
  let d = Sdtd.Gen.generate ~config dtd in
  Alcotest.(check bool) "generated documents conform" true
    (Sdtd.Validate.conforms dtd d);
  let records = eval (parse "record") d in
  List.iter
    (fun r ->
      Alcotest.(check (option string)) "id generated" (Some "generated")
        (Sxml.Tree.attr r "id");
      Alcotest.(check (option string)) "owner omitted" None
        (Sxml.Tree.attr r "owner"))
    records

let test_unfold_keeps_attributes () =
  let rec_dtd =
    Sdtd.Dtd.create
      ~attlist:[ ("a", [ "depth" ]) ]
      ~root:"a"
      [ ("a", R.choice [ e "a"; R.Epsilon ]) ]
  in
  let u = Sdtd.Unfold.unfold rec_dtd ~height:3 in
  Alcotest.(check (list string)) "levelled copies keep attributes"
    [ "depth" ]
    (Sdtd.Dtd.attributes u "a~2")

let () =
  Alcotest.run "attributes"
    [
      ( "dtd",
        [
          Alcotest.test_case "declarations" `Quick test_dtd_declarations;
          Alcotest.test_case "attlist roundtrip" `Quick
            test_dtd_attlist_roundtrip;
          Alcotest.test_case "attlist forms" `Quick test_parse_attlist_forms;
          Alcotest.test_case "validation" `Quick
            test_validate_checks_attributes;
          Alcotest.test_case "unfold keeps attributes" `Quick
            test_unfold_keeps_attributes;
        ] );
      ( "policy",
        [
          Alcotest.test_case "spec edges" `Quick test_spec_attribute_edges;
          Alcotest.test_case "accessible attributes" `Quick
            test_accessible_attributes;
          Alcotest.test_case "explicit Y on hidden element" `Quick
            test_explicit_y_attribute_on_hidden_element;
          Alcotest.test_case "explicit Y under a failing qualifier" `Quick
            test_granted_attribute_under_qualifier;
          Alcotest.test_case "granted attribute digest is linear" `Quick
            test_granted_attribute_digest_linear;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "view DTD attributes" `Quick
            test_view_dtd_attributes;
          Alcotest.test_case "materialization" `Quick
            test_materialize_attributes;
          Alcotest.test_case "rewriting qualifiers" `Quick
            test_rewrite_attribute_qualifiers;
          Alcotest.test_case "rewritten evaluation" `Quick
            test_rewrite_attribute_evaluation;
          Alcotest.test_case "optimizer decisions" `Quick
            test_optimize_attribute_decisions;
          Alcotest.test_case "generation" `Quick test_gen_attributes;
        ] );
    ]
