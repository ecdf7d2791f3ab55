(* The Pipeline Service/Session split: multi-group setup, translation
   caching, recursive-view handling. *)

module Pipeline = Secview.Pipeline
module Spec = Secview.Spec

let eval = Ctx_eval.eval

let parse = Sxpath.Parse.of_string

let hospital_service () =
  let dtd = Workload.Hospital.dtd in
  let nurses = Workload.Hospital.nurse_spec dtd in
  let billing =
    Spec.of_sidecar dtd
      "dept staffInfo N\ndept clinicalTrial N\nclinicalTrial patientInfo Y\n"
  in
  Pipeline.Service.create dtd
    ~groups:[ ("nurses", nurses); ("billing", billing) ]

let test_groups () =
  let p = hospital_service () in
  Alcotest.(check (list string)) "groups in order"
    [ "nurses"; "billing" ]
    (List.map (fun g -> g.Pipeline.name) (Pipeline.Service.groups p));
  Alcotest.(check bool) "nurse view DTD hides clinicalTrial" false
    (Sdtd.Dtd.mem (Pipeline.Service.view_dtd p ~group:"nurses") "clinicalTrial");
  Alcotest.(check bool) "unknown group raises" true
    (match Pipeline.Service.view_dtd p ~group:"zz" with
    | exception Not_found -> true
    | _ -> false)

let test_rejects_foreign_spec () =
  let dtd = Workload.Hospital.dtd in
  let other_dtd = Workload.Adex.dtd in
  Alcotest.(check bool) "spec over another DTD rejected" true
    (match
       Pipeline.Service.create dtd
         ~groups:[ ("x", Workload.Adex.spec) ]
     with
    | exception Invalid_argument _ -> true
    | _ ->
      ignore other_dtd;
      false)

let test_translation_and_cache () =
  let p = Pipeline.Session.create (hospital_service ()) in
  let q = parse "//patient//bill" in
  let t1 = Pipeline.Session.translate p ~group:"nurses" q in
  let t2 = Pipeline.Session.translate p ~group:"nurses" q in
  Alcotest.(check bool) "same translation" true (Sxpath.Ast.equal_path t1 t2);
  let s : Pipeline.stats = Pipeline.Session.stats_of p ~group:"nurses" in
  Alcotest.(check int) "one miss" 1 s.misses;
  Alcotest.(check int) "one hit" 1 s.hits;
  (* translate alone never touches the plan cache *)
  Alcotest.(check int) "no plan lookups" 0 (s.plan_hits + s.plan_misses);
  (* groups have independent caches *)
  let s' : Pipeline.stats = Pipeline.Session.stats_of p ~group:"billing" in
  Alcotest.(check int) "billing untouched" 0 s'.hits

let test_answers_match_manual_pipeline () =
  let dtd = Workload.Hospital.dtd in
  let spec = Workload.Hospital.nurse_spec dtd in
  let p =
    Pipeline.Session.create (Pipeline.Service.create dtd ~groups:[ ("nurses", spec) ])
  in
  let doc = Workload.Hospital.sample_document () in
  let env = Workload.Hospital.nurse_env "6" in
  let q = parse "//patient/name" in
  let via_pipeline =
    List.map Sxml.Tree.string_value
      (Pipeline.Session.answer_exn p ~group:"nurses" ~env q doc)
  in
  let manual =
    let view = Secview.Derive.derive spec in
    let pt = Secview.Optimize.optimize dtd (Secview.Rewrite.rewrite view q) in
    List.map Sxml.Tree.string_value (eval ~env pt doc)
  in
  Alcotest.(check (list string)) "pipeline = manual" manual via_pipeline

let test_recursive_group () =
  let dtd = Workload.Xmark.dtd in
  let p =
    Pipeline.Session.create
      (Pipeline.Service.create dtd ~groups:[ ("buyers", Workload.Xmark.spec) ])
  in
  let doc = Workload.Xmark.document ~seed:3 ~scale:3 () in
  (* answer computes the height itself *)
  let names =
    Pipeline.Session.answer_exn p ~group:"buyers" (parse "//person/name") doc
  in
  Alcotest.(check bool) "answers arrive" true (names <> []);
  (* translate without a height must refuse on a recursive view *)
  Alcotest.(check bool) "translate needs height" true
    (match Pipeline.Session.translate p ~group:"buyers" (parse "//name") with
    | exception Secview.Rewrite.Unsupported _ -> true
    | _ -> false);
  (* different heights are cached separately *)
  ignore (Pipeline.Session.translate p ~group:"buyers" ~height:5 (parse "//name"));
  ignore (Pipeline.Session.translate p ~group:"buyers" ~height:7 (parse "//name"));
  let s : Pipeline.stats = Pipeline.Session.stats_of p ~group:"buyers" in
  Alcotest.(check bool) "separate cache entries per height" true (s.misses >= 3)

(* The interpreter over a fresh session's translation for the tree's
   own height: the oracle a pinned Fig. 7 answer is compared with. *)
let fig7_oracle q doc =
  let fresh =
    Pipeline.Session.create
      (Pipeline.Service.create Workload.Fig7.dtd
         ~groups:[ ("g", Workload.Fig7.spec) ])
  in
  eval
    (Pipeline.Session.translate fresh ~group:"g"
       ~height:(Secview.Catalog.element_height doc) q)
    doc

(* A served read pins its snapshot.  A write that swaps the entry's
   snapshot before the read is answered must not send the read to the
   catalog again: the answer is the pinned version's, under the height
   that version already measured — no second walk of the tree. *)
let test_pinned_read_across_write () =
  let module Catalog = Secview.Catalog in
  let dtd = Workload.Fig7.dtd and spec = Workload.Fig7.spec in
  let catalog = Catalog.create () in
  let pinned_doc = Workload.Fig7.document ~depth:3 in
  let entry = Catalog.add catalog ~name:"d" pinned_doc in
  let p =
    Pipeline.Session.create
      (Pipeline.Service.create ~catalog dtd ~groups:[ ("g", spec) ])
  in
  let q = parse "//b" in
  let snap = Catalog.pin entry in
  (* the first read measures the pinned version's height *)
  ignore (Pipeline.Session.answer_pinned p ~group:"g" q snap);
  let written = Workload.Fig7.document ~depth:5 in
  ignore
    (Catalog.update ~conforms:dtd
       ~access:(spec, (fun _ -> None), Secview.Access.accessible_flags spec written)
       entry (Sxml.Index.build written));
  let walks = Catalog.height_walks catalog in
  let oracle = fig7_oracle q pinned_doc in
  let ids = List.map (fun (n : Sxml.Tree.t) -> n.id) in
  match Pipeline.Session.answer_pinned p ~group:"g" q snap with
  | Error e -> Alcotest.fail (Secview.Error.to_string e)
  | Ok o ->
    Alcotest.(check (list int)) "the pinned version's answer" (ids oracle)
      (ids o.o_results);
    Alcotest.(check int) "no height walk after the write" walks
      (Catalog.height_walks catalog)

(* A write lands between pinning and explaining, as it can between a
   served explain's pin and its run: the explanation is the pinned
   version's — its provenance, its answer count, its height — and no
   tree but the pinned one is walked. *)
let test_explain_pinned_across_write () =
  let module Catalog = Secview.Catalog in
  let dtd = Workload.Fig7.dtd and spec = Workload.Fig7.spec in
  let catalog = Catalog.create () in
  let pinned_doc = Workload.Fig7.document ~depth:3 in
  let entry = Catalog.add catalog ~name:"d" pinned_doc in
  let p =
    Pipeline.Session.create
      (Pipeline.Service.create ~catalog dtd ~groups:[ ("g", spec) ])
  in
  let q = parse "//b" in
  let snap = Catalog.pin entry in
  let written = Workload.Fig7.document ~depth:5 in
  ignore
    (Catalog.update ~conforms:dtd
       ~access:(spec, (fun _ -> None), Secview.Access.accessible_flags spec written)
       entry (Sxml.Index.build written));
  let walks = Catalog.height_walks catalog in
  let oracle = fig7_oracle q pinned_doc in
  match Pipeline.Session.explain p ~group:"g" q snap with
  | Error e -> Alcotest.fail (Secview.Error.to_string e)
  | Ok x ->
    Alcotest.(check int) "the pinned version" (Catalog.snapshot_version snap)
      x.x_doc_version;
    Alcotest.(check bool) "a write landed after the pin" true
      (Catalog.version entry <> x.x_doc_version);
    Alcotest.(check int) "the pinned version's result count"
      (List.length oracle) x.x_results;
    Alcotest.(check (option int)) "the pinned tree's height"
      (Some (Catalog.element_height pinned_doc))
      x.x_height;
    Alcotest.(check int) "one height walk, of the pinned tree" (walks + 1)
      (Catalog.height_walks catalog)

let test_indexed_answers () =
  let dtd = Workload.Adex.dtd in
  let catalog = Secview.Catalog.create () in
  let doc = Workload.Adex.document ~ads:10 ~buyers:5 () in
  let snap = Secview.Catalog.pin (Secview.Catalog.add catalog ~name:"d" doc) in
  let p =
    Pipeline.Session.create
      (Pipeline.Service.create ~catalog dtd ~groups:[ ("re", Workload.Adex.spec) ])
  in
  let q = Workload.Adex.q1 in
  let ids = List.map (fun (n : Sxml.Tree.t) -> n.id) in
  let translated = Pipeline.Session.translate p ~group:"re" q in
  let plain = ids (eval translated doc) in
  Alcotest.(check bool) "the query answers something" true (plain <> []);
  Alcotest.(check (list int)) "indexed = plain" plain
    (ids (eval ~index:(Secview.Catalog.snapshot_index snap) translated doc));
  match Pipeline.Session.answer_pinned p ~group:"re" q snap with
  | Ok o ->
    Alcotest.(check (list int)) "session = plain" plain (ids o.o_results)
  | Error e -> Alcotest.fail (Secview.Error.to_string e)

(* Schema tables fill on first use, one view node at a time: a query
   with no [//] fills nothing, one [//] at the root fills one entry, and
   an unfolded recursive view starts with a table of its own. *)
let test_recproc_fills_lazily () =
  let filled view = Secview.Memo.length (Secview.View.recproc view) in
  let view = Workload.Adex.view () in
  Alcotest.(check int) "empty before any rewrite" 0 (filled view);
  ignore (Secview.Rewrite.rewrite view (parse "body/ad-instance"));
  Alcotest.(check int) "no // step, no entry" 0 (filled view);
  let q = parse "//contact-info" in
  let first = Secview.Rewrite.rewrite view q in
  Alcotest.(check int) "one // at the root, one entry" 1 (filled view);
  Alcotest.(check bool) "same rewriting from the filled table" true
    (Sxpath.Ast.equal_path first (Secview.Rewrite.rewrite view q));
  let xview = Workload.Xmark.view () in
  let unfolded = Secview.View.unfolded xview ~height:6 in
  Alcotest.(check int) "unfolded view starts empty" 0 (filled unfolded);
  ignore (Secview.Rewrite.rewrite unfolded (parse "//name"));
  Alcotest.(check int) "only the root's entry" 1 (filled unfolded);
  Alcotest.(check int) "the recursive view's own table untouched" 0
    (filled xview)

(* Cold translations raced over one Service from two domains, through
   fresh sessions so nothing comes from a session cache: the shared
   tables fill concurrently and every answer must equal a
   single-domain run on a service of its own. *)
let test_cold_translations_race () =
  let adex =
    List.map snd Workload.Adex.queries
    @ List.map parse
        [
          "//contact-info/name";
          "//ad-instance//city | //buyer-info";
          "body//*//zip";
          "//house[.//city]//bedrooms";
          "//*";
        ]
  and hospital =
    List.map parse
      [ "//patient//bill"; "//patient/name"; "//dept//*"; "//treatment//medication" ]
  and xmark = List.map snd Workload.Xmark.queries @ [ parse "//name" ] in
  let cases =
    [
      (Workload.Adex.dtd, [ ("re", Workload.Adex.spec) ], "re", None, adex);
      ( Workload.Hospital.dtd,
        [ ("nurses", Workload.Hospital.nurse_spec Workload.Hospital.dtd) ],
        "nurses", None, hospital );
      (Workload.Xmark.dtd, [ ("buyers", Workload.Xmark.spec) ], "buyers", Some 8, xmark);
    ]
  in
  List.iter
    (fun (dtd, groups, group, height, qs) ->
      let translate_all svc qs =
        List.map
          (fun q ->
            Sxpath.Print.to_string
              (Pipeline.Session.translate (Pipeline.Session.create svc) ~group
                 ?height q))
          qs
      in
      let expected = translate_all (Pipeline.Service.create dtd ~groups) qs in
      for _ = 1 to 25 do
        let svc = Pipeline.Service.create dtd ~groups in
        let ready = Atomic.make 0 in
        let racer reversed () =
          Atomic.incr ready;
          while Atomic.get ready < 2 do
            Domain.cpu_relax ()
          done;
          if reversed then List.rev (translate_all svc (List.rev qs))
          else translate_all svc qs
        in
        let d1 = Domain.spawn (racer false) in
        let d2 = Domain.spawn (racer true) in
        Alcotest.(check (list string)) "domain 1" expected (Domain.join d1);
        Alcotest.(check (list string)) "domain 2" expected (Domain.join d2)
      done)
    cases

let () =
  Alcotest.run "pipeline"
    [
      ( "setup",
        [
          Alcotest.test_case "groups" `Quick test_groups;
          Alcotest.test_case "foreign specs rejected" `Quick
            test_rejects_foreign_spec;
        ] );
      ( "answering",
        [
          Alcotest.test_case "translation cache" `Quick
            test_translation_and_cache;
          Alcotest.test_case "matches manual pipeline" `Quick
            test_answers_match_manual_pipeline;
          Alcotest.test_case "recursive group" `Quick test_recursive_group;
          Alcotest.test_case "indexed answers" `Quick test_indexed_answers;
          Alcotest.test_case "pinned read across a write" `Quick
            test_pinned_read_across_write;
          Alcotest.test_case "pinned explain across a write" `Quick
            test_explain_pinned_across_write;
        ] );
      ( "schema tables",
        [
          Alcotest.test_case "recProc fills lazily" `Quick
            test_recproc_fills_lazily;
          Alcotest.test_case "cold translations raced on two domains" `Quick
            test_cold_translations_race;
        ] );
    ]
