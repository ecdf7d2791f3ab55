(* The compiled-plan executor (Splan) against the interpreter: the
   two engines must agree byte for byte on every query both can run.
   Hand-picked interval-join edge cases first, then a seeded
   differential fuzz over the workload documents. *)

module A = Sxpath.Ast

let parse = Sxpath.Parse.of_string

let interp ?env p doc =
  Sxpath.Eval.run (Sxpath.Eval.Ctx.make ?env ~root:doc ()) p

let render ns =
  String.concat "\n" (List.map (fun n -> Sxml.Print.to_string n) ns)

(* compile-or-fail, so edge-case tests prove the query is *inside*
   the plan fragment as well as correctly answered *)
let plan_run ?env ~index p doc =
  match Splan.Compile.compile p with
  | Error reason ->
    Alcotest.failf "planner refused %s: %s" (Sxpath.Print.to_string p) reason
  | Ok c -> Splan.Exec.run c ~index ?env doc

let check_same ?env ~index doc what p =
  Alcotest.(check string)
    (what ^ ": plan = interpreter")
    (render (interp ?env p doc))
    (render (plan_run ?env ~index p doc))

(* --- interval-join edge cases --------------------------------------- *)

let edge_doc () =
  let open Sxml.Tree in
  of_spec
    (elem "r"
       [
         elem "a" ~attrs:[ ("id", "1") ]
           [
             elem "b" [ text "b1" ];
             elem "c" [ elem "b" [ text "b2" ] ];
             elem "a" ~attrs:[ ("id", "2") ] [ elem "b" [ text "b3" ] ];
           ];
         elem "b" [ text "b4" ];
         elem "a" ~attrs:[ ("id", "3") ] [];
         elem "r" [ elem "b" [ text "b5" ] ];
       ])

let test_edge_cases () =
  let doc = edge_doc () in
  let index = Sxml.Index.build doc in
  List.iter
    (fun q -> check_same ~index doc q (parse q))
    [
      (* the root context: //r must range over strict descendants, so
         the context element itself never answers *)
      "//r";
      "//r/b";
      (* a tag absent from the document: empty per-tag id array *)
      "//zz";
      "zz";
      "//a/zz";
      (* nested descendant steps; the inner context set is a mix of
         nested and disjoint subtrees *)
      "//a//b";
      "//a//a";
      "//b//b";
      (* child steps from interleaved nested contexts must come back
         in document order, duplicate-free *)
      "//a/b";
      "//a/*";
      "(a | a/a)/b";
      "//b | a/b";
      ".";
      "a/.";
      (* attribute steps yield values, not nodes: mid-path they are
         dropped, top-level they make the answer empty *)
      "a/@id";
      "a/@id/b";
      (* qualifiers: existence, equality, attributes, negation *)
      "a[b]";
      "a[zz]";
      "a[.//b]";
      "a[@id = \"1\"]/b";
      "a[@id = \"9\"]/b";
      "a[b = \"b1\"]";
      "a[c/b = \"b2\"]";
      "a[b and not(zz)]";
      "a[b or zz]/a";
      "//a[a[b]]";
    ]

let test_variables () =
  let doc = edge_doc () in
  let index = Sxml.Index.build doc in
  let env name = if name = "x" then Some "b1" else None in
  check_same ~env ~index doc "bound variable" (parse "a[b = $x]/b");
  (* both engines raise on a variable the qualifier actually needs *)
  let p = parse "a[b = $zz]" in
  let raises f =
    match f () with
    | exception Sxpath.Eval.Unbound_variable "zz" -> true
    | _ -> false
  in
  Alcotest.(check bool) "interpreter raises" true
    (raises (fun () -> interp ~env p doc));
  Alcotest.(check bool) "plan raises" true
    (raises (fun () -> plan_run ~env ~index p doc))

let test_refusals () =
  List.iter
    (fun q ->
      match Splan.Compile.compile (parse q) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s should be outside the plan fragment" q)
    [ "//*"; "//."; "//(a | b)"; "//@id"; "a//*" ];
  List.iter
    (fun q ->
      match Splan.Compile.compile (parse q) with
      | Ok _ -> ()
      | Error reason -> Alcotest.failf "%s refused: %s" q reason)
    [ "//a"; "//a[b = $x]/c"; "a/*"; "(a | b)/c"; "//a//b" ]

(* --- seeded differential fuzz --------------------------------------- *)

(* labels and attribute names actually occurring in [doc], so random
   queries hit non-empty answers often enough to be interesting *)
let vocabulary doc =
  let tags = Hashtbl.create 16 and attrs = Hashtbl.create 16 in
  Sxml.Tree.iter
    (fun n ->
      match n.Sxml.Tree.desc with
      | Sxml.Tree.Element e ->
        Hashtbl.replace tags e.Sxml.Tree.tag ();
        List.iter (fun (a, _) -> Hashtbl.replace attrs a ()) e.Sxml.Tree.attrs
      | Sxml.Tree.Text _ -> ())
    doc;
  let keys h = Hashtbl.fold (fun k () acc -> k :: acc) h [] in
  (Array.of_list (List.sort compare (keys tags) @ [ "zz" ]),
   Array.of_list (List.sort compare (keys attrs) @ [ "zz" ]))

let pick st arr = arr.(Random.State.int st (Array.length arr))

let rec gen_path st ~tags ~attrs depth =
  let leaf () =
    match Random.State.int st 8 with
    | 0 -> A.Eps
    | 1 -> A.Wildcard
    | 2 -> A.Attribute (pick st attrs)
    | _ -> A.Label (pick st tags)
  in
  if depth = 0 then leaf ()
  else
    match Random.State.int st 10 with
    | 0 | 1 | 2 ->
      A.Slash
        (gen_path st ~tags ~attrs (depth - 1),
         gen_path st ~tags ~attrs (depth - 1))
    (* keep descendant heads labeled so the planner accepts most
       generated queries; refusals are still exercised via Wildcard
       and Eps leaves reached below a Dslash *)
    | 3 | 4 ->
      A.Dslash
        (A.Slash (A.Label (pick st tags), gen_path st ~tags ~attrs (depth - 1)))
    | 5 -> A.Dslash (A.Label (pick st tags))
    | 6 ->
      A.Union
        (gen_path st ~tags ~attrs (depth - 1),
         gen_path st ~tags ~attrs (depth - 1))
    | 7 | 8 ->
      A.Qualify
        (gen_path st ~tags ~attrs (depth - 1), gen_qual st ~tags ~attrs 1)
    | _ -> leaf ()

and gen_qual st ~tags ~attrs depth =
  if depth = 0 then A.Exists (gen_path st ~tags ~attrs 1)
  else
    match Random.State.int st 8 with
    | 0 ->
      A.Eq
        (gen_path st ~tags ~attrs 1,
         (* every generated variable is bound by the fuzz env: plan
            probes short-circuit, so an unbound variable would be an
            allowed (but flaky) divergence — see Splan.Exec *)
         if Random.State.bool st then A.Var (pick st [| "x"; "y" |])
         else A.Const (pick st [| "b1"; "25000"; "" |]))
    | 1 ->
      A.And (gen_qual st ~tags ~attrs (depth - 1), gen_qual st ~tags ~attrs 0)
    | 2 ->
      A.Or (gen_qual st ~tags ~attrs (depth - 1), gen_qual st ~tags ~attrs 0)
    | 3 -> A.Not (gen_qual st ~tags ~attrs (depth - 1))
    | _ -> A.Exists (gen_path st ~tags ~attrs 1)

let fuzz_doc_cases =
  [
    ("edge", fun () -> edge_doc ());
    ("hospital", Workload.Hospital.sample_document);
    ("adex", fun () -> Workload.Adex.document ~seed:11 ~ads:8 ~buyers:4 ());
    ("xmark", fun () -> Workload.Xmark.document ~seed:5 ~scale:4 ());
  ]

let test_fuzz () =
  let env name =
    match name with "x" -> Some "b1" | "y" -> Some "25000" | _ -> None
  in
  let st = Random.State.make [| 0x5ec71e4 |] in
  List.iter
    (fun (dname, make_doc) ->
      let doc = make_doc () in
      let index = Sxml.Index.build doc in
      let tags, attrs = vocabulary doc in
      let compiled = ref 0 and refused = ref 0 in
      for _ = 1 to 400 do
        let p = gen_path st ~tags ~attrs 3 in
        match Splan.Compile.compile p with
        | Error _ -> incr refused
        | Ok c ->
          incr compiled;
          let got = render (Splan.Exec.run c ~index ~env doc) in
          let want = render (interp ~env p doc) in
          if not (String.equal got want) then
            Alcotest.failf "%s: engines disagree on %s" dname
              (Sxpath.Print.to_string p)
      done;
      (* the generator must actually exercise the plan path *)
      Alcotest.(check bool)
        (dname ^ ": most generated queries compile")
        true
        (!compiled > 3 * !refused) )
    fuzz_doc_cases

(* --- through the pipeline ------------------------------------------- *)

let test_pipeline_engines_agree () =
  let dtd = Workload.Adex.dtd in
  let pipe =
    Secview.Pipeline.Session.create
      (Secview.Pipeline.Service.create dtd ~groups:[ ("re", Workload.Adex.spec) ])
  in
  (* one generated document, then Table 1's D1-D4 series *)
  let docs =
    ("seed 7", Workload.Adex.document ~seed:7 ~ads:10 ~buyers:5 ())
    :: List.map
         (fun ds -> (ds.Workload.Datasets.name, Workload.Datasets.load ds))
         (Workload.Datasets.series ~scale:2 ())
  in
  List.iter
    (fun (dname, doc) ->
      List.iter
        (fun (name, q) ->
          (* the interpreter over the same translation is the oracle *)
          let a =
            render
              (interp
                 (Secview.Pipeline.Session.translate pipe ~group:"re" q)
                 doc)
          in
          let b =
            render (Secview.Pipeline.Session.answer_exn pipe ~group:"re" q doc)
          in
          Alcotest.(check string)
            (Printf.sprintf "%s/%s: engines agree" name dname)
            a b)
        Workload.Adex.queries)
    docs;
  let s : Secview.Pipeline.stats =
    Secview.Pipeline.Session.stats_of pipe ~group:"re"
  in
  (* only the answers consult the plan cache *)
  Alcotest.(check int) "one plan lookup per answer"
    (List.length Workload.Adex.queries * List.length docs)
    (s.plan_hits + s.plan_misses);
  Alcotest.(check int) "every translation planned once"
    (s.plan_compiles + s.plan_fallbacks)
    s.plan_misses

let test_pipeline_fallback_transparent () =
  (* the rewriter only emits label-headed paths, so every translated
     query is inside the plan fragment: compile refusals (SV301) can
     hit ad-hoc Splan users but never the pipeline.  The fallback
     that IS reachable through the pipeline is a context node that is
     not an indexed document root — it runs the interpreter and must
     leave the plan cache untouched. *)
  let dtd = Workload.Hospital.dtd in
  let pipe =
    Secview.Pipeline.Session.create
      (Secview.Pipeline.Service.create dtd
         ~groups:[ ("all", Secview.Spec.make dtd []) ])
  in
  let doc = Workload.Hospital.sample_document () in
  List.iter
    (fun q ->
      ignore (Secview.Pipeline.Session.answer_exn pipe ~group:"all" (parse q) doc))
    [ "//*"; "//."; "//bill"; "//*[bill]"; "dept[.//bill]" ];
  let s : Secview.Pipeline.stats =
    Secview.Pipeline.Session.stats_of pipe ~group:"all"
  in
  let open Secview.Pipeline in
  Alcotest.(check int) "rewritten queries never refused" 0 s.plan_fallbacks;
  Alcotest.(check int) "every miss compiled" s.plan_misses s.plan_compiles;
  let lookups = s.plan_hits + s.plan_misses in
  (* a non-root context: the session answers via the interpreter
     (translated queries are root-relative, so the answer happens to
     be empty here — what matters is that it agrees with the direct
     interpretation and never consults the plan cache) *)
  let sub = List.hd (interp (parse "dept") doc) in
  let q = parse "dept/patientInfo/patient" in
  let direct = render (interp (Session.translate pipe ~group:"all" q) sub) in
  let a = render (Session.answer_exn pipe ~group:"all" q sub) in
  Alcotest.(check string) "non-root answer = direct interpretation" direct a;
  let s' : stats = Session.stats_of pipe ~group:"all" in
  Alcotest.(check int) "plan cache not consulted for non-root contexts"
    lookups
    (s'.plan_hits + s'.plan_misses)

let () =
  Alcotest.run "plan"
    [
      ( "compile",
        [ Alcotest.test_case "fragment boundary" `Quick test_refusals ] );
      ( "exec",
        [
          Alcotest.test_case "interval-join edge cases" `Quick
            test_edge_cases;
          Alcotest.test_case "variables" `Quick test_variables;
          Alcotest.test_case "differential fuzz" `Quick test_fuzz;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "engines agree" `Quick
            test_pipeline_engines_agree;
          Alcotest.test_case "fallback transparent" `Quick
            test_pipeline_fallback_transparent;
        ] );
    ]
