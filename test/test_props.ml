(* End-to-end randomized properties over random DTDs, access
   specifications, documents and queries:

   - derived views are sound and complete w.r.t. node accessibility
     (Theorem 3.2's characterization, checked against the
     materialization semantics);
   - query rewriting is equivalent to querying the materialized view
     (Theorem 4.1, in the precise mode);
   - DTD-aware optimization preserves query answers;
   - the approximate containment test is sound on instances
     (Proposition 5.1);

   and, for the served reply codec, that the JSON decoder agrees with
   its oracle, that floats round-trip, and that the one-pass reply line
   equals the line built from the reference renderer. *)

module A = Sxpath.Ast
module R = Sdtd.Regex
module Spec = Secview.Spec
module View = Secview.View
module Derive = Secview.Derive
module Rewrite = Secview.Rewrite
module Optimize = Secview.Optimize
module Simulate = Secview.Simulate
module Materialize = Secview.Materialize
module Access = Secview.Access

let eval = Ctx_eval.eval

let type_name i = Printf.sprintf "t%d" i

(* Random normal-form DTDs, generated as DAGs (type i only references
   types > i) with PCDATA leaves, so they are always consistent. *)
let gen_dtd : Sdtd.Dtd.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 4 9 in
  let production i =
    if i >= n - 1 then return R.Str
    else
      let deeper = int_range (i + 1) (n - 1) in
      let child = map (fun j -> R.Elt (type_name j)) deeper in
      oneof
        [
          return R.Str;
          map R.star child;
          (let* k = int_range 1 3 in
           let* cs = list_repeat k child in
           return (R.seq cs));
          (let* k = int_range 2 3 in
           let* cs = list_repeat k child in
           match R.choice cs with
           | R.Choice _ as c -> return c
           | single -> return single);
        ]
  in
  let* prods =
    flatten_l (List.init n (fun i -> map (fun p -> (type_name i, p)) (production i)))
  in
  return (Sdtd.Dtd.restrict_reachable (Sdtd.Dtd.create ~root:"t0" prods))

(* Random access annotations over a DTD's edges; [vars] adds
   qualifiers comparing with the variable [$v]. *)
let gen_annotations ?(vars = false) dtd =
  let open QCheck2.Gen in
  let edges =
    List.concat_map
      (fun a -> List.map (fun b -> (a, b)) (Sdtd.Dtd.children_of dtd a))
      (Sdtd.Dtd.reachable dtd)
  in
  let annot (a, _b) =
    let qual =
      let labels = Sdtd.Dtd.children_of dtd a in
      let candidates = if labels = [] then [ "zz" ] else labels in
      oneof
        ([
           map (fun l -> Spec.Cond (A.Exists (A.Label l))) (oneofl candidates);
           map
             (fun l -> Spec.Cond (A.Eq (A.Label l, A.Const "alpha")))
             (oneofl candidates);
         ]
        @
        if vars then
          [
            map
              (fun l -> Spec.Cond (A.Eq (A.Label l, A.Var "v")))
              (oneofl candidates);
          ]
        else [])
    in
    oneof [ return Spec.Yes; return Spec.No; return Spec.No; qual ]
  in
  let* chosen =
    flatten_l
      (List.filter_map
         (fun edge ->
           Some
             (let* keep = bool in
              if keep then map (fun an -> Some (edge, an)) (annot edge)
              else return None))
         edges)
  in
  return (List.filter_map Fun.id chosen)

(* Random access specification over a DTD's edges. *)
let gen_spec dtd : Spec.t QCheck2.Gen.t =
  QCheck2.Gen.map (Spec.make dtd) (gen_annotations dtd)

let gen_doc dtd : Sxml.Tree.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* seed = int_bound 10_000 in
  return
    (Sdtd.Gen.generate
       ~config:
         {
           Sdtd.Gen.default_config with
           seed;
           star_min = 0;
           star_max = 2;
           depth_budget = 8;
         }
       dtd)

(* Random fragment-C query over a label vocabulary.  Bounded size:
   rewriting distributes over union targets, so huge random queries
   make the equivalence check itself the bottleneck without testing
   anything new. *)
let gen_query labels : A.path QCheck2.Gen.t =
  let open QCheck2.Gen in
  let label = oneofl labels in
  (int_range 1 10 >>= fun size -> return size) >>= fix (fun self size ->
      if size <= 1 then
        oneof
          [ map (fun l -> A.Label l) label; return A.Eps; return A.Wildcard ]
      else
        oneof
          [
            map (fun l -> A.Label l) label;
            return A.Wildcard;
            map2 (fun a b -> A.Slash (a, b)) (self (size / 2)) (self (size / 2));
            map (fun a -> A.Dslash a) (self (size - 1));
            map2 (fun a b -> A.Union (a, b)) (self (size / 2)) (self (size / 2));
            map2
              (fun a q -> A.Qualify (a, q))
              (self (size / 2))
              (oneof
                 [
                   map (fun p -> A.Exists p) (self (size / 2));
                   map (fun p -> A.Not (A.Exists p)) (self (size / 2));
                   map (fun p -> A.Eq (p, A.Const "alpha")) (self (size / 2));
                 ]);
          ])

let ids nodes = List.map (fun (n : Sxml.Tree.t) -> n.Sxml.Tree.id) nodes

(* ------------------------------------------------------------------ *)

let gen_scenario =
  let open QCheck2.Gen in
  let* dtd = gen_dtd in
  let* spec = gen_spec dtd in
  let* doc = gen_doc dtd in
  return (dtd, spec, doc)

let print_scenario (dtd, spec, _doc) =
  Format.asprintf "DTD:@.%a@.Spec:@.%a@." Sdtd.Dtd.pp dtd Spec.pp spec

let prop_derive_sound_complete =
  QCheck2.Test.make ~name:"derive: sound and complete views" ~count:150
    ~print:print_scenario gen_scenario (fun (_dtd, spec, doc) ->
      let view = Derive.derive spec in
      match Materialize.materialize ~spec ~view doc with
      | exception Materialize.Abort _ ->
        (* Theorem 3.2: derive yields a sound and complete view iff one
           exists; aborting runs are outside that guarantee. *)
        QCheck2.assume_fail ()
      | vt ->
        let tree = Materialize.to_tree vt in
        let conforms = Sdtd.Validate.conforms (View.dtd view) tree in
        let accessible = Access.accessible_set spec doc in
        let sources = Materialize.element_sources vt in
        let non_dummy =
          List.filter_map
            (fun (l, id) -> if View.is_dummy view l then None else Some id)
            sources
          |> List.sort_uniq compare
        in
        let expected =
          List.filter_map
            (fun (n : Sxml.Tree.t) ->
              if Sxml.Tree.is_element n && Access.IntSet.mem n.id accessible
              then Some n.id
              else None)
            (Sxml.Tree.descendants_or_self doc)
        in
        conforms && non_dummy = expected)

let gen_scenario_with_query =
  let open QCheck2.Gen in
  let* dtd, spec, doc = gen_scenario in
  let view = Derive.derive spec in
  let labels = Sdtd.Dtd.reachable (View.dtd view) in
  let labels = List.map Sdtd.Unfold.label_of labels in
  let* q = gen_query (List.sort_uniq compare labels) in
  return (dtd, spec, doc, q)

let print_scenario_q (dtd, spec, _doc, q) =
  print_scenario (dtd, spec, _doc)
  ^ "Query: " ^ Sxpath.Print.to_string q

let prop_rewrite_equivalent =
  QCheck2.Test.make ~name:"rewrite: p(T_v) = p_t(T)" ~count:300
    ~print:print_scenario_q gen_scenario_with_query
    (fun (_dtd, spec, doc, q) ->
      let view = Derive.derive spec in
      match Materialize.materialize ~spec ~view doc with
      | exception Materialize.Abort _ -> QCheck2.assume_fail ()
      | vt ->
        let height = Secview.Catalog.element_height doc in
        let pt = Rewrite.rewrite_with_height view ~height q in
        let direct = ids (eval pt doc) in
        let tree, source_of = Materialize.to_tree_with_sources vt in
        let via_view =
          List.filter_map
            (fun (n : Sxml.Tree.t) -> source_of n.id)
            (eval q tree)
          |> List.sort_uniq compare
        in
        direct = via_view)

let gen_doc_query =
  let open QCheck2.Gen in
  let* dtd = gen_dtd in
  let* doc = gen_doc dtd in
  let* q = gen_query (Sdtd.Dtd.reachable dtd) in
  return (dtd, doc, q)

let print_doc_query (dtd, _doc, q) =
  Format.asprintf "DTD:@.%a@.Query: %a" Sdtd.Dtd.pp dtd Sxpath.Print.pp q

let prop_optimize_equivalent =
  QCheck2.Test.make ~name:"optimize preserves answers" ~count:300
    ~print:print_doc_query gen_doc_query (fun (dtd, doc, q) ->
      let po = Optimize.optimize dtd q in
      ids (eval q doc) = ids (eval po doc))

let gen_containment =
  let open QCheck2.Gen in
  let* dtd = gen_dtd in
  let* doc = gen_doc dtd in
  let labels = Sdtd.Dtd.reachable dtd in
  let* q1 = gen_query labels in
  let* q2 = gen_query labels in
  return (dtd, doc, q1, q2)

let prop_containment_sound =
  QCheck2.Test.make ~name:"simulation containment is sound" ~count:300
    ~print:(fun (dtd, _doc, q1, q2) ->
      Format.asprintf "DTD:@.%a@.p1 = %a@.p2 = %a" Sdtd.Dtd.pp dtd
        Sxpath.Print.pp q1 Sxpath.Print.pp q2)
    gen_containment
    (fun (dtd, doc, q1, q2) ->
      QCheck2.assume (Simulate.contained dtd q1 q2 (Sdtd.Dtd.root dtd));
      let s1 = ids (eval q1 doc) in
      let s2 = ids (eval q2 doc) in
      List.for_all (fun x -> List.mem x s2) s1)

let prop_rewrite_output_is_secure =
  (* Every node a rewritten query returns is either accessible or the
     source of a dummy element of the view — dummies are part of what
     the view exposes (with their labels hidden), so wildcard and
     dummy-label steps legitimately reach their hidden source nodes. *)
  QCheck2.Test.make
    ~name:"rewritten queries return only view-exposed nodes" ~count:300
    ~print:print_scenario_q gen_scenario_with_query
    (fun (_dtd, spec, doc, q) ->
      let view = Derive.derive spec in
      match Materialize.materialize ~spec ~view doc with
      | exception Materialize.Abort _ -> QCheck2.assume_fail ()
      | vt ->
        let height = Secview.Catalog.element_height doc in
        let pt = Rewrite.rewrite_with_height view ~height q in
        let accessible = Access.accessible_set spec doc in
        let dummy_sources =
          List.filter_map
            (fun (l, id) -> if View.is_dummy view l then Some id else None)
            (Materialize.element_sources vt)
        in
        List.for_all
          (fun (n : Sxml.Tree.t) ->
            Access.IntSet.mem n.id accessible
            || List.mem n.id dummy_sources)
          (eval pt doc))

let prop_view_definition_roundtrip =
  QCheck2.Test.make ~name:"view definitions roundtrip through text"
    ~count:150 ~print:print_scenario gen_scenario (fun (_dtd, spec, _doc) ->
      let view = Derive.derive spec in
      let reloaded = View.of_definition (View.to_definition view) in
      Sdtd.Dtd.equal (View.dtd view) (View.dtd reloaded)
      && List.sort compare (View.dummies view)
         = List.sort compare (View.dummies reloaded)
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 Sxpath.Simplify.equivalent_syntax
                   (View.sigma_exn view ~parent:a ~child:b)
                   (View.sigma_exn reloaded ~parent:a ~child:b))
               (Sdtd.Dtd.children_of (View.dtd view) a))
           (Sdtd.Dtd.reachable (View.dtd view)))

let prop_audit_hidden_matches_view =
  QCheck2.Test.make
    ~name:"audit-hidden types are absent from the derived view DTD"
    ~count:150 ~print:print_scenario gen_scenario (fun (_dtd, spec, _doc) ->
      let view = Derive.derive spec in
      let view_dtd = View.dtd view in
      List.for_all
        (fun t -> not (Sdtd.Dtd.mem view_dtd t))
        (Secview.Audit.hidden_types spec))

let prop_indexed_rewrite_equivalent =
  QCheck2.Test.make
    ~name:"indexed evaluation agrees on rewritten queries" ~count:150
    ~print:print_scenario_q gen_scenario_with_query
    (fun (_dtd, spec, doc, q) ->
      let view = Derive.derive spec in
      let height = Secview.Catalog.element_height doc in
      let pt = Rewrite.rewrite_with_height view ~height q in
      let idx = Sxml.Index.build doc in
      ids (eval pt doc) = ids (eval ~index:idx pt doc))

(* ------------------------------------------------------------------ *)
(* Schema facts and tables computed once, checked against recomputation *)

(* The DTD graph facts recomputed from [production] and [Regex.labels]
   alone: the oracle for the facts a DTD value carries. *)
let ref_children d a =
  match Sdtd.Dtd.production_opt d a with None -> [] | Some rg -> R.labels rg

let ref_reachable d =
  let rec bfs out seen = function
    | [] -> List.rev out
    | a :: queue ->
      let next =
        List.filter (fun c -> not (List.mem c seen)) (ref_children d a)
      in
      bfs (a :: out) (seen @ next) (queue @ next)
  in
  let r = Sdtd.Dtd.root d in
  bfs [] [ r ] [ r ]

let ref_reaches d src dst =
  let rec go seen = function
    | [] -> false
    | a :: rest ->
      String.equal a dst
      || if List.mem a seen then go seen rest
         else go (a :: seen) (ref_children d a @ rest)
  in
  go [] [ src ]

let ref_recursive d =
  List.filter
    (fun a -> List.exists (fun c -> ref_reaches d c a) (ref_children d a))
    (ref_reachable d)

let ref_topo d =
  if ref_recursive d <> [] then None
  else
    let rec go (seen, out) a =
      if List.mem a seen then (seen, out)
      else
        let seen, out = List.fold_left go (a :: seen, out) (ref_children d a) in
        (seen, a :: out)
    in
    Some (snd (go ([], []) (Sdtd.Dtd.root d)))

(* A random DTD and what the constructors make of it: productions
   replaced (closing cycles, naming an undeclared type), the reachable
   restriction, an attribute list, an unfolding, and a derived view's
   DTD. *)
let gen_dtd_family =
  let open QCheck2.Gen in
  let* dtd = gen_dtd in
  let* spec = gen_spec dtd in
  let types = Sdtd.Dtd.element_types dtd in
  let* edits =
    list_size (int_range 1 3)
      (triple (oneofl types) (oneofl ("fresh" :: types)) (oneofl types))
  in
  let* height = int_range 1 8 in
  return (dtd, spec, edits, height)

let dtd_family (dtd, spec, edits, height) =
  let edited =
    List.fold_left
      (fun d (a, b, c) ->
        Sdtd.Dtd.with_production d a
          (R.Choice [ R.Str; R.Seq [ R.Elt b; R.Star (R.Elt c) ] ]))
      dtd edits
  in
  let restricted = Sdtd.Dtd.restrict_reachable edited in
  let attributed =
    Sdtd.Dtd.with_attributes restricted (Sdtd.Dtd.root restricted) [ "id" ]
  in
  (* unfolding needs every reachable type declared, which only
     [with_production] can break *)
  let unfolded =
    if not (List.for_all (Sdtd.Dtd.mem restricted) (Sdtd.Dtd.reachable restricted))
    then []
    else
      match Sdtd.Unfold.unfold restricted ~height with
      | d -> [ d ]
      | exception Invalid_argument _ -> []
  in
  [ dtd; edited; restricted; attributed; View.dtd (Derive.derive spec) ]
  @ unfolded

let prop_dtd_facts_match_reference =
  QCheck2.Test.make ~name:"DTD graph facts equal a recomputation"
    ~count:300
    ~print:(fun family ->
      String.concat "\n----\n" (List.map Sdtd.Dtd.to_string (dtd_family family)))
    gen_dtd_family
    (fun family ->
      List.for_all
        (fun d ->
          List.for_all
            (fun a -> Sdtd.Dtd.children_of d a = ref_children d a)
            (Sdtd.Dtd.element_types d @ [ "fresh"; "nowhere" ])
          && Sdtd.Dtd.reachable d = ref_reachable d
          && Sdtd.Dtd.recursive_types d = ref_recursive d
          && Sdtd.Dtd.is_recursive d = (ref_recursive d <> [])
          && Sdtd.Dtd.topological_order d = ref_topo d)
        (dtd_family family))

(* Schema tables (the views' recProc entries, the optimizer's identity
   view among them) fill as queries need them, in whatever order
   queries arrive; a translation must not depend on what an earlier one
   filled. *)
let gen_translation_batch =
  let open QCheck2.Gen in
  let* dtd = gen_dtd in
  let* spec = gen_spec dtd in
  let* qs = list_size (int_range 2 8) (gen_query (Sdtd.Dtd.reachable dtd)) in
  let* order = shuffle_l (List.init (List.length qs) Fun.id) in
  return (dtd, spec, qs, order)

let prop_translation_memo_independent =
  let module P = Secview.Pipeline in
  QCheck2.Test.make
    ~name:"warm-service translations equal fresh-service ones" ~count:150
    ~print:(fun (dtd, spec, qs, order) ->
      Format.asprintf "DTD:@.%a@.Spec:@.%a@.Queries:@." Sdtd.Dtd.pp dtd
        Spec.pp spec
      ^ String.concat "\n"
          (List.map (fun i -> Sxpath.Print.to_string (List.nth qs i)) order))
    gen_translation_batch
    (fun (dtd, spec, qs, order) ->
      let service () = P.Service.create dtd ~groups:[ ("g", spec) ] in
      let translate svc q =
        Sxpath.Print.to_string
          (P.Session.translate (P.Session.create svc) ~group:"g" q)
      in
      let warm = service () in
      List.for_all
        (fun i ->
          let q = List.nth qs i in
          translate warm q = translate (service ()) q)
        order)

(* Admission classifies against the optimizer context the service
   prepares once per group's view DTD; whatever earlier queries filled
   in a context, a verdict must be the one a fresh context gives. *)
let prop_admission_prepared =
  let module S = Sanalysis.Semantic in
  QCheck2.Test.make
    ~name:"prepared-context admission verdicts equal one-shot ones"
    ~count:150
    ~print:(fun (dtd, spec, qs, order) ->
      Format.asprintf "DTD:@.%a@.Spec:@.%a@.Queries:@." Sdtd.Dtd.pp dtd
        Spec.pp spec
      ^ String.concat "\n"
          (List.map (fun i -> Sxpath.Print.to_string (List.nth qs i)) order))
    gen_translation_batch
    (fun (dtd, spec, qs, order) ->
      List.for_all
        (fun d ->
          let prep = Optimize.prepare d in
          List.for_all
            (fun i ->
              let q = List.nth qs i in
              Secview.Admission.classify prep q = S.admission d q)
            order)
        [ dtd; View.dtd (Derive.derive spec) ])

(* ------------------------------------------------------------------ *)
(* The streamed view text a write receipt digests, against the
   materialization oracle *)

let materialized_text ~env ~spec ~view doc =
  match Materialize.materialize ~env ~spec ~view doc with
  | vt -> Sxml.Print.to_string (Materialize.to_tree vt)
  | exception Materialize.Abort _ -> ""

(* Either the text or the variable whose absence stopped the walk. *)
let view_text_outcome f =
  match f () with
  | text -> Ok text
  | exception Sxpath.Eval.Unbound_variable v -> Error v

(* The child list of the [k]-th element in preorder doubled (even [k])
   or cut to its tail (odd [k]): mostly a document whose extraction a
   view production rejects. *)
let perturb k doc =
  let n = ref 0 in
  let rec go = function
    | Sxml.Tree.T _ as t -> t
    | Sxml.Tree.E (tag, attrs, children) ->
      let here = !n = k in
      incr n;
      let children = List.map go children in
      let children =
        if not here then children
        else if k mod 2 = 0 then children @ children
        else match children with [] -> [] | _ :: rest -> rest
      in
      Sxml.Tree.E (tag, attrs, children)
  in
  Sxml.Tree.of_spec (go (Sxml.Tree.to_spec doc))

(* Attribute values that need escaping, and some that do not. *)
let attr_values = [| "x"; "alpha"; "a<b&\"c'd>" |]

let gen_view_text_case =
  let open QCheck2.Gen in
  let random =
    let* dtd = gen_dtd in
    let* decls =
      flatten_l
        (List.map
           (fun t -> map (fun n -> (t, n)) (int_bound 2))
           (Sdtd.Dtd.element_types dtd))
    in
    let dtd =
      List.fold_left
        (fun d (t, n) ->
          if n = 0 then d
          else Sdtd.Dtd.with_attributes d t (List.filteri (fun i _ -> i < n) [ "id"; "k" ]))
        dtd decls
    in
    let* elements = gen_annotations ~vars:true dtd in
    let* attributes =
      flatten_l
        (List.concat_map
           (fun t ->
             List.map
               (fun a ->
                 map
                   (fun c -> Option.map (fun an -> ((t, "@" ^ a), an)) c)
                   (oneofl [ None; Some Spec.Yes; Some Spec.No ]))
               (Sdtd.Dtd.attributes dtd t))
           (Sdtd.Dtd.reachable dtd))
    in
    let* texts =
      flatten_l
        (List.filter_map
           (fun t ->
             match Sdtd.Dtd.production_opt dtd t with
             | Some r when R.mentions_str r ->
               Some
                 (map
                    (fun c -> Option.map (fun an -> ((t, R.pcdata), an)) c)
                    (oneofl [ None; None; Some Spec.No ]))
             | _ -> None)
           (Sdtd.Dtd.reachable dtd))
    in
    let* seed = int_bound 10_000 in
    let doc =
      Sdtd.Gen.generate
        ~config:
          {
            Sdtd.Gen.default_config with
            seed;
            star_min = 0;
            star_max = 2;
            depth_budget = 8;
            attr_for =
              (fun _ _ rng ->
                if Random.State.bool rng then
                  Some attr_values.(Random.State.int rng (Array.length attr_values))
                else None);
          }
        dtd
    in
    let* cut = int_bound 3 in
    let* k = int_bound 12 in
    let doc = if cut = 0 then perturb k doc else doc in
    return
      ( Spec.make dtd
          (elements @ List.filter_map Fun.id (attributes @ texts)),
        doc )
  in
  let fig7 =
    let* depth = int_range 0 4 in
    let* cut = int_bound 3 in
    let* k = int_bound 8 in
    let doc = Workload.Fig7.document ~depth in
    return (Workload.Fig7.spec, if cut = 0 then perturb k doc else doc)
  in
  let* spec, doc = frequency [ (4, random); (1, fig7) ] in
  let* bound = frequency [ (3, return true); (1, return false) ] in
  return (spec, doc, if bound then [ ("v", "alpha") ] else [])

let print_view_text_case (spec, doc, env) =
  Format.asprintf "Spec:@.%a@.Doc: %s@.Env: %s@." Spec.pp spec
    (Sxml.Print.to_string doc)
    (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) env))

let prop_view_text_materialized =
  QCheck2.Test.make
    ~name:"streamed view text = the materialized view's, digest its MD5"
    ~count:500 ~print:print_view_text_case gen_view_text_case
    (fun (spec, doc, env) ->
      let env name = List.assoc_opt name env in
      let view = Derive.derive spec in
      let index = Sxml.Index.build doc in
      let want =
        view_text_outcome (fun () -> materialized_text ~env ~spec ~view doc)
      in
      let streamed =
        view_text_outcome (fun () ->
            Secview.View_text.to_string ~env ~spec ~view index)
      in
      let carried =
        view_text_outcome (fun () ->
            Secview.View_text.to_string ~env
              ~accessible:(Access.accessible_flags ~env spec doc)
              ~spec ~view index)
      in
      let digest =
        view_text_outcome (fun () ->
            Secview.View_text.digest ~env ~spec ~view index)
      in
      want = streamed && want = carried
      && digest = Result.map (fun t -> Digest.to_hex (Digest.string t)) want)

(* The attributes each element shows, read off the definition along
   its root path: an explicit grant needs every qualifier on the path
   to hold, an unannotated attribute the element's accessibility.  The
   oracle of the qualifier bit the accessibility flags carry. *)
let reference_attributes ~env spec doc =
  let accessible = Access.accessible_set ~env spec doc in
  let ctx = Sxpath.Eval.Ctx.make ~env ~root:doc () in
  let rec walk quals parent (n : Sxml.Tree.t) =
    match n.desc with
    | Sxml.Tree.Text _ -> []
    | Sxml.Tree.Element e ->
      let quals =
        quals
        &&
        match
          Option.bind parent (fun p ->
              Spec.annotation spec ~parent:p ~child:e.tag)
        with
        | Some (Spec.Cond q) -> Sxpath.Eval.check ctx q n
        | _ -> true
      in
      List.filter
        (fun (a, _) ->
          List.mem a (Sdtd.Dtd.attributes (Spec.dtd spec) e.tag)
          &&
          match Spec.annotation spec ~parent:e.tag ~child:("@" ^ a) with
          | Some Spec.Yes -> quals
          | Some _ -> false
          | None -> Access.IntSet.mem n.id accessible)
        e.attrs
      :: List.concat_map (walk quals (Some e.tag)) e.children
  in
  walk true None doc

let prop_attributes_reference =
  QCheck2.Test.make ~name:"shown attributes = their root-path definition"
    ~count:300 ~print:print_view_text_case gen_view_text_case
    (fun (spec, doc, env) ->
      let env name = List.assoc_opt name env in
      let shown () =
        let accessible = Access.accessible_flags ~env spec doc in
        let rec walk (n : Sxml.Tree.t) =
          match n.desc with
          | Sxml.Tree.Text _ -> []
          | Sxml.Tree.Element e ->
            Access.accessible_attributes ~env ~accessible spec doc n
            :: List.concat_map walk e.children
        in
        walk doc
      in
      view_text_outcome shown
      = view_text_outcome (fun () -> reference_attributes ~env spec doc))

(* The property's two ends, pinned: Fig. 7's recursive view renders,
   and a document whose extraction violates a view production (a
   patient without its name) digests the empty text. *)
let test_view_text_cases () =
  let check name ~spec doc =
    let view = Derive.derive spec in
    let env = Workload.Hospital.nurse_env "6" in
    let want = materialized_text ~env ~spec ~view doc in
    Alcotest.(check string) name want
      (Secview.View_text.to_string ~env ~spec ~view (Sxml.Index.build doc));
    want
  in
  let fig7 = check "Fig. 7" ~spec:Workload.Fig7.spec (Workload.Fig7.document ~depth:3) in
  Alcotest.(check bool) "Fig. 7 renders" true (fig7 <> "");
  let nameless =
    Sxml.Tree.of_spec
      Sxml.Tree.(
        elem "hospital"
          [
            elem "dept"
              [
                elem "clinicalTrial" [];
                elem "patientInfo"
                  [
                    elem "patient"
                      [
                        elem "wardNo" [ text "6" ];
                        elem "treatment"
                          [ elem "regular" [ elem "bill" [ text "1" ] ] ];
                      ];
                  ];
                elem "staffInfo" [];
              ];
          ])
  in
  Alcotest.(check string) "non-conforming extraction" ""
    (check "nameless patient" ~spec:(Workload.Hospital.nurse_spec Workload.Hospital.dtd) nameless)

(* ---- the reply codec ------------------------------------------------ *)

module J = Sobs.Json
module Protocol = Sserver.Protocol

(* A piece of string content: its bytes, and one way of writing them
   inside a JSON string literal — raw, a short escape, or [\u] in
   either case, astral code points as surrogate pairs. *)
let gen_piece : (string * string) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let hex upper v = Printf.sprintf (if upper then "\\u%04X" else "\\u%04x") v in
  let utf8 cp =
    let b = Buffer.create 4 in
    Buffer.add_utf_8_uchar b (Uchar.of_int cp);
    Buffer.contents b
  in
  let control =
    let* c = int_range 0 31 and* short = bool and* upper = bool in
    let s = String.make 1 (Char.chr c) in
    return
      ( s,
        match (short, s) with
        | true, "\b" -> "\\b"
        | true, "\012" -> "\\f"
        | true, "\n" -> "\\n"
        | true, "\r" -> "\\r"
        | true, "\t" -> "\\t"
        | _ -> hex upper c )
  in
  let bmp =
    let* cp = oneof [ int_range 0x80 0xD7FF; int_range 0xE000 0xFFFF ]
    and* escaped = bool
    and* upper = bool in
    return (utf8 cp, if escaped then hex upper cp else utf8 cp)
  in
  let astral =
    let* cp = int_range 0x10000 0x10FFFF
    and* escaped = bool
    and* upper = bool in
    let v = cp - 0x10000 in
    return
      ( utf8 cp,
        if escaped then
          hex upper (0xD800 lor (v lsr 10)) ^ hex upper (0xDC00 lor (v land 0x3FF))
        else utf8 cp )
  in
  frequency
    [
      (4, map (fun s -> (s, s)) (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)));
      (2, map (fun e -> ("\"", e)) (oneofl [ "\\\""; "\\u0022" ]));
      (2, map (fun e -> ("\\", e)) (oneofl [ "\\\\"; "\\u005c"; "\\u005C" ]));
      (1, map (fun e -> ("/", e)) (oneofl [ "/"; "\\/" ]));
      (3, control);
      (2, bmp);
      (2, astral);
      (1, map (fun c -> let s = String.make 1 (Char.chr c) in (s, s)) (int_range 0x80 0xFF));
    ]

let gen_string_pair =
  QCheck2.Gen.(
    map
      (fun pieces ->
        ( String.concat "" (List.map fst pieces),
          "\"" ^ String.concat "" (List.map snd pieces) ^ "\"" ))
      (list_size (int_range 0 6) gen_piece))

(* A random JSON value and one text that encodes it, with whitespace
   between tokens and the escapes [gen_piece] chooses. *)
let gen_json_pair : (J.t * string) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let ws = oneofl [ ""; ""; ""; " "; "\n"; "\t "; "\r\n" ] in
  let number =
    oneof
      [
        map (fun i -> (J.Int i, string_of_int i)) int;
        map (fun i -> (J.Int i, string_of_int i)) (int_range (-1000) 1000);
        return (J.Int 0, "-0");
        (let* m = int_range (-999) 999
         and* frac = nat
         and* e = oneofl [ ""; "e5"; "E-3"; "e+12"; "E0" ] in
         let t = Printf.sprintf "%d.%d%s" m frac e in
         return (J.Float (float_of_string t), t));
        (let* m = int_range 1 99 and* e = oneofl [ "e300"; "e-300"; "E+2" ] in
         let t = string_of_int m ^ e in
         return (J.Float (float_of_string t), t));
        return (J.Float 1.2345678901234568e29, "123456789012345678901234567890");
      ]
  in
  let scalar =
    frequency
      [
        (1, oneofl [ (J.Null, "null"); (J.Bool true, "true"); (J.Bool false, "false") ]);
        (2, number);
        (4, map (fun (v, t) -> (J.String v, t)) gen_string_pair);
      ]
  in
  let wrap open_ close items =
    let* pre = ws and* post = ws in
    return (open_ ^ pre ^ String.concat "," items ^ post ^ close)
  in
  sized_size (int_bound 4)
  @@ fix (fun self n ->
         if n = 0 then scalar
         else
           let elem =
             let* v, t = self (n - 1) and* a = ws and* b = ws in
             return (v, a ^ t ^ b)
           in
           frequency
             [
               (2, scalar);
               ( 1,
                 let* items = list_size (int_range 0 4) elem in
                 let* text = wrap "[" "]" (List.map snd items) in
                 return (J.List (List.map fst items), text) );
               ( 1,
                 let* fields =
                   list_size (int_range 0 4)
                     (pair gen_string_pair elem)
                 in
                 let* text =
                   wrap "{" "}"
                     (List.map (fun ((_, k), (_, t)) -> k ^ ":" ^ t) fields)
                 in
                 return
                   ( J.Obj (List.map (fun ((k, _), (v, _)) -> (k, v)) fields),
                     text ) );
             ])

(* Bytes a mutation writes: JSON's punctuation and escapes, and any
   byte at all. *)
let gen_mutation =
  QCheck2.Gen.(
    pair nat
      (oneof
         [
           oneofl
             [ '"'; '\\'; '['; ']'; '{'; '}'; ','; ':'; 'u'; '0'; 'e'; '-';
               '.'; ' '; '\000'; '\x80'; 'n'; 't'; 'f'; 'D' ];
           char;
         ]))

let print_json_case ((_, text), mutations) =
  Printf.sprintf "text: %S\nmutations: %s" text
    (String.concat " "
       (List.map (fun (i, c) -> Printf.sprintf "%d:%C" i c) mutations))

let prop_json_decoder_oracle =
  QCheck2.Test.make ~name:"JSON decoder = the character-at-a-time oracle"
    ~count:400 ~print:print_json_case
    QCheck2.Gen.(pair gen_json_pair (list_size (int_range 0 24) gen_mutation))
    (fun ((value, text), mutations) ->
      let agree s = J.of_string s = Json_oracle.of_string s in
      let all_prefixes s =
        List.for_all agree (List.init (String.length s + 1) (String.sub s 0))
      in
      let mutate s (i, c) =
        if s = "" then s
        else
          let b = Bytes.of_string s in
          Bytes.set b (i mod Bytes.length b) c;
          Bytes.to_string b
      in
      let written = J.to_string value in
      J.of_string text = Ok value
      && all_prefixes text && all_prefixes written
      && List.for_all (fun m -> agree (mutate text m) && agree (mutate written m))
           mutations)

let prop_float_round_trip =
  QCheck2.Test.make ~name:"floats written as JSON read back equal"
    ~count:2000 ~print:(Printf.sprintf "%h")
    QCheck2.Gen.(
      oneof
        [
          float;
          map Int64.float_of_bits int64;
          (* span timestamps: microseconds since boot, in nanosecond steps *)
          map (fun ns -> Int64.to_float ns /. 1e3) (map Int64.of_int nat);
        ])
    (fun f ->
      QCheck2.assume (Float.is_finite f);
      match J.of_string (J.to_string (J.Float f)) with
      | Ok v -> J.to_float_opt v = Some f
      | Error _ -> false)

(* Answer trees over an alphabet both escapings touch: XML's specials,
   JSON's, control characters and UTF-8. *)
let gen_answer_text =
  QCheck2.Gen.(
    map (String.concat "")
      (list_size (int_range 0 5)
         (oneofl
            [ "&"; "<"; ">"; "\""; "'"; "\\"; "\t"; "\n"; "\r"; "\001";
              "\027"; "\031"; "caf\xc3\xa9"; "\xe6\x97\xa5";
              "\xf0\x9f\x98\x80"; "\x7f"; "plain"; " "; "/"; "]"; "," ])))

let gen_answer_nodes : Sxml.Tree.t list QCheck2.Gen.t =
  let open QCheck2.Gen in
  let attrs =
    map
      (List.mapi (fun i v -> (Printf.sprintf "a%d" i, v)))
      (list_size (int_range 0 2) gen_answer_text)
  in
  let tree =
    sized_size (int_bound 3)
    @@ fix (fun self n ->
           let text = map Sxml.Tree.text gen_answer_text in
           if n = 0 then text
           else
             frequency
               [
                 (1, text);
                 ( 2,
                   let* tag = oneofl [ "a"; "note"; "b-2" ]
                   and* attrs = attrs
                   and* children = list_size (int_range 0 3) (self (n - 1)) in
                   return (Sxml.Tree.elem tag ~attrs children) );
               ])
  in
  map
    (fun specs -> Sxml.Tree.children (Sxml.Tree.of_spec (Sxml.Tree.elem "r" specs)))
    (list_size (int_range 0 6) tree)

let prop_reply_line =
  QCheck2.Test.make
    ~name:"one-pass reply line = the line built from Print.answer"
    ~count:500
    ~print:(fun (rid, nodes) ->
      Printf.sprintf "rid %S, nodes %s" rid
        (String.concat " " (List.map (fun n -> Sxml.Print.to_string n) nodes)))
    QCheck2.Gen.(pair gen_answer_text gen_answer_nodes)
    (fun (rid, nodes) ->
      let buf = Buffer.create 16 in
      let rendered = Sxml.Print.answer buf nodes in
      let want =
        Protocol.line buf
          (Protocol.ok ~rid
             [
               ("results", J.List (List.map (fun s -> J.String s) rendered));
               ("count", J.Int (List.length rendered));
             ])
      in
      let got = Protocol.answer_line buf ~rid nodes in
      got = want
      &&
      match J.of_string got with
      | Ok j ->
        J.member "results" j
        = Some (J.List (List.map (fun s -> J.String s) rendered))
      | Error _ -> false)

(* 400 answers, the size of a served admin read. *)
let reply_nodes () =
  Sxml.Tree.children
    (Sxml.Tree.of_spec
       (Sxml.Tree.elem "r"
          (List.init 400 (fun i ->
               Sxml.Tree.elem "name"
                 [ Sxml.Tree.text (Printf.sprintf "person%04d" i) ]))))

(* The one-pass writer builds no per-answer string: beside the line
   itself (past the minor heap's largest block at this size) it
   allocates a constant few words, whatever the answer count. *)
let test_reply_line_allocation () =
  let nodes = reply_nodes () and buf = Buffer.create 256 in
  ignore (Sys.opaque_identity (Protocol.answer_line buf ~rid:"r1-17" nodes));
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Protocol.answer_line buf ~rid:"r1-17" nodes));
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 400 answers" words)
    true (words < 64.)

(* A 400-string reply decodes in at most one minor word per byte: each
   string is one [String.sub] of its run, with no per-character option
   or buffer call. *)
let test_decode_allocation () =
  let line =
    Protocol.answer_line (Buffer.create 256) ~rid:"r1-17" (reply_nodes ())
  in
  ignore (Sys.opaque_identity (J.of_string line));
  let w0 = Gc.minor_words () in
  let decoded = J.of_string line in
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "decodes" true (Result.is_ok decoded);
  let per_byte = words /. float (String.length line) in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per byte (at most 1)" per_byte)
    true (per_byte <= 1.)

let () =
  Alcotest.run "properties"
    [
      ( "end-to-end",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_derive_sound_complete;
            prop_rewrite_equivalent;
            prop_optimize_equivalent;
            prop_containment_sound;
            prop_rewrite_output_is_secure;
            prop_view_definition_roundtrip;
            prop_audit_hidden_matches_view;
            prop_indexed_rewrite_equivalent;
            prop_dtd_facts_match_reference;
            prop_translation_memo_independent;
            prop_admission_prepared;
            prop_view_text_materialized;
            prop_attributes_reference;
          ] );
      ( "view text",
        [ Alcotest.test_case "Fig. 7 and a non-conforming extraction" `Quick
            test_view_text_cases ] );
      ( "codec",
        List.map
          (fun t -> QCheck_alcotest.to_alcotest t)
          [ prop_json_decoder_oracle; prop_float_round_trip; prop_reply_line ]
        @ [
            Alcotest.test_case "reply line allocation" `Quick
              test_reply_line_allocation;
            Alcotest.test_case "decode allocation" `Quick
              test_decode_allocation;
          ] );
    ]
