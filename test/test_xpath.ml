(* The XPath fragment: parser, printer, smart constructors, evaluator
   semantics, and the algebraic normalizer. *)

module A = Sxpath.Ast

let eval = Ctx_eval.eval

let eval_doc p doc =
  Sxpath.Eval.run (Sxpath.Eval.Ctx.make ~at:`Document ~root:doc ()) p

let eval_nodes p nodes =
  match nodes with
  | [] -> []
  | n :: _ -> Sxpath.Eval.run_nodes (Sxpath.Eval.Ctx.make ~root:n ()) p nodes

let holds q doc = Sxpath.Eval.check (Sxpath.Eval.Ctx.make ~root:doc ()) q doc

let path_t = Alcotest.testable Sxpath.Print.pp A.equal_path

let parse = Sxpath.Parse.of_string

let test_parse_steps () =
  Alcotest.check path_t "label" (A.Label "a") (parse "a");
  Alcotest.check path_t "wildcard" A.Wildcard (parse "*");
  Alcotest.check path_t "eps" A.Eps (parse ".");
  Alcotest.check path_t "attribute" (A.Attribute "x") (parse "@x");
  Alcotest.check path_t "empty" A.Empty (parse "#empty");
  Alcotest.check path_t "slash"
    (A.Slash (A.Label "a", A.Label "b"))
    (parse "a/b");
  Alcotest.check path_t "leading slash is cosmetic"
    (A.Slash (A.Label "a", A.Label "b"))
    (parse "/a/b");
  Alcotest.check path_t "descendant"
    (A.Dslash (A.Label "a"))
    (parse "//a");
  Alcotest.check path_t "infix descendant"
    (A.Slash (A.Label "a", A.Dslash (A.Label "b")))
    (parse "a//b")

let test_parse_union_precedence () =
  Alcotest.check path_t "union binds loosest"
    (A.Union (A.Slash (A.Label "a", A.Label "b"), A.Label "c"))
    (parse "a/b | c");
  Alcotest.check path_t "parens override"
    (A.Slash (A.Label "a", A.Union (A.Label "b", A.Label "c")))
    (parse "a/(b | c)")

let test_parse_qualifiers () =
  Alcotest.check path_t "existence"
    (A.Qualify (A.Label "a", A.Exists (A.Label "b")))
    (parse "a[b]");
  Alcotest.check path_t "equality with string"
    (A.Qualify (A.Label "a", A.Eq (A.Label "b", A.Const "x")))
    (parse "a[b = \"x\"]");
  Alcotest.check path_t "equality with number"
    (A.Qualify (A.Label "a", A.Eq (A.Label "b", A.Const "6")))
    (parse "a[b = 6]");
  Alcotest.check path_t "equality with variable"
    (A.Qualify (A.Label "a", A.Eq (A.Label "b", A.Var "w")))
    (parse "a[b = $w]");
  Alcotest.check path_t "boolean structure"
    (A.Qualify
       ( A.Label "a",
         A.Or
           ( A.And (A.Exists (A.Label "b"), A.Exists (A.Label "c")),
             A.Not (A.Exists (A.Label "d")) ) ))
    (parse "a[b and c or not(d)]");
  Alcotest.check path_t "literals"
    (A.Qualify (A.Label "a", A.And (A.True, A.False)))
    (parse "a[true() and false()]");
  Alcotest.check path_t "nested qualifiers"
    (A.Qualify
       (A.Label "a", A.Exists (A.Qualify (A.Label "b", A.Exists (A.Label "c")))))
    (parse "a[b[c]]");
  Alcotest.check path_t "descendant inside qualifier"
    (A.Qualify (A.Label "a", A.Exists (A.Dslash (A.Label "b"))))
    (parse "a[//b]");
  Alcotest.check path_t "attribute equality"
    (A.Qualify (A.Label "a", A.Eq (A.Attribute "acc", A.Const "1")))
    (parse "a[@acc = \"1\"]");
  Alcotest.check path_t "stacked qualifiers"
    (A.Qualify
       (A.Qualify (A.Label "a", A.Exists (A.Label "b")), A.Exists (A.Label "c")))
    (parse "a[b][c]")

let test_parse_union_in_qualifier () =
  Alcotest.check path_t "parenthesized union path in qualifier"
    (A.Qualify (A.Label "a", A.Exists (A.Union (A.Label "b", A.Label "c"))))
    (parse "a[(b | c)]");
  Alcotest.check path_t "union path continuing with a step"
    (A.Qualify
       ( A.Label "a",
         A.Exists (A.Slash (A.Union (A.Label "b", A.Label "c"), A.Label "d")) ))
    (parse "a[(b | c)/d]")

let expect_error input =
  match parse input with
  | exception Sxpath.Parse.Error _ -> ()
  | p ->
    Alcotest.failf "expected error on %s, got %s" input
      (Sxpath.Print.to_string p)

let test_parse_errors () =
  expect_error "";
  expect_error "a[";
  expect_error "a]";
  expect_error "a/";
  expect_error "a |";
  expect_error "a[b =]";
  expect_error "(a";
  expect_error "a b"

let test_parse_end_of_input () =
  let error_of input =
    match Sxpath.Parse.of_string_result input with
    | Ok _ -> Alcotest.failf "%S parsed" input
    | Error e -> (e.Sxpath.Parse.position, e.Sxpath.Parse.message)
  in
  Alcotest.(check (pair int string)) "open qualifier"
    (10, "unexpected end of input") (error_of "//patient[");
  Alcotest.(check (pair int string)) "dangling slash"
    (2, "unexpected end of input") (error_of "a/");
  Alcotest.(check (pair int string)) "a NUL byte is still a character"
    (2, "unexpected character '\\000' in path") (error_of "a/\000")

(* A query nesting brackets past 512 levels is refused where the 513th
   opens, before the parser's recursion grows with the input: half a
   million [a[] cost a bounded handful of words, not a stack as deep as
   the line.  A bracket that opens a parenthesized qualifier atom is
   read both as a qualifier and as a path; each atom is read once, so
   the two readings of every enclosing level do not double the work. *)
let test_parse_nesting_bound () =
  let refused input =
    let w0 = Gc.minor_words () in
    let got = Sxpath.Parse.of_string_result input in
    let words = Gc.minor_words () -. w0 in
    match got with
    | Ok _ -> Alcotest.failf "%d bytes parsed" (String.length input)
    | Error e -> (e.Sxpath.Parse.position, e.Sxpath.Parse.message, words)
  in
  let position, message, words =
    refused (String.concat "" (List.init 500_000 (fun _ -> "a[")))
  in
  Alcotest.(check (pair int string)) "a million brackets"
    (1025, "nesting deeper than 512") (position, message);
  Alcotest.(check bool)
    (Printf.sprintf "refused in %.0f minor words" words)
    true (words < 50_000.);
  let position, message, _ = refused (String.make 600 '(') in
  Alcotest.(check (pair int string)) "parentheses"
    (512, "nesting deeper than 512") (position, message);
  (* 512 levels still parse *)
  let deep = String.concat "" (List.init 511 (fun _ -> "a[")) in
  ignore (parse (deep ^ "b" ^ String.make 511 ']'));
  let _, message, words =
    refused ("a[" ^ String.concat "" (List.init 40 (fun _ -> "(b/c[")))
  in
  Alcotest.(check string) "ambiguous atoms" "unexpected end of input" message;
  Alcotest.(check bool)
    (Printf.sprintf "40 ambiguous atoms in %.0f minor words" words)
    true (words < 50_000.)

let test_print_examples () =
  let s p = Sxpath.Print.to_string p in
  Alcotest.(check string) "slash chain" "a/b/c"
    (s (A.Slash (A.Slash (A.Label "a", A.Label "b"), A.Label "c")));
  Alcotest.(check string) "contracted //" "a//b"
    (s (A.Slash (A.Label "a", A.Dslash (A.Label "b"))));
  Alcotest.(check string) "union parenthesized under slash" "(a | b)/c"
    (s (A.Slash (A.Union (A.Label "a", A.Label "b"), A.Label "c")));
  Alcotest.(check string) "qualifier" "a[b = \"x\" and c]"
    (s
       (A.Qualify
          ( A.Label "a",
            A.And (A.Eq (A.Label "b", A.Const "x"), A.Exists (A.Label "c")) )))

let test_smart_constructors () =
  Alcotest.check path_t "slash with empty" A.Empty
    (A.slash (A.Label "a") A.Empty);
  Alcotest.check path_t "slash with eps" (A.Label "a")
    (A.slash A.Eps (A.Label "a"));
  Alcotest.check path_t "union with empty" (A.Label "a")
    (A.union A.Empty (A.Label "a"));
  Alcotest.check path_t "union dedups" (A.Label "a")
    (A.union (A.Label "a") (A.Label "a"));
  Alcotest.check path_t "qualify true" (A.Label "a")
    (A.qualify (A.Label "a") A.True);
  Alcotest.check path_t "qualify false" A.Empty
    (A.qualify (A.Label "a") A.False);
  Alcotest.(check bool) "qnot collapses" true
    (A.equal_qual (A.Exists (A.Label "a"))
       (A.qnot (A.qnot (A.Exists (A.Label "a")))));
  Alcotest.(check bool) "exists of empty is false" true
    (A.equal_qual A.False (A.exists A.Empty))

let test_subpaths_ascending () =
  let p = parse "a/b[c]" in
  let subs = A.subpaths p in
  let idx q =
    let rec go i = function
      | [] -> Alcotest.failf "missing subquery %s" (Sxpath.Print.to_string q)
      | x :: _ when A.equal_path x q -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 subs
  in
  Alcotest.(check bool) "children precede parents" true
    (idx (A.Label "a") < idx p
    && idx (A.Label "c") < idx (A.Qualify (A.Label "b", A.Exists (A.Label "c")))
    )

let test_size () =
  (* Slash(a, Qualify(b, Exists c)) = 1+1+1+1+(1+1) *)
  Alcotest.(check int) "size of a/b[c]" 6 (A.size (parse "a/b[c]"))

let test_variables_substitute () =
  let p = parse "a[b = $w and c = $v]" in
  Alcotest.(check (list string)) "variables" [ "w"; "v" ] (A.variables p);
  let p' = A.substitute (fun n -> if n = "w" then Some "6" else None) p in
  Alcotest.check path_t "w bound" (parse "a[b = \"6\" and c = $v]") p'

(* --- evaluator ------------------------------------------------------ *)

let doc () =
  Sxml.Tree.(
    of_spec
      (elem "r"
         [
           elem "a"
             [
               elem "b" [ text "one" ];
               elem "c" ~attrs:[ ("acc", "1") ] [ elem "b" [ text "two" ] ];
             ];
           elem "a" [ elem "b" [ text "three" ] ];
           elem "d" [ text "leaf" ];
         ]))

let strings p d =
  List.map Sxml.Tree.string_value (eval p d)

let test_eval_child_steps () =
  let d = doc () in
  Alcotest.(check (list string)) "a/b" [ "one"; "three" ]
    (strings (parse "a/b") d);
  Alcotest.(check (list string)) "wildcard selects element children"
    [ "onetwo"; "three"; "leaf" ]
    (strings (parse "*") d);
  Alcotest.(check (list string)) "*/b" [ "one"; "three" ]
    (strings (parse "*/b") d)

let test_eval_descendant () =
  let d = doc () in
  Alcotest.(check (list string)) "//b finds all three"
    [ "one"; "two"; "three" ]
    (strings (parse "//b") d);
  Alcotest.(check (list string)) "a//b includes nested"
    [ "one"; "two"; "three" ]
    (strings (parse "a//b") d)

let test_eval_dedup_and_order () =
  let d = doc () in
  let results = eval (parse "//b | a/b | //c/b") d in
  let ids = List.map (fun n -> n.Sxml.Tree.id) results in
  Alcotest.(check (list int)) "sorted, no duplicates"
    (List.sort_uniq compare ids) ids;
  Alcotest.(check int) "three distinct" 3 (List.length results)

let test_eval_qualifiers () =
  let d = doc () in
  Alcotest.(check (list string)) "a[c]/b keeps first a only" [ "one" ]
    (strings (parse "a[c]/b") d);
  Alcotest.(check (list string)) "equality" [ "one" ]
    (strings (parse "a[b = \"one\"]/b") d);
  Alcotest.(check (list string)) "negation" [ "three" ]
    (strings (parse "a[not(c)]/b") d);
  Alcotest.(check (list string)) "disjunction"
    [ "one"; "three" ]
    (strings (parse "a[c or b = \"three\"]/b") d);
  Alcotest.(check int) "attribute qualifier" 1
    (List.length (eval (parse "//c[@acc = \"1\"]") d));
  Alcotest.(check int) "attribute existence" 1
    (List.length (eval (parse "//c[@acc]") d));
  Alcotest.(check int) "attribute mismatch" 0
    (List.length (eval (parse "//c[@acc = \"0\"]") d))

let test_eval_eps_and_empty () =
  let d = doc () in
  Alcotest.(check int) "eps is the context node" 1
    (List.length (eval A.Eps d));
  Alcotest.(check int) "empty returns nothing" 0
    (List.length (eval A.Empty d));
  Alcotest.(check int) "// alone returns all elements (text is str data)"
    (Sxml.Tree.count_elements d)
    (List.length (eval (parse "//.") d))

let test_eval_doc_vs_node () =
  let d = doc () in
  (* At the root element, "r" looks for r children: none.  At the
     document node, "r" is the root itself. *)
  Alcotest.(check int) "r at root element" 0
    (List.length (eval (parse "r") d));
  Alcotest.(check int) "r at document node" 1
    (List.length (eval_doc (parse "r") d))

let test_eval_env () =
  let d = doc () in
  let env n = if n = "x" then Some "one" else None in
  Alcotest.(check (list string)) "variable bound" [ "one" ]
    (List.map Sxml.Tree.string_value
       (eval ~env (parse "a[b = $x]/b") d));
  Alcotest.(check bool) "unbound variable raises" true
    (match eval (parse "a[b = $x]") d with
    | exception Sxpath.Eval.Unbound_variable "x" -> true
    | _ -> false)

let test_eval_equality_on_elements () =
  (* [p = c] via string value of elements, like the paper's text-node
     formulation. *)
  let d = doc () in
  Alcotest.(check int) "d = leaf" 1
    (List.length (eval (parse ".[d = \"leaf\"]") d))

let test_holds () =
  let d = doc () in
  Alcotest.(check bool) "holds" true
    (holds (Sxpath.Parse.qual_of_string "a/b") d);
  Alcotest.(check bool) "fails" false
    (holds (Sxpath.Parse.qual_of_string "zz") d)

(* --- simplifier ----------------------------------------------------- *)

let test_simplify () =
  let s = Sxpath.Simplify.path in
  Alcotest.check path_t "empty propagates" A.Empty
    (s (A.Slash (A.Label "a", A.Slash (A.Empty, A.Label "b"))));
  Alcotest.check path_t "false qualifier kills"
    A.Empty
    (s (A.Qualify (A.Label "a", A.Exists A.Empty)));
  Alcotest.check path_t "union of identical branches"
    (A.Label "a")
    (s (A.Union (A.Label "a", A.Union (A.Empty, A.Label "a"))));
  Alcotest.check path_t "nested eps collapses"
    (A.Label "a")
    (s (A.Slash (A.Eps, A.Slash (A.Label "a", A.Eps))))

(* Property: simplify preserves evaluation. *)
let gen_path_sized =
  let open QCheck2.Gen in
  let label = oneofl [ "r"; "a"; "b"; "c"; "d" ] in
  fix (fun self n ->
      if n <= 1 then
        oneof
          [ map (fun l -> A.Label l) label; return A.Eps; return A.Wildcard;
            return A.Empty ]
      else
        oneof
          [
            map (fun l -> A.Label l) label;
            map2 (fun a b -> A.Slash (a, b)) (self (n / 2)) (self (n / 2));
            map (fun a -> A.Dslash a) (self (n - 1));
            map2 (fun a b -> A.Union (a, b)) (self (n / 2)) (self (n / 2));
            map2
              (fun a q -> A.Qualify (a, q))
              (self (n / 2))
              (oneof
                 [
                   map (fun p -> A.Exists p) (self (n / 2));
                   map (fun p -> A.Not (A.Exists p)) (self (n / 2));
                   map (fun p -> A.Eq (p, A.Const "one")) (self (n / 2));
                 ]);
          ])

let gen_path = QCheck2.Gen.sized gen_path_sized

let ids p d = List.map (fun n -> n.Sxml.Tree.id) (eval p d)

(* The reference union smart constructors — a pairwise scan per call,
   [union_all] folding [union] — the oracle for the one-pass, hash-set
   versions. *)
let rec old_branches = function
  | A.Empty -> []
  | A.Union (a, b) -> old_branches a @ old_branches b
  | p -> [ p ]

let old_union a b =
  match (a, b) with
  | A.Empty, p | p, A.Empty -> p
  | a, b -> (
    let branches =
      List.fold_left
        (fun acc p ->
          if List.exists (A.equal_path p) acc then acc else p :: acc)
        [] (old_branches a @ old_branches b)
      |> List.rev
    in
    match branches with
    | [] -> A.Empty
    | first :: rest -> List.fold_left (fun acc p -> A.Union (acc, p)) first rest)

let old_union_all ps = List.fold_left old_union A.Empty ps

(* Lists of up to 60 operands drawn from a small pool, so branches
   repeat.  The pool always holds
   the raw terms the smart constructors never build — a union of
   empties, a union with a repeated branch — because [∅ ∪ p = p] keeps
   a lone operand as given. *)
let gen_branch_list =
  let open QCheck2.Gen in
  let* pool =
    list_size (int_range 1 30) (sized_size (int_range 1 6) gen_path_sized)
  in
  let* p = sized_size (int_range 1 4) gen_path_sized in
  let pool = A.Union (A.Empty, A.Empty) :: A.Union (p, p) :: A.Empty :: pool in
  list_size (int_range 0 60) (oneofl pool)

(* The fold's corner: two operands with no branches reset it to ∅, so
   the next operand is kept as given, repeated branch and all. *)
let test_union_all_corners () =
  let e2 = A.Union (A.Empty, A.Empty) and a = A.Label "a" in
  let aa = A.Union (a, a) in
  List.iter
    (fun ps ->
      Alcotest.(check bool)
        (String.concat " ; " (List.map Sxpath.Print.to_string ps))
        true
        (A.union_all ps = old_union_all ps))
    [
      [ e2; e2; aa ];
      [ e2; aa ];
      [ e2; e2; e2; aa ];
      [ aa ];
      [ A.Empty; aa; A.Empty ];
      [ e2; e2 ];
      [ e2 ];
      [ aa; e2; A.Label "b"; aa ];
    ]

let prop_union_matches_fold =
  QCheck2.Test.make ~name:"union/union_all equal the pairwise fold" ~count:500
    ~print:(fun ps -> String.concat " ; " (List.map Sxpath.Print.to_string ps))
    gen_branch_list
    (fun ps ->
      let half = List.length ps / 2 in
      let left = List.filteri (fun i _ -> i < half) ps
      and right = List.filteri (fun i _ -> i >= half) ps in
      A.union_all ps = old_union_all ps
      && A.union (A.union_all left) (A.union_all right)
         = old_union (old_union_all left) (old_union_all right)
      && A.union (A.union_all ps) (A.union_all ps)
         = old_union (old_union_all ps) (old_union_all ps)
      && A.union_branches (A.union_all ps) = old_branches (old_union_all ps))

let prop_simplify_preserves =
  QCheck2.Test.make ~name:"simplify preserves evaluation" ~count:300 gen_path
    (fun p ->
      let d = doc () in
      ids p d = ids (Sxpath.Simplify.path p) d)

(* The parser associates '/' and '|' to the left; canonicalize both
   sides of the roundtrip so associativity does not cause spurious
   mismatches. *)
let rec canon (p : A.path) : A.path =
  let rec slashes = function
    | A.Slash (a, b) -> slashes a @ slashes b
    | p -> [ canon p ]
  in
  match p with
  | A.Empty | A.Eps | A.Label _ | A.Wildcard | A.Attribute _ -> p
  | A.Slash _ -> (
    match slashes p with
    | [] -> A.Eps
    | first :: rest ->
      List.fold_left (fun acc q -> A.Slash (acc, q)) first rest)
  | A.Dslash a -> A.Dslash (canon a)
  | A.Union _ -> (
    match List.map canon (A.union_branches p) with
    | [] -> A.Empty
    | first :: rest ->
      List.fold_left (fun acc q -> A.Union (acc, q)) first rest)
  | A.Qualify (a, q) -> A.Qualify (canon a, canon_qual q)

and canon_qual = function
  | (A.True | A.False) as q -> q
  | A.Exists p -> A.Exists (canon p)
  | A.Eq (p, v) -> A.Eq (canon p, v)
  | A.And (a, b) -> A.And (canon_qual a, canon_qual b)
  | A.Or (a, b) -> A.Or (canon_qual a, canon_qual b)
  | A.Not q -> A.Not (canon_qual q)

let prop_print_parse =
  QCheck2.Test.make ~name:"print/parse roundtrip" ~print:Sxpath.Print.to_string ~count:300 gen_path
    (fun p ->
      match Sxpath.Parse.of_string (Sxpath.Print.to_string p) with
      | p' -> A.equal_path (canon p) (canon p')
      | exception Sxpath.Parse.Error _ -> false)

let prop_eval_sorted_dedup =
  QCheck2.Test.make ~name:"evaluation is sorted and duplicate-free"
    ~count:300 gen_path (fun p ->
      let out = ids p (doc ()) in
      out = List.sort_uniq compare out)

(* ---- tricky printing shapes (regression: buried descendant axes) ---- *)

let test_print_parse_tricky_shapes () =
  let cases =
    [
      A.Slash (A.Label "a", A.Slash (A.Dslash (A.Label "b"), A.Label "c"));
      A.Dslash (A.Dslash (A.Label "a"));
      A.Dslash (A.Slash (A.Label "a", A.Label "b"));
      A.Slash (A.Label "a", A.Dslash (A.Slash (A.Label "b", A.Label "c")));
      A.Qualify (A.Dslash (A.Label "a"), A.Exists (A.Dslash (A.Label "b")));
      A.Slash
        ( A.Union (A.Label "a", A.Dslash (A.Label "b")),
          A.Union (A.Label "c", A.Eps) );
      A.Qualify (A.Eps, A.Not (A.Eq (A.Dslash (A.Label "a"), A.Const "x")));
    ]
  in
  List.iter
    (fun p ->
      let s = Sxpath.Print.to_string p in
      match Sxpath.Parse.of_string s with
      | p' ->
        Alcotest.(check bool)
          (Printf.sprintf "%s survives" s)
          true
          (Sxpath.Simplify.equivalent_syntax p p')
      | exception Sxpath.Parse.Error e ->
        Alcotest.failf "printed %s but cannot reparse: %s" s
          (Sxpath.Parse.error_to_string e))
    cases

let test_eval_nodes_set_at_a_time () =
  let d = doc () in
  let contexts = eval (parse "a") d in
  Alcotest.(check int) "two a contexts" 2 (List.length contexts);
  let all_bs = eval_nodes (parse "b") contexts in
  Alcotest.(check (list string)) "direct b children of both"
    [ "one"; "three" ]
    (List.map Sxml.Tree.string_value all_bs)

let test_eval_doc_descendants () =
  let d = doc () in
  Alcotest.(check int) "//. from the document node counts all elements"
    (Sxml.Tree.count_elements d)
    (List.length (eval_doc (parse "//.") d))

let canon_path_t =
  Alcotest.testable Sxpath.Print.pp Sxpath.Simplify.equivalent_syntax

let test_factor_terminates_on_assoc_duplicates () =
  (* regression: ε-tails from duplicate branches used to loop *)
  let p =
    A.Union
      ( A.Slash (A.Label "a", A.Slash (A.Label "b", A.Label "c")),
        A.Slash (A.Slash (A.Label "a", A.Label "b"), A.Label "c") )
  in
  Alcotest.check canon_path_t "collapses to one branch"
    (parse "a/b/c")
    (Sxpath.Simplify.factor p)

let test_factor_groups_prefixes () =
  Alcotest.check canon_path_t "left factoring"
    (parse "a/(b | c)")
    (Sxpath.Simplify.factor (parse "a/b | a/c"));
  Alcotest.check canon_path_t "bare head joins its extensions"
    (parse "a/(. | b)")
    (Sxpath.Simplify.factor (parse "a | a/b"));
  Alcotest.check canon_path_t "distinct heads untouched"
    (parse "a/b | c/d")
    (Sxpath.Simplify.factor (parse "a/b | c/d"))

let () =
  Alcotest.run "xpath"
    [
      ( "parser",
        [
          Alcotest.test_case "steps" `Quick test_parse_steps;
          Alcotest.test_case "union precedence" `Quick
            test_parse_union_precedence;
          Alcotest.test_case "qualifiers" `Quick test_parse_qualifiers;
          Alcotest.test_case "unions in qualifiers" `Quick
            test_parse_union_in_qualifier;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "end of input" `Quick test_parse_end_of_input;
          Alcotest.test_case "nesting bound" `Quick test_parse_nesting_bound;
        ] );
      ( "printer",
        [
          Alcotest.test_case "examples" `Quick test_print_examples;
        ] );
      ( "ast",
        [
          Alcotest.test_case "smart constructors" `Quick
            test_smart_constructors;
          Alcotest.test_case "subpaths ascending" `Quick
            test_subpaths_ascending;
          Alcotest.test_case "size" `Quick test_size;
          Alcotest.test_case "variables/substitute" `Quick
            test_variables_substitute;
          Alcotest.test_case "union_all corners" `Quick test_union_all_corners;
        ] );
      ( "evaluator",
        [
          Alcotest.test_case "child steps" `Quick test_eval_child_steps;
          Alcotest.test_case "descendant" `Quick test_eval_descendant;
          Alcotest.test_case "dedup and order" `Quick
            test_eval_dedup_and_order;
          Alcotest.test_case "qualifiers" `Quick test_eval_qualifiers;
          Alcotest.test_case "eps/empty" `Quick test_eval_eps_and_empty;
          Alcotest.test_case "doc vs node context" `Quick
            test_eval_doc_vs_node;
          Alcotest.test_case "environments" `Quick test_eval_env;
          Alcotest.test_case "equality on elements" `Quick
            test_eval_equality_on_elements;
          Alcotest.test_case "holds" `Quick test_holds;
        ] );
      ( "simplifier",
        [
          Alcotest.test_case "laws" `Quick test_simplify;
          Alcotest.test_case "factor terminates on assoc duplicates" `Quick
            test_factor_terminates_on_assoc_duplicates;
          Alcotest.test_case "factor groups prefixes" `Quick
            test_factor_groups_prefixes;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "tricky printing shapes" `Quick
            test_print_parse_tricky_shapes;
          Alcotest.test_case "eval_nodes" `Quick test_eval_nodes_set_at_a_time;
          Alcotest.test_case "eval_doc descendants" `Quick
            test_eval_doc_descendants;
        ] );
      ( "properties",
        List.map (fun t -> QCheck_alcotest.to_alcotest t)
          [
            prop_simplify_preserves;
            prop_print_parse;
            prop_eval_sorted_dedup;
            prop_union_matches_fold;
          ]
      );
    ]
