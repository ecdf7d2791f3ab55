module A = Sxpath.Ast

type step_issue =
  | Dead_step of A.path * string list  (* step, context types tried *)
  | Undeclared_attribute of string * string list

let dedup = List.sort_uniq String.compare

let label_matches l child = String.equal (Sdtd.Unfold.label_of child) l

let rec reach ~issue ~qual_hook dtd ctxs (p : A.path) : string list =
  let children c =
    if Sdtd.Dtd.mem dtd c then Sdtd.Dtd.children_of dtd c else []
  in
  match p with
  | A.Empty -> []
  | A.Eps -> ctxs
  | A.Label l ->
    let nexts =
      dedup (List.concat_map (fun c -> List.filter (label_matches l) (children c)) ctxs)
    in
    if nexts = [] && ctxs <> [] then issue (Dead_step (p, ctxs));
    nexts
  | A.Wildcard ->
    let nexts = dedup (List.concat_map children ctxs) in
    if nexts = [] && ctxs <> [] then issue (Dead_step (p, ctxs));
    nexts
  | A.Attribute at ->
    let carriers =
      List.filter
        (fun c -> Sdtd.Dtd.mem dtd c && List.mem at (Sdtd.Dtd.attributes dtd c))
        ctxs
    in
    if carriers = [] then begin
      if ctxs <> [] then issue (Undeclared_attribute (at, ctxs));
      []
    end
    else [ "@" ^ at ]
  | A.Slash (p1, p2) ->
    reach ~issue ~qual_hook dtd (reach ~issue ~qual_hook dtd ctxs p1) p2
  | A.Dslash p1 ->
    let closure =
      dedup
        (List.concat_map
           (fun c ->
             if Sdtd.Dtd.mem dtd c then
               Image.descendant_or_self_types dtd c
             else [])
           ctxs)
    in
    reach ~issue ~qual_hook dtd closure p1
  | A.Union (p1, p2) ->
    dedup
      (reach ~issue ~qual_hook dtd ctxs p1 @ reach ~issue ~qual_hook dtd ctxs p2)
  | A.Qualify (p1, q) ->
    let base = reach ~issue ~qual_hook dtd ctxs p1 in
    if base = [] then [] else qual_hook base q

(* Walk every path embedded in a qualifier (atoms of [Exists]/[Eq],
   through the boolean connectives, including nested qualifiers),
   reporting reference problems through [issue]. *)
let rec walk_qual ~issue dtd ctxs (q : A.qual) =
  let hook cs q' =
    walk_qual ~issue dtd cs q';
    cs
  in
  match q with
  | A.True | A.False -> ()
  | A.Exists p | A.Eq (p, _) -> ignore (reach ~issue ~qual_hook:hook dtd ctxs p)
  | A.And (q1, q2) | A.Or (q1, q2) ->
    walk_qual ~issue dtd ctxs q1;
    walk_qual ~issue dtd ctxs q2
  | A.Not q1 -> walk_qual ~issue dtd ctxs q1

let silent_reach dtd ctxs p =
  reach ~issue:(fun _ -> ()) ~qual_hook:(fun cs _ -> cs) dtd ctxs p

let comma = String.concat ", "

let dead_step_message dtd (step, at) =
  let stxt = Sxpath.Print.to_string step in
  match step with
  | A.Label l when not (Sdtd.Dtd.mem dtd l) ->
    Printf.sprintf "step %s: %s is not an element type of the DTD" stxt l
  | _ -> Printf.sprintf "step %s can never match under %s" stxt (comma at)

(* Source element types per view type: the document types a view
   element's source node can have, propagated from σ(root) = root
   through every σ edge to a fixpoint (recursive view DTDs converge
   because type sets only grow). *)
let source_types ~dtd view =
  let vdtd = View.dtd view in
  let srcs : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let get v = Option.value (Hashtbl.find_opt srcs v) ~default:[] in
  Hashtbl.replace srcs (Sdtd.Dtd.root vdtd) [ Sdtd.Dtd.root dtd ];
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun a ->
        List.iter
          (fun b ->
            match View.sigma view ~parent:a ~child:b with
            | None -> ()
            | Some sg ->
              let r = silent_reach dtd (get a) sg in
              let merged = dedup (r @ get b) in
              if merged <> get b then begin
                Hashtbl.replace srcs b merged;
                changed := true
              end)
          (Sdtd.Dtd.children_of vdtd a))
      (Sdtd.Dtd.reachable vdtd)
  done;
  get
