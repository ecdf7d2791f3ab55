module A = Sxpath.Ast
module D = Diagnostic
module Dtd = Sdtd.Dtd
module View = Secview.View
module Image = Secview.Image
open Walker

(* ------------------------------------------------------------------ *)
(* Accessible regions                                                  *)
(* ------------------------------------------------------------------ *)

type relation =
  | Equivalent
  | Subsumed
  | Subsumes
  | Overlapping
  | Disjoint
  | Unknown of string

type claim = {
  claim_at : string;
  claim_elem : string;
  claim_lhs : A.path;
  claim_rhs : A.path;
}

type comparison = {
  cmp_left : string;
  cmp_right : string;
  cmp_relation : relation;
  cmp_overlap : string option;
  cmp_claims : claim list;
}

let relation_label = function
  | Equivalent -> "equivalent"
  | Subsumed -> "subsumed"
  | Subsumes -> "subsumes"
  | Overlapping -> "overlapping"
  | Disjoint -> "disjoint"
  | Unknown _ -> "unknown"

(* σ-composition down the view DTD in topological (parents-first)
   order: each type's accumulated document path is final before it is
   pushed into its children, so one pass suffices.  Recursive view
   DTDs have no such order and no finite composition — bounding the
   unfolding would make the comparison unsound, so we refuse. *)
let region_paths view =
  let vdtd = View.dtd view in
  match Dtd.topological_order vdtd with
  | None -> None
  | Some order ->
    let acc : (string, A.path) Hashtbl.t = Hashtbl.create 16 in
    let get v = Option.value (Hashtbl.find_opt acc v) ~default:A.Empty in
    Hashtbl.replace acc (Dtd.root vdtd) A.Eps;
    List.iter
      (fun a ->
        let pa = get a in
        if not (A.is_empty pa) then
          List.iter
            (fun b ->
              match View.sigma view ~parent:a ~child:b with
              | None -> ()
              | Some sg ->
                Hashtbl.replace acc b (A.union (get b) (A.slash pa sg)))
            (Dtd.children_of vdtd a))
      order;
    let regions : (string, A.path) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun v ->
        if not (View.is_dummy view v) then begin
          let p = get v in
          if not (A.is_empty p) then begin
            let l = Sdtd.Unfold.label_of v in
            let prev =
              Option.value (Hashtbl.find_opt regions l) ~default:A.Empty
            in
            Hashtbl.replace regions l (A.union prev p)
          end
        end)
      order;
    Some
      (List.sort
         (fun (l1, _) (l2, _) -> String.compare l1 l2)
         (Hashtbl.fold (fun l p rs -> (l, p) :: rs) regions []))

(* Schema-level non-emptiness of a region at the document root; a
   budget blowup counts as possibly non-empty (the sound direction
   for an overlap witness). *)
let populatable dtd p root =
  (not (A.is_empty p))
  &&
  match Image.image dtd p root with
  | Some _ -> true
  | None -> false
  | exception Image.Too_large -> true

let compare_views dtd (name_a, view_a) (name_b, view_b) =
  match (region_paths view_a, region_paths view_b) with
  | None, _ | _, None ->
    {
      cmp_left = name_a;
      cmp_right = name_b;
      cmp_relation = Unknown "recursive view DTD: no finite σ-composition";
      cmp_overlap = None;
      cmp_claims = [];
    }
  | Some ra, Some rb ->
    let root = Dtd.root dtd in
    let labels = dedup (List.map fst ra @ List.map fst rb) in
    let find r l = Option.value (List.assoc_opt l r) ~default:A.Empty in
    (* [true] is a proof (Prop 5.1); an empty lhs is contained in
       anything; a budget blowup proves nothing. *)
    let contained p q =
      A.is_empty p
      ||
      match Secview.Simulate.contained dtd p q root with
      | verdict -> verdict
      | exception Image.Too_large -> false
    in
    let claims = ref [] in
    let claim l p q =
      if populatable dtd p root then
        claims :=
          { claim_at = root; claim_elem = l; claim_lhs = p; claim_rhs = q }
          :: !claims
    in
    let direction r1 r2 =
      List.fold_left
        (fun all l ->
          let p = find r1 l and q = find r2 l in
          let ok = contained p q in
          if ok then claim l p q;
          all && ok)
        true labels
    in
    let a_in_b = direction ra rb in
    let b_in_a = direction rb ra in
    let overlap =
      List.find_opt
        (fun l ->
          populatable dtd (find ra l) root && populatable dtd (find rb l) root)
        labels
    in
    let relation =
      match (a_in_b, b_in_a) with
      | true, true -> Equivalent
      | true, false -> Subsumed
      | false, true -> Subsumes
      | false, false -> (
        match overlap with
        | Some _ -> Overlapping
        | None -> Disjoint)
    in
    {
      cmp_left = name_a;
      cmp_right = name_b;
      cmp_relation = relation;
      cmp_overlap = (match relation with Overlapping -> overlap | _ -> None);
      cmp_claims = List.rev !claims;
    }

let fleet dtd groups =
  let rec pairs = function
    | [] -> []
    | g :: rest -> List.map (compare_views dtd g) rest @ pairs rest
  in
  pairs groups

let sv402 small big =
  D.make ~code:"SV402" ~severity:D.Info ~subject:(D.Groups (small, big))
    (Printf.sprintf
       "every node accessible to %s is accessible to %s — a role-hierarchy \
        edge (%s subsumes %s)"
       small big big small)

let fleet_diagnostics cmps =
  List.concat_map
    (fun c ->
      match c.cmp_relation with
      | Equivalent ->
        [
          D.make ~code:"SV401" ~severity:D.Warning
            ~subject:(D.Groups (c.cmp_left, c.cmp_right))
            "the groups expose the same accessible region on every instance \
             — merge candidates (one view definition can serve both)";
        ]
      | Subsumed -> [ sv402 c.cmp_left c.cmp_right ]
      | Subsumes -> [ sv402 c.cmp_right c.cmp_left ]
      | Overlapping ->
        [
          D.make ~code:"SV403" ~severity:D.Info
            ~subject:(D.Groups (c.cmp_left, c.cmp_right))
            (Printf.sprintf
               "accessible regions are incomparable but overlap%s — neither \
                policy bounds the other"
               (match c.cmp_overlap with
               | Some l -> Printf.sprintf " (both can reach %s elements)" l
               | None -> ""));
        ]
      | Disjoint | Unknown _ -> [])
    cmps

(* ------------------------------------------------------------------ *)
(* Static query admission                                              *)
(* ------------------------------------------------------------------ *)

let admission_prepared prep q =
  let vdtd = Secview.Optimize.prepared_dtd prep in
  let witness = ref None in
  let note w = if !witness = None then witness := Some w in
  let issue = function
    | Dead_step (s, at) -> note (dead_step_message vdtd (s, at))
    | Undeclared_attribute (at, cs) ->
      note
        (Printf.sprintf "attribute @%s is declared on none of %s" at
           (comma cs))
  in
  let qual_hook ctxs qq =
    let live =
      List.filter
        (fun b ->
          (not (Dtd.mem vdtd b)) || Image.bool_of_qual vdtd qq b <> `False)
        ctxs
    in
    if live = [] && ctxs <> [] then
      note
        (Printf.sprintf "qualifier [%s] fails at every %s by DTD constraints"
           (Sxpath.Print.qual_to_string qq)
           (comma ctxs));
    live
  in
  let r = reach ~issue ~qual_hook vdtd [ Dtd.root vdtd ] q in
  if r = [] then
    Secview.Pipeline.Denied_empty
      (Option.value !witness
         ~default:"the query matches nothing under the view DTD")
  else if List.for_all (fun t -> String.length t > 0 && t.[0] = '@') r then
    Secview.Pipeline.Denied_empty
      "the query yields only attribute values, which top-level evaluation \
       drops — the answer is the empty node set on every instance"
  else
    let opt =
      try Secview.Optimize.optimize_prepared prep q
      with Image.Too_large -> q
    in
    if A.is_empty opt then
      Secview.Pipeline.Denied_empty
        (Option.value !witness
           ~default:
             "the optimizer reduces the query to the empty path under the \
              view DTD")
    else if A.equal_path opt A.Eps then Secview.Pipeline.Trivial
    else Secview.Pipeline.Needs_eval

let admission vdtd q = admission_prepared (Secview.Optimize.prepare vdtd) q

(* ------------------------------------------------------------------ *)
(* Leakage: structure exposed that no instance can populate            *)
(* ------------------------------------------------------------------ *)

let check_leakage ~dtd view =
  let vdtd = View.dtd view in
  let vroot = Dtd.root vdtd in
  (* Populatable source types per view type: like {!Walker.source_types}
     but stepping σ with {!Image.reach}, which discards branches whose
     qualifiers are decided false — a σ whose qualifier can never hold
     contributes nothing, which is exactly the leak SV410 looks for. *)
  let pop : (string, string list) Hashtbl.t = Hashtbl.create 16 in
  let get v = Option.value (Hashtbl.find_opt pop v) ~default:[] in
  Hashtbl.replace pop vroot [ Dtd.root dtd ];
  let sat_reach srcs sg =
    dedup
      (List.concat_map
         (fun s ->
           match Image.reach dtd sg s with
           | ts -> ts
           | exception Image.Too_large -> silent_reach dtd [ s ] sg)
         srcs)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun a ->
        match get a with
        | [] -> ()
        | srcs ->
          List.iter
            (fun b ->
              match View.sigma view ~parent:a ~child:b with
              | None -> ()
              | Some sg ->
                let merged = dedup (sat_reach srcs sg @ get b) in
                if merged <> get b then begin
                  Hashtbl.replace pop b merged;
                  changed := true
                end)
            (Dtd.children_of vdtd a))
      (Dtd.reachable vdtd)
  done;
  let reachable = Dtd.reachable vdtd in
  (* Only the topmost dead type of an unpopulatable subtree: a type is
     reported when it has a populatable parent but no sources itself —
     its descendants are implied. *)
  let dead_elements =
    List.filter
      (fun b ->
        (not (String.equal b vroot))
        && get b = []
        && List.exists
             (fun a -> get a <> [] && List.mem b (Dtd.children_of vdtd a))
             reachable)
      reachable
  in
  let elem_diags =
    List.map
      (fun b ->
        D.make ~code:"SV410" ~severity:D.Warning ~subject:(D.Element b)
          (Printf.sprintf
             "declared by the view DTD but unpopulatable: every σ path into \
              %s from a populatable parent matches nothing under the \
              document DTD's constraints — exposed structure leaks the shape \
              of hidden data"
             b))
      dead_elements
  in
  let attr_diags =
    List.concat_map
      (fun b ->
        match get b with
        | [] -> []
        | srcs ->
          List.filter_map
            (fun x ->
              if
                List.exists
                  (fun s ->
                    Dtd.mem dtd s && List.mem x (Dtd.attributes dtd s))
                  srcs
              then None
              else
                Some
                  (D.make ~code:"SV410" ~severity:D.Warning
                     ~subject:(D.Element b)
                     (Printf.sprintf
                        "attribute @%s is declared by the view DTD but none \
                         of its source types (%s) carry it — advertised data \
                         no instance can supply"
                        x (comma srcs))))
            (Dtd.attributes vdtd b))
      reachable
  in
  elem_diags @ attr_diags

(* Register with the pipeline so any embedder that links the analysis
   sublibrary gets static admission (the strict-gate pattern — see
   {!Lint}'s registration). *)
let () = Secview.Pipeline.set_admission_analyzer admission_prepared
