(* Coinductive simulation: pairs currently being decided are assumed
   to hold (greatest fixpoint), which is the standard treatment and
   terminates on cyclic image graphs. *)

type status = In_progress | Decided of bool

let simulated (g1 : Image.t) (g2 : Image.t) =
  let memo : (int * int, status) Hashtbl.t = Hashtbl.create 64 in
  (* Result (frontier) nodes of g1 may only be simulated by result
     nodes of g2: the mapping must send answers to answers, a condition
     Proposition 5.1 needs even though the paper's simulation
     definition leaves it implicit (without it, [a/*] would be
     "contained" in any query whose image passes through a's
     children). *)
  let ids nodes =
    let t = Hashtbl.create 8 in
    List.iter (fun (n : Image.node) -> Hashtbl.replace t n.Image.id ()) nodes;
    t
  in
  let f1 = ids g1.frontier and f2 = ids g2.frontier in
  let rec simu (v1 : Image.node) (v2 : Image.node) =
    match Hashtbl.find_opt memo (v1.id, v2.id) with
    | Some (Decided b) -> b
    | Some In_progress -> true
    | None ->
      Hashtbl.replace memo (v1.id, v2.id) In_progress;
      let answer =
        String.equal v1.label v2.label
        && (not (Hashtbl.mem f1 v1.id) || Hashtbl.mem f2 v2.id)
        && List.for_all
             (fun x -> List.exists (fun y -> simu x y) v2.kids)
             v1.kids
        && quals_ok v1 v2
      in
      Hashtbl.replace memo (v1.id, v2.id) (Decided answer);
      answer
  and quals_ok v1 v2 =
    (* Every qualifier of v2 must be implied by some qualifier of v1.
       Ambiguous qualifier sets hold only on one union branch: unusable
       as implications (v1 side), never implied (v2 side). *)
    match v2.quals with
    | [] -> true
    | _ when v2.ambiguous -> false
    | v2_quals ->
      let usable = if v1.ambiguous then [] else v1.quals in
      List.for_all
        (fun y -> List.exists (fun x -> implies x y) usable)
        v2_quals
  and implies (x : Image.node) (y : Image.node) =
    (* [x] implies [y] when every way [x] can hold — every
       root-to-end path of its image — has a prefix that is a way [y]
       holds.  Embedding [y]'s image into [x]'s is not enough: an
       image's children are alternatives, so [*] would imply [b]. *)
    let ends_x = ids x.ends and ends_y = ids y.ends in
    let memo : (int * int, status) Hashtbl.t = Hashtbl.create 16 in
    let rec go (n1 : Image.node) (n2 : Image.node) =
      match Hashtbl.find_opt memo (n1.id, n2.id) with
      | Some (Decided b) -> b
      | Some In_progress -> true
      | None ->
        Hashtbl.replace memo (n1.id, n2.id) In_progress;
        let answer =
          String.equal n1.label n2.label
          && quals_ok n1 n2
          && (Hashtbl.mem ends_y n2.id
             || (not (Hashtbl.mem ends_x n1.id))
                && List.for_all
                     (fun k1 -> List.exists (fun k2 -> go k1 k2) n2.kids)
                     n1.kids)
        in
        Hashtbl.replace memo (n1.id, n2.id) (Decided answer);
        answer
    in
    go x y
  in
  simu g1.root g2.root

let contained dtd p1 p2 a =
  match (Image.image dtd p1 a, Image.image dtd p2 a) with
  | None, _ -> true (* p1 can return nothing at a *)
  | Some _, None -> false
  | Some g1, Some g2 -> simulated g1 g2
  | exception Image.Too_large -> false (* cannot decide: claim nothing *)
