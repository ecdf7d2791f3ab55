type path =
  | Empty
  | Eps
  | Label of string
  | Wildcard
  | Attribute of string
  | Slash of path * path
  | Dslash of path
  | Union of path * path
  | Qualify of path * qual

and qual =
  | True
  | False
  | Exists of path
  | Eq of path * value
  | And of qual * qual
  | Or of qual * qual
  | Not of qual

and value =
  | Const of string
  | Var of string

let equal_path (a : path) (b : path) = a = b
let equal_qual (a : qual) (b : qual) = a = b

let union_branches p =
  let rec onto acc = function
    | Empty -> acc
    | Union (a, b) -> onto (onto acc a) b
    | p -> p :: acc
  in
  List.rev (onto [] p)

let is_empty p = p = Empty

let slash a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Eps, p | p, Eps -> p
  | a, b -> Slash (a, b)

let dslash p = match p with Empty -> Empty | p -> Dslash p

(* A hash over the whole term: [Hashtbl.hash] stops after a bounded
   prefix, so branches that differ only deep down (a constant under a
   long common prefix) would all collide. *)
let mix h x = (h * 65599) + x

let rec hash_path = function
  | Empty -> 0
  | Eps -> 1
  | Label l -> mix 2 (Hashtbl.hash l)
  | Wildcard -> 3
  | Attribute a -> mix 4 (Hashtbl.hash a)
  | Slash (a, b) -> mix (mix 5 (hash_path a)) (hash_path b)
  | Dslash p -> mix 6 (hash_path p)
  | Union (a, b) -> mix (mix 7 (hash_path a)) (hash_path b)
  | Qualify (p, q) -> mix (mix 8 (hash_path p)) (hash_qual q)

and hash_qual = function
  | True -> 9
  | False -> 10
  | Exists p -> mix 11 (hash_path p)
  | Eq (p, Const c) -> mix (mix 12 (hash_path p)) (Hashtbl.hash c)
  | Eq (p, Var v) -> mix (mix 13 (hash_path p)) (Hashtbl.hash v)
  | And (a, b) -> mix (mix 14 (hash_qual a)) (hash_qual b)
  | Or (a, b) -> mix (mix 15 (hash_qual a)) (hash_qual b)
  | Not q -> mix 16 (hash_qual q)

module Seen = Hashtbl.Make (struct
  type t = path

  let equal = equal_path
  let hash = hash_path
end)

(* Keep the first occurrence of each branch; the hash set, sized so it
   never grows, keeps the cost linear in the total size. *)
let dedup branches =
  let seen = Seen.create (List.length branches) in
  List.filter
    (fun p ->
      (not (Seen.mem seen p))
      && begin
           Seen.add seen p ();
           true
         end)
    branches

let of_branches = function
  | [] -> Empty
  | first :: rest -> List.fold_left (fun acc p -> Union (acc, p)) first rest

let union a b =
  match (a, b) with
  | Empty, p | p, Empty -> p
  | a, b -> of_branches (dedup (union_branches a @ union_branches b))

(* The fold of [union] over [ps] with a single dedup: the first non-∅
   operand is kept as given, and from the second on every operand's
   branches are collected (newest first) and deduplicated once. *)
let union_all ps =
  let step state p =
    match (state, p) with
    | _, Empty -> state
    | `Empty, p -> `One p
    | `One a, p -> (
      match union_branches a @ union_branches p with
      | [] -> `Empty
      | branches -> `Many (List.rev branches))
    | `Many rev, p -> `Many (List.rev_append (union_branches p) rev)
  in
  match List.fold_left step `Empty ps with
  | `Empty -> Empty
  | `One p -> p
  | `Many rev -> of_branches (dedup (List.rev rev))

let qualify p q =
  match (p, q) with
  | Empty, _ -> Empty
  | p, True -> p
  | _, False -> Empty
  | p, q -> Qualify (p, q)

let exists = function
  | Empty -> False
  | Eps -> True
  | p -> Exists p

let qand a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, q | q, True -> q
  | a, b -> if equal_qual a b then a else And (a, b)

let qor a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, q | q, False -> q
  | a, b -> if equal_qual a b then a else Or (a, b)

let qnot = function
  | True -> False
  | False -> True
  | Not q -> q
  | q -> Not q

let seq_of ps = List.fold_left slash Eps ps

let rec size = function
  | Empty | Eps | Label _ | Wildcard | Attribute _ -> 1
  | Slash (a, b) -> 1 + size a + size b
  | Dslash p -> 1 + size p
  | Union (a, b) -> 1 + size a + size b
  | Qualify (p, q) -> 1 + size p + qual_size q

and qual_size = function
  | True | False -> 1
  | Exists p -> 1 + size p
  | Eq (p, _) -> 1 + size p
  | And (a, b) | Or (a, b) -> 1 + qual_size a + qual_size b
  | Not q -> 1 + qual_size q

let subpaths p =
  (* Children-first postorder, structurally deduplicated: the ascending
     list Q of Fig. 6. *)
  let seen = Hashtbl.create 32 in
  let out = ref [] in
  let add p =
    if not (Hashtbl.mem seen p) then begin
      Hashtbl.add seen p ();
      out := p :: !out
    end
  in
  let rec go_path p =
    (match p with
    | Empty | Eps | Label _ | Wildcard | Attribute _ -> ()
    | Slash (a, b) | Union (a, b) ->
      go_path a;
      go_path b
    | Dslash a -> go_path a
    | Qualify (a, q) ->
      go_path a;
      go_qual q);
    add p
  and go_qual = function
    | True | False -> ()
    | Exists p | Eq (p, _) -> go_path p
    | And (a, b) | Or (a, b) ->
      go_qual a;
      go_qual b
    | Not q -> go_qual q
  in
  go_path p;
  List.rev !out

let rec mem_attribute = function
  | Attribute _ -> true
  | Empty | Eps | Label _ | Wildcard -> false
  | Slash (a, b) | Union (a, b) -> mem_attribute a || mem_attribute b
  | Dslash p -> mem_attribute p
  | Qualify (p, q) -> mem_attribute p || qual_mem_attribute q

and qual_mem_attribute = function
  | True | False -> false
  | Exists p | Eq (p, _) -> mem_attribute p
  | And (a, b) | Or (a, b) -> qual_mem_attribute a || qual_mem_attribute b
  | Not q -> qual_mem_attribute q

let variables p =
  let seen = Hashtbl.create 4 in
  let out = ref [] in
  let rec go_path = function
    | Empty | Eps | Label _ | Wildcard | Attribute _ -> ()
    | Slash (a, b) | Union (a, b) ->
      go_path a;
      go_path b
    | Dslash p -> go_path p
    | Qualify (p, q) ->
      go_path p;
      go_qual q
  and go_qual = function
    | True | False -> ()
    | Exists p -> go_path p
    | Eq (p, v) -> (
      go_path p;
      match v with
      | Var name ->
        if not (Hashtbl.mem seen name) then begin
          Hashtbl.add seen name ();
          out := name :: !out
        end
      | Const _ -> ())
    | And (a, b) | Or (a, b) ->
      go_qual a;
      go_qual b
    | Not q -> go_qual q
  in
  go_path p;
  List.rev !out

let rec substitute env = function
  | (Empty | Eps | Label _ | Wildcard | Attribute _) as p -> p
  | Slash (a, b) -> Slash (substitute env a, substitute env b)
  | Dslash p -> Dslash (substitute env p)
  | Union (a, b) -> Union (substitute env a, substitute env b)
  | Qualify (p, q) -> Qualify (substitute env p, substitute_qual env q)

and substitute_qual env = function
  | (True | False) as q -> q
  | Exists p -> Exists (substitute env p)
  | Eq (p, v) ->
    let v =
      match v with
      | Var name -> (
        match env name with Some c -> Const c | None -> Var name)
      | Const _ -> v
    in
    Eq (substitute env p, v)
  | And (a, b) -> And (substitute_qual env a, substitute_qual env b)
  | Or (a, b) -> Or (substitute_qual env a, substitute_qual env b)
  | Not q -> Not (substitute_qual env q)
