type annot =
  | Yes
  | Cond of Sxpath.Ast.qual
  | No

type write_op =
  | Insert
  | Delete
  | Replace

let all_write_ops = [ Insert; Delete; Replace ]

let write_op_to_string = function
  | Insert -> "insert"
  | Delete -> "delete"
  | Replace -> "replace"

let write_op_of_string = function
  | "insert" -> Some Insert
  | "delete" -> Some Delete
  | "replace" -> Some Replace
  | _ -> None

module PairMap = Map.Make (struct
  type t = string * string

  let compare = compare
end)

type t = {
  dtd : Sdtd.Dtd.t;
  ann : annot PairMap.t;
  order : ((string * string) * annot) list;
  write : write_op list PairMap.t;
  write_order : ((string * string) * write_op list) list;
}

let make ?(write = []) dtd anns =
  let check_edge (a, b) =
    match Sdtd.Dtd.production_opt dtd a with
    | None ->
      invalid_arg (Printf.sprintf "Spec.make: unknown element type %S" a)
    | Some rg ->
      let ok =
        if String.equal b Sdtd.Regex.pcdata then Sdtd.Regex.mentions_str rg
        else if String.length b > 0 && b.[0] = '@' then
          List.mem
            (String.sub b 1 (String.length b - 1))
            (Sdtd.Dtd.attributes dtd a)
        else List.mem b (Sdtd.Regex.labels rg)
      in
      if not ok then
        invalid_arg
          (Printf.sprintf "Spec.make: (%s, %s) is not an edge of the DTD" a b)
  in
  let ann =
    List.fold_left
      (fun m ((a, b), annot) ->
        check_edge (a, b);
        if PairMap.mem (a, b) m then
          invalid_arg
            (Printf.sprintf "Spec.make: (%s, %s) annotated twice" a b);
        (match annot with
        | Cond _
          when String.equal b Sdtd.Regex.pcdata
               || (String.length b > 0 && b.[0] = '@') ->
          invalid_arg
            (Printf.sprintf
               "Spec.make: conditional annotation on %s is not enforceable \
                by query rewriting"
               b)
        | _ -> ());
        PairMap.add (a, b) annot m)
      PairMap.empty anns
  in
  let wmap =
    List.fold_left
      (fun m ((a, b), ops) ->
        check_edge (a, b);
        if PairMap.mem (a, b) m then
          invalid_arg
            (Printf.sprintf "Spec.make: write (%s, %s) granted twice" a b);
        let ops = List.sort_uniq compare ops in
        PairMap.add (a, b) ops m)
      PairMap.empty write
  in
  { dtd; ann; order = anns; write = wmap; write_order = write }

let dtd spec = spec.dtd

let annotation spec ~parent ~child = PairMap.find_opt (parent, child) spec.ann

let annotations spec = spec.order

let writable spec ~parent ~child op =
  match PairMap.find_opt (parent, child) spec.write with
  | None -> false
  | Some ops -> List.mem op ops

let variables spec =
  let seen = Hashtbl.create 4 in
  let out = ref [] in
  List.iter
    (fun (_, annot) ->
      match annot with
      | Yes | No -> ()
      | Cond q ->
        List.iter
          (fun v ->
            if not (Hashtbl.mem seen v) then begin
              Hashtbl.add seen v ();
              out := v :: !out
            end)
          (Sxpath.Ast.variables (Sxpath.Ast.Qualify (Sxpath.Ast.Eps, q))))
    spec.order;
  List.rev !out

let pp_annot ppf = function
  | Yes -> Format.pp_print_string ppf "Y"
  | No -> Format.pp_print_string ppf "N"
  | Cond q -> Format.fprintf ppf "[%a]" Sxpath.Print.pp_qual q

(* Sidecar format: 'parent child Y|N|[qual]' lines, plus write grants
   as 'write parent child OPS' (OPS a comma-list of
   insert/delete/replace, or 'all'/'none').  A line whose first
   non-blank character is '#' is a comment, as is anything after
   " # " — but the bare token "#PCDATA" is a child name, so '#' alone
   does not open a comment. *)
let parse_write_ops lineno s =
  match s with
  | "all" -> all_write_ops
  | "none" -> []
  | s ->
    List.map
      (fun tok ->
        match write_op_of_string (String.trim tok) with
        | Some op -> op
        | None ->
          failwith
            (Printf.sprintf
               "line %d: expected insert, delete, replace, all or none, \
                got %S"
               lineno tok))
      (String.split_on_char ',' s)

let of_sidecar dtd text =
  let strip_comment line =
    let line =
      match String.index_opt line '#' with
      | Some 0 -> ""
      | _ -> line
    in
    let rec cut i =
      if i + 2 >= String.length line then line
      else if line.[i] = ' ' && line.[i + 1] = '#' && line.[i + 2] = ' ' then
        String.sub line 0 i
      else cut (i + 1)
    in
    if String.trim line = "" then "" else cut 0
  in
  let parse_line lineno line =
    let line = String.trim (strip_comment line) in
    if line = "" then None
    else
      match String.split_on_char ' ' line |> List.filter (( <> ) "") with
      | "write" :: parent :: child :: rest ->
        let ops_text = String.concat "" rest in
        if ops_text = "" then
          failwith
            (Printf.sprintf "line %d: expected 'write parent child ops'"
               lineno)
        else Some (`Write ((parent, child), parse_write_ops lineno ops_text))
      | parent :: child :: rest -> (
        let annot_text = String.concat " " rest in
        match annot_text with
        | "Y" -> Some (`Ann ((parent, child), Yes))
        | "N" -> Some (`Ann ((parent, child), No))
        | s
          when String.length s >= 2
               && s.[0] = '['
               && s.[String.length s - 1] = ']' -> (
          match
            Sxpath.Parse.qual_of_string
              (String.sub s 1 (String.length s - 2))
          with
          | q -> Some (`Ann ((parent, child), Cond q))
          | exception Sxpath.Parse.Error e ->
            failwith
              (Printf.sprintf "line %d: bad qualifier: %s" lineno
                 (Sxpath.Parse.error_to_string e)))
        | s ->
          failwith
            (Printf.sprintf "line %d: expected Y, N or [qualifier], got %S"
               lineno s))
      | _ ->
        failwith
          (Printf.sprintf "line %d: expected 'parent child annotation'"
             lineno)
  in
  let lines = String.split_on_char '\n' text in
  let parsed =
    List.concat
      (List.mapi
         (fun i line ->
           match parse_line (i + 1) line with Some a -> [ a ] | None -> [])
         lines)
  in
  let anns =
    List.filter_map (function `Ann a -> Some a | `Write _ -> None) parsed
  in
  let write =
    List.filter_map (function `Write w -> Some w | `Ann _ -> None) parsed
  in
  make ~write dtd anns

let of_sidecar_file dtd path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_sidecar dtd text

let to_sidecar spec =
  let buf = Buffer.create 256 in
  List.iter
    (fun ((a, b), annot) ->
      let value =
        match annot with
        | Yes -> "Y"
        | No -> "N"
        | Cond q -> "[" ^ Sxpath.Print.qual_to_string q ^ "]"
      in
      Buffer.add_string buf (Printf.sprintf "%s %s %s\n" a b value))
    spec.order;
  List.iter
    (fun ((a, b), ops) ->
      let value =
        match ops with
        | [] -> "none"
        | ops ->
          if List.length ops = List.length all_write_ops then "all"
          else String.concat "," (List.map write_op_to_string ops)
      in
      Buffer.add_string buf (Printf.sprintf "write %s %s %s\n" a b value))
    spec.write_order;
  Buffer.contents buf

let pp ppf spec =
  List.iter
    (fun name ->
      let annotated_here =
        List.filter (fun ((a, _), _) -> String.equal a name) spec.order
      in
      if annotated_here <> [] then begin
        Format.fprintf ppf "%s -> %s@." name
          (Sdtd.Regex.to_string (Sdtd.Dtd.production spec.dtd name));
        List.iter
          (fun ((a, b), annot) ->
            Format.fprintf ppf "  ann(%s, %s) = %a@." a b pp_annot annot)
          annotated_here
      end)
    (Sdtd.Dtd.element_types spec.dtd)
