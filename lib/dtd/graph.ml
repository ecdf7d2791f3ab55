type edge_kind =
  | Child
  | Choice_branch

type edge = {
  parent : string;
  child : string;
  kind : edge_kind;
  starred : bool;
}

let edges dtd =
  let out = ref [] in
  let seen = Hashtbl.create 32 in
  let add edge =
    if not (Hashtbl.mem seen edge) then begin
      Hashtbl.add seen edge ();
      out := edge :: !out
    end
  in
  let rec walk parent ~kind ~starred (rg : Regex.t) =
    match rg with
    | Regex.Empty | Regex.Epsilon | Regex.Str -> ()
    | Regex.Elt child -> add { parent; child; kind; starred }
    | Regex.Seq rs -> List.iter (walk parent ~kind ~starred) rs
    | Regex.Choice rs ->
      List.iter (walk parent ~kind:Choice_branch ~starred) rs
    | Regex.Star r -> walk parent ~kind ~starred:true r
  in
  List.iter
    (fun name -> walk name ~kind:Child ~starred:false (Dtd.production dtd name))
    (Dtd.reachable dtd);
  List.rev !out

let escape_dot s =
  String.concat ""
    (List.map
       (fun c ->
         match c with '"' -> "\\\"" | '\\' -> "\\\\" | c -> String.make 1 c)
       (List.init (String.length s) (String.get s)))

let to_dot ?(highlight = fun _ -> `Normal) dtd =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph dtd {\n  rankdir=TB;\n  node [shape=box, fontsize=10];\n";
  List.iter
    (fun name ->
      let shape =
        if Regex.mentions_str (Dtd.production dtd name) then
          ", style=\"rounded\""
        else ""
      in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" [label=\"%s\"%s];\n" (escape_dot name)
           (escape_dot name) shape))
    (Dtd.reachable dtd);
  List.iter
    (fun { parent; child; kind; starred } ->
      let style_parts =
        (match kind with Child -> [] | Choice_branch -> [ "dashed" ])
        @
        match highlight (parent, child) with
        | `Bold -> [ "bold" ]
        | `Faded -> [ "dotted" ]
        | `Normal -> []
      in
      let attrs =
        (if style_parts = [] then []
         else [ "style=\"" ^ String.concat "," style_parts ^ "\"" ])
        @ (if starred then [ "label=\"*\"" ] else [])
      in
      Buffer.add_string buf
        (Printf.sprintf "  \"%s\" -> \"%s\"%s;\n" (escape_dot parent)
           (escape_dot child)
           (match attrs with
           | [] -> ""
           | attrs -> " [" ^ String.concat ", " attrs ^ "]")))
    (edges dtd);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let spec_style ~annotation (parent, child) =
  match annotation ~parent ~child with
  | Some (`Yes | `Cond) -> `Bold
  | Some `No -> `Faded
  | None -> `Normal
