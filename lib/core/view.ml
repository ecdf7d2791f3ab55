module PairMap = Map.Make (struct
  type t = string * string

  let compare = compare
end)

module SSet = Set.Make (String)

type extraction = {
  child : string;
  dummy : bool;
  query : Sxpath.Ast.path;
  plan : Splan.Compile.t option;
}

type content = {
  model : Sdtd.Regex.t;
  pcdata : bool;
  extractions : extraction array;
}

type t = {
  dtd : Sdtd.Dtd.t;
  sigma : Sxpath.Ast.path PairMap.t;
  dummies : SSet.t;
  dummy_order : string list;
  recproc : (string * Sxpath.Ast.path) list Memo.t;
  compiled : content Memo.t;
}

let make ?(dummies = []) ~dtd ~sigma () =
  let table =
    List.fold_left
      (fun m ((a, b), p) ->
        if PairMap.mem (a, b) m then
          invalid_arg
            (Printf.sprintf "View.make: σ(%s, %s) defined twice" a b);
        if not (List.mem b (Sdtd.Dtd.children_of dtd a)) then
          invalid_arg
            (Printf.sprintf "View.make: σ(%s, %s) is not a view-DTD edge" a b);
        PairMap.add (a, b) p m)
      PairMap.empty sigma
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if not (PairMap.mem (a, b) table) then
            invalid_arg
              (Printf.sprintf "View.make: missing σ(%s, %s)" a b))
        (Sdtd.Dtd.children_of dtd a))
    (Sdtd.Dtd.reachable dtd);
  {
    dtd;
    sigma = table;
    dummies = SSet.of_list dummies;
    dummy_order = dummies;
    recproc = Memo.create ();
    compiled = Memo.create ();
  }

let dtd v = v.dtd
let root v = Sdtd.Dtd.root v.dtd

let sigma v ~parent ~child =
  match PairMap.find_opt (parent, child) v.sigma with
  | Some p -> Some p
  | None ->
    let parent = Sdtd.Unfold.label_of parent
    and child = Sdtd.Unfold.label_of child in
    PairMap.find_opt (parent, child) v.sigma

let sigma_exn v ~parent ~child =
  match sigma v ~parent ~child with
  | Some p -> p
  | None ->
    invalid_arg (Printf.sprintf "View.sigma: no σ(%s, %s)" parent child)

let is_dummy v name = SSet.mem (Sdtd.Unfold.label_of name) v.dummies
let dummies v = v.dummy_order
let recproc v = v.recproc

let content v a =
  Memo.find_or_add v.compiled a (fun () ->
      let model = Sdtd.Dtd.production v.dtd a in
      let extraction child =
        let query = sigma_exn v ~parent:a ~child in
        {
          child;
          dummy = is_dummy v child;
          query;
          plan = Result.to_option (Splan.Compile.compile query);
        }
      in
      {
        model;
        pcdata = Sdtd.Regex.mentions_str model;
        extractions =
          Array.of_list (List.map extraction (Sdtd.Regex.labels model));
      })

let identity_of dtd =
  let sigma =
    List.concat_map
      (fun a ->
        List.map
          (fun b -> ((a, b), Sxpath.Ast.Label b))
          (Sdtd.Dtd.children_of dtd a))
      (Sdtd.Dtd.reachable dtd)
  in
  make ~dtd ~sigma ()

let unfolded v ~height =
  if Sdtd.Dtd.is_recursive v.dtd then
    {
      v with
      dtd = Sdtd.Unfold.unfold v.dtd ~height;
      recproc = Memo.create ();
      compiled = Memo.create ();
    }
  else v

let to_definition v =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "@root %s\n" (root v));
  List.iter
    (fun d -> Buffer.add_string buf (Printf.sprintf "@dummy %s\n" d))
    v.dummy_order;
  Buffer.add_string buf (Sdtd.Dtd.to_string v.dtd);
  PairMap.iter
    (fun (a, b) q ->
      Buffer.add_string buf
        (Printf.sprintf "@sigma %s %s := %s\n" a b (Sxpath.Print.to_string q)))
    v.sigma;
  Buffer.contents buf

let of_definition text =
  let lines = String.split_on_char '\n' text in
  let root = ref None in
  let dummies = ref [] in
  let decls = Buffer.create 512 in
  let sigma = ref [] in
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let fail fmt =
        Printf.ksprintf (fun m -> failwith (Printf.sprintf "line %d: %s" lineno m)) fmt
      in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else if String.length line >= 6 && String.sub line 0 6 = "@root " then
        root := Some (String.trim (String.sub line 6 (String.length line - 6)))
      else if String.length line >= 7 && String.sub line 0 7 = "@dummy " then
        dummies :=
          String.trim (String.sub line 7 (String.length line - 7)) :: !dummies
      else if String.length line >= 7 && String.sub line 0 7 = "@sigma " then begin
        let body = String.sub line 7 (String.length line - 7) in
        match String.index_opt body ':' with
        | Some i
          when i + 1 < String.length body
               && body.[i + 1] = '='
               && i >= 1 -> (
          let lhs = String.trim (String.sub body 0 i) in
          let rhs = String.sub body (i + 2) (String.length body - i - 2) in
          match String.split_on_char ' ' lhs |> List.filter (( <> ) "") with
          | [ a; b ] -> (
            match Sxpath.Parse.of_string (String.trim rhs) with
            | q -> sigma := ((a, b), q) :: !sigma
            | exception Sxpath.Parse.Error e ->
              fail "bad sigma query: %s" (Sxpath.Parse.error_to_string e))
          | _ -> fail "expected '@sigma PARENT CHILD := QUERY'")
        | _ -> fail "expected ':=' in @sigma line"
      end
      else if String.length line >= 2 && String.sub line 0 2 = "<!" then begin
        Buffer.add_string decls line;
        Buffer.add_char decls '\n'
      end
      else fail "unrecognized line: %s" line)
    lines;
  let dtd =
    match Sdtd.Parse.of_string ?root:!root (Buffer.contents decls) with
    | d -> d
    | exception Sdtd.Parse.Error e ->
      failwith ("bad view DTD: " ^ Sdtd.Parse.error_to_string e)
  in
  make ~dummies:(List.rev !dummies) ~dtd ~sigma:(List.rev !sigma) ()

let of_definition_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  of_definition text

let save_definition v path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_definition v))

let pp ppf v =
  List.iter
    (fun a ->
      Format.fprintf ppf "%s -> %s@." a
        (Sdtd.Regex.to_string (Sdtd.Dtd.production v.dtd a));
      List.iter
        (fun b ->
          Format.fprintf ppf "  sigma(%s, %s) = %a@." a b Sxpath.Print.pp
            (sigma_exn v ~parent:a ~child:b))
        (Sdtd.Dtd.children_of v.dtd a))
    (Sdtd.Dtd.element_types v.dtd);
  match v.dummy_order with
  | [] -> ()
  | ds -> Format.fprintf ppf "dummies: %s@." (String.concat ", " ds)
