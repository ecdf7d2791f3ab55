module R = Sdtd.Regex

let dtd =
  let e l = R.Elt l in
  Sdtd.Dtd.create ~root:"site"
    [
      ( "site",
        R.Seq
          [ e "regions"; e "people"; e "open-auctions"; e "closed-auctions" ]
      );
      ("regions", R.Star (e "region"));
      ("region", R.Seq [ e "name"; R.Star (e "item") ]);
      ( "item",
        R.Seq
          [ e "name"; e "location"; e "quantity"; e "payment"; e "description" ]
      );
      ("description", R.Choice [ e "text"; e "parlist" ]);
      ("parlist", R.Star (e "listitem"));
      ("listitem", R.Choice [ e "text"; e "parlist" ]);
      ("people", R.Star (e "person"));
      ( "person",
        R.Seq
          [
            e "name";
            e "emailaddress";
            R.choice [ e "address"; R.Epsilon ];
            R.choice [ e "creditcard"; R.Epsilon ];
            R.choice [ e "profile"; R.Epsilon ];
          ] );
      ("address", R.Seq [ e "street"; e "city"; e "country" ]);
      ("profile", R.Seq [ e "education"; e "income" ]);
      ("open-auctions", R.Star (e "open-auction"));
      ( "open-auction",
        R.Seq
          [
            e "initial"; e "current"; R.Star (e "bidder"); e "itemref";
            e "seller";
          ] );
      ("bidder", R.Seq [ e "date"; e "personref"; e "increase" ]);
      ("closed-auctions", R.Star (e "closed-auction"));
      ( "closed-auction",
        R.Seq [ e "seller"; e "buyer"; e "itemref"; e "price"; e "date" ] );
      ("name", R.Str);
      ("location", R.Str);
      ("quantity", R.Str);
      ("payment", R.Str);
      ("text", R.Str);
      ("emailaddress", R.Str);
      ("creditcard", R.Str);
      ("street", R.Str);
      ("city", R.Str);
      ("country", R.Str);
      ("education", R.Str);
      ("income", R.Str);
      ("initial", R.Str);
      ("current", R.Str);
      ("itemref", R.Str);
      ("seller", R.Str);
      ("buyer", R.Str);
      ("price", R.Str);
      ("date", R.Str);
      ("personref", R.Str);
      ("increase", R.Str);
    ]

let spec =
  Secview.Spec.make dtd
    [
      (("person", "creditcard"), Secview.Spec.No);
      (("person", "profile"), Secview.Spec.No);
      (("item", "payment"), Secview.Spec.No);
      (("site", "closed-auctions"), Secview.Spec.No);
      (("closed-auction", "price"), Secview.Spec.Yes);
      ( ("person", "address"),
        Secview.Spec.Cond
          (Sxpath.Parse.qual_of_string "country = \"US\"") );
    ]

let view =
  let memo = ref None in
  fun () ->
    match !memo with
    | Some v -> v
    | None ->
      let v = Secview.Derive.derive spec in
      memo := Some v;
      v

let queries =
  List.map
    (fun (name, q) -> (name, Sxpath.Parse.of_string q))
    [
      ("X1", "//person/name");
      ("X2", "//open-auction[bidder]/current");
      ("X3", "//item//listitem//text");
      ("X4", "//price");
      ("X5", "//person[address/country = \"US\"]/emailaddress");
    ]

let document ?(seed = 11) ~scale () =
  let config =
    {
      Sdtd.Gen.default_config with
      seed;
      depth_budget = 10;
      star_for =
        (fun parent ->
          match parent with
          | "regions" -> Some (2, 4)
          | "region" -> Some (max 1 (scale / 4), max 1 (scale / 2))
          | "people" -> Some (scale / 2, scale)
          | "open-auctions" -> Some (scale / 2, scale)
          | "closed-auctions" -> Some (scale / 2, scale)
          | "open-auction" -> Some (0, 3) (* bidders *)
          | "parlist" -> Some (1, 3)
          | _ -> None);
      text_for =
        (fun parent rng ->
          match parent with
          | "country" ->
            [| "US"; "DE"; "SG"; "BR" |].(Random.State.int rng 4)
          | "quantity" -> string_of_int (1 + Random.State.int rng 5)
          | _ -> Sdtd.Gen.default_text parent rng);
    }
  in
  Sdtd.Gen.generate ~config dtd
