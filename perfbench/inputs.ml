(* Seeded inputs, rendered as the XML text the program parses.

   A seed changes values — names, bills, medication codes, which
   departments hold which ward, the generator's choices inside an Adex
   ad — and never the number of departments, patients or ads, so runs
   with different seeds cost about the same and stay comparable. *)

open Sxml.Tree

let letters rng n =
  String.init n (fun _ -> Char.chr (Char.code 'a' + Random.State.int rng 26))

(* [depts] departments, each with [patients] trial and [patients]
   regular patients and [staff] staff.  Wards 0-9 are dealt to the
   departments through a seeded permutation, so exactly [depts / 10]
   of them are ward 6, the ward the nurse group is bound to; every
   patient and nurse of a department carries its ward. *)
let hospital ~seed ~depts ~patients ~staff =
  let rng = Random.State.make [| seed |] in
  let perm = Array.init depts Fun.id in
  for i = depts - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let leaf tag v = elem tag [ text v ] in
  let person () = Printf.sprintf "person%04d" (Random.State.int rng 10000) in
  let bill () = string_of_int (100 + Random.State.int rng 900) in
  let patient ward treatment =
    let name = person () in
    elem "patient"
      [ leaf "name" name; leaf "wardNo" ward; elem "treatment" [ treatment ] ]
  in
  let dept i =
    let ward = string_of_int (perm.(i) mod 10) in
    let trial _ = patient ward (elem "trial" [ leaf "bill" (bill ()) ]) in
    let regular _ =
      let b = bill () in
      patient ward
        (elem "regular" [ leaf "bill" b; leaf "medication" (letters rng 6) ])
    in
    let member k =
      let name = person () in
      if k mod 2 = 0 then
        elem "staff"
          [ elem "doctor" [ leaf "name" name; leaf "specialty" (letters rng 5) ] ]
      else elem "staff" [ elem "nurse" [ leaf "name" name; leaf "wardNo" ward ] ]
    in
    let trials = List.init patients trial in
    let regulars = List.init patients regular in
    let staff = List.init staff member in
    elem "dept"
      [
        elem "clinicalTrial" [ elem "patientInfo" trials; leaf "test" "blood" ];
        elem "patientInfo" regulars;
        elem "staffInfo" staff;
      ]
  in
  Sxml.Print.to_string (of_spec (elem "hospital" (List.init depts dept)))

(* Table 1's D1-D4 Adex series at [scale] ads for D1. *)
let adex ~seed ~scale =
  List.map
    (fun ds ->
      ( ds.Workload.Datasets.name,
        Sxml.Print.to_string (Workload.Datasets.load ~seed ds) ))
    (Workload.Datasets.series ~scale ())
