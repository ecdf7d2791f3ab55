(* The Section 6 experimental workload as a walkthrough: the Adex-like
   classified-ads DTD, the buyers+real-estate policy, and the four
   benchmark queries under all three evaluation strategies (naive /
   rewrite / optimize), with work counters showing why Table 1 comes
   out the way it does.

   Run with: dune exec examples/adex_realestate.exe *)

let () =
  let dtd = Workload.Adex.dtd in
  let spec = Workload.Adex.spec in
  let view = Workload.Adex.view () in
  let doc = Workload.Adex.document ~ads:80 ~buyers:40 () in
  Format.printf "document: %s@." (Workload.Datasets.describe doc);

  Format.printf "@.== Security view ==@.";
  Format.printf
    "policy: children of the root are N; buyer-info and real-estate are Y@.";
  Format.printf "view DTD exposed to the user:@.%a@." Sdtd.Dtd.pp
    (Secview.View.dtd view);

  (* offline step for the naive strategy *)
  let prepared = Secview.Naive.prepare spec doc in

  let work root p =
    let visits = ref 0 in
    let t0 = Unix.gettimeofday () in
    let result = Sxpath.Eval.run ~visits (Sxpath.Eval.Ctx.make ~root ()) p in
    let dt = (Unix.gettimeofday () -. t0) *. 1000. in
    (result, !visits, dt)
  in

  Format.printf "@.== The four queries of Section 6 ==@.";
  List.iter
    (fun (name, q) ->
      Format.printf "@.%s = %a@." name Sxpath.Print.pp q;
      let naive_q = Secview.Naive.rewrite_query ~view q in
      let rewritten = Secview.Rewrite.rewrite view q in
      let optimized = Secview.Optimize.optimize dtd rewritten in
      Format.printf "  naive form     %a@." Sxpath.Print.pp naive_q;
      Format.printf "  rewritten form %a@." Sxpath.Print.pp rewritten;
      Format.printf "  optimized form %a@." Sxpath.Print.pp optimized;
      let r_naive, w_naive, t_naive = work prepared naive_q in
      let r_rw, w_rw, t_rw = work doc rewritten in
      let r_opt, w_opt, t_opt = work doc optimized in
      Format.printf
        "  naive    : %4d results  %8d nodes visited  %7.2f ms@."
        (List.length r_naive) w_naive t_naive;
      Format.printf
        "  rewrite  : %4d results  %8d nodes visited  %7.2f ms@."
        (List.length r_rw) w_rw t_rw;
      Format.printf
        "  optimize : %4d results  %8d nodes visited  %7.2f ms@."
        (List.length r_opt) w_opt t_opt;
      assert (List.length r_naive = List.length r_rw);
      assert (List.length r_rw = List.length r_opt))
    Workload.Adex.queries;

  Format.printf
    "@.(Q4's rewritten form is already empty: the view DTD proves a house@.";
  Format.printf
    " can never have a unit-type descendant, so evaluation is skipped —@.";
  Format.printf
    " the paper reaches the same conclusion one stage later, through the@.";
  Format.printf " exclusive constraint at real-estate.)@."
