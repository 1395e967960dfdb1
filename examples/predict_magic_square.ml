(* The paper's Section 6.2 workflow on a laptop-sized MAGIC-SQUARE: collect
   runtimes, watch the shifted exponential fail the KS test while the
   (shifted) lognormal passes, and predict the saturating speed-up curve
   with its finite limit.

   The pipeline itself is one Engine.run call on a declarative scenario
   (file form: examples/scenarios/magic-square-8.conf); this example only
   adds the Figure 10-style histogram on top of the outcome.

   Run with: dune exec examples/predict_magic_square.exe [-- SIZE RUNS] *)

let () =
  let size = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else 8 in
  let runs = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 250 in
  let scenario =
    Lv_engine.Scenario.make ~problem:"magic-square" ~size ~runs ~seed:2024
      ~cores:[ 2; 4; 8; 16; 32; 64; 128; 256 ]
      ~candidates:Lv_core.Fit.paper_candidates ()
  in
  let outcome = Lv_engine.Engine.run scenario in
  let ds = outcome.Lv_engine.Engine.dataset in
  Format.printf "%s, %d runs: %a@.@." scenario.Lv_engine.Scenario.name runs
    Lv_stats.Summary.pp
    (Lv_multiwalk.Dataset.summary ds);

  (* Histogram of the observations, as in the paper's Figure 10. *)
  let hist =
    Lv_stats.Histogram.make ~binning:(Lv_stats.Histogram.Bins 30)
      ds.Lv_multiwalk.Dataset.values
  in
  print_string (Lv_stats.Histogram.render hist);

  (* Full fit report: every paper candidate with its KS verdict. *)
  (match outcome.Lv_engine.Engine.fit with
  | Some report -> Format.printf "@.%a@.@." Lv_core.Fit.pp_report report
  | None -> ());

  (* Prediction vs plug-in measurement. *)
  Format.printf "%a@." Lv_core.Predict.pp_comparison
    outcome.Lv_engine.Engine.comparison;
  match outcome.Lv_engine.Engine.prediction with
  | Some p when Float.is_finite p.Lv_core.Predict.limit ->
    Format.printf "predicted speed-up ceiling: %.1f@." p.Lv_core.Predict.limit
  | _ -> ()
