(* Tests for the statistical validation subsystem (lv_validate): bootstrap
   confidence bands over the whole fit→predict pipeline, held-out
   cross-validation, the simulation-based calibration oracle, and the
   Scenario/Engine/artifact wiring.  Everything is seeded: a failure here
   reproduces identically. *)

open Lv_stats
module Validate = Lv_validate.Validate
module Fit = Lv_core.Fit
module Scenario = Lv_engine.Scenario
module Engine = Lv_engine.Engine
module Ctx = Lv_context.Context
module Json = Lv_telemetry.Json

let check_invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* Structural equality through the canonical JSON rendering: NaN-safe
   (OCaml's [=] is false on nan = nan; the encoder spells both sides
   "null") and exactly what the artifact cache stores. *)
let render r = Json.to_string (Validate.to_json r)

let check_same_report name a b =
  Alcotest.(check string) name (render a) (render b)

let exp_sample ~seed ~rate n =
  let rng = Rng.create ~seed in
  Array.init n (fun _ -> Rng.exponential rng ~rate)

let fit_exponential xs = Fit.fit ~candidates:[ Fit.Exponential ] xs

let cores = [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_default_config () =
  let c = Validate.default_config in
  Alcotest.(check int) "replicates" 200 c.Validate.replicates;
  Alcotest.(check int) "folds" 2 c.Validate.folds;
  Alcotest.(check (float 0.)) "level" 0.95 c.Validate.level;
  Alcotest.(check int) "trials" 0 c.Validate.trials;
  Validate.check_config c

let test_config_validation () =
  let d = Validate.default_config in
  check_invalid "replicates 1" (fun () ->
      Validate.check_config { d with Validate.replicates = 1 });
  check_invalid "folds 1" (fun () ->
      Validate.check_config { d with Validate.folds = 1 });
  check_invalid "level 0" (fun () ->
      Validate.check_config { d with Validate.level = 0. });
  check_invalid "level 1" (fun () ->
      Validate.check_config { d with Validate.level = 1. });
  check_invalid "negative trials" (fun () ->
      Validate.check_config { d with Validate.trials = -1 })

(* ------------------------------------------------------------------ *)
(* Bootstrap bands                                                     *)
(* ------------------------------------------------------------------ *)

let bands ?pool ?(seed = 11) ?(replicates = 80) xs =
  Validate.bootstrap_bands ?pool ~replicates ~seed ~cores
    ~report:(fit_exponential xs) xs

let test_bands_shape () =
  let xs = exp_sample ~seed:5 ~rate:0.02 120 in
  let b = bands xs in
  Alcotest.(check string) "family" "exponential" b.Validate.family;
  Alcotest.(check int) "replicates recorded" 80 b.Validate.replicates;
  Alcotest.(check int) "exponential MLE never drops" 0 b.Validate.dropped;
  Alcotest.(check (list string))
    "one band per parameter" [ "lambda" ]
    (List.map (fun p -> p.Validate.param) b.Validate.params);
  Alcotest.(check (list int))
    "one band per core count" cores
    (List.map (fun (c : Validate.curve_band) -> c.Validate.cores)
       b.Validate.curve);
  List.iter
    (fun (p : Validate.param_band) ->
      let i = p.Validate.interval in
      if not (i.Bootstrap.lo <= i.Bootstrap.hi) then
        Alcotest.failf "param band %s inverted" p.Validate.param;
      Alcotest.(check (float 0.)) "band level" 0.95 i.Bootstrap.level)
    b.Validate.params;
  List.iter
    (fun (c : Validate.curve_band) ->
      let i = c.Validate.interval in
      if not (Bootstrap.covers i i.Bootstrap.estimate) then
        Alcotest.failf "curve band at %d cores misses its own estimate"
          c.Validate.cores)
    b.Validate.curve

let test_bands_estimate_matches_base_fit () =
  let xs = exp_sample ~seed:6 ~rate:1.5 90 in
  let report = fit_exponential xs in
  let fitted = List.hd report.Fit.fits in
  let lambda = List.assoc "lambda" fitted.Fit.dist.Distribution.params in
  let b =
    Validate.bootstrap_bands ~replicates:40 ~seed:1 ~cores ~report xs
  in
  let band = List.hd b.Validate.params in
  Alcotest.(check (float 1e-12))
    "band centered on the base estimate" lambda
    band.Validate.interval.Bootstrap.estimate

let test_bands_deterministic () =
  let xs = exp_sample ~seed:7 ~rate:0.5 60 in
  let report = fit_exponential xs in
  let b1 = Validate.bootstrap_bands ~replicates:50 ~seed:3 ~cores ~report xs
  and b2 = Validate.bootstrap_bands ~replicates:50 ~seed:3 ~cores ~report xs in
  Alcotest.(check bool) "same seed, same bands" true (compare b1 b2 = 0)

let test_bands_seed_sensitivity () =
  let xs = exp_sample ~seed:7 ~rate:0.5 60 in
  let report = fit_exponential xs in
  let b1 = Validate.bootstrap_bands ~replicates:50 ~seed:3 ~cores ~report xs
  and b2 = Validate.bootstrap_bands ~replicates:50 ~seed:4 ~cores ~report xs in
  Alcotest.(check bool) "different seed, different bands" true
    (compare b1 b2 <> 0)

let test_bands_pool_size_invariant () =
  (* The acceptance bar: byte-identical bands for pools of 1, 4 and 8
     workers — replicate RNG streams derive from (seed, index) alone. *)
  let xs = exp_sample ~seed:8 ~rate:0.1 80 in
  let report = fit_exponential xs in
  let with_domains domains =
    Lv_exec.Pool.with_pool ~domains @@ fun pool ->
    Validate.bootstrap_bands ~pool ~replicates:64 ~seed:12 ~cores ~report xs
  in
  let serial =
    Validate.bootstrap_bands ~pool:Lv_exec.Pool.serial ~replicates:64
      ~seed:12 ~cores ~report xs
  in
  List.iter
    (fun domains ->
      Alcotest.(check bool)
        (Printf.sprintf "pool of %d = serial" domains)
        true
        (compare (with_domains domains) serial = 0))
    [ 1; 4; 8 ]

let test_bands_reject_degenerate_input () =
  let xs = exp_sample ~seed:9 ~rate:1. 30 in
  let report = fit_exponential xs in
  check_invalid "single observation" (fun () ->
      Validate.bootstrap_bands ~seed:1 ~cores ~report [| 1.0 |]);
  check_invalid "bad replicates" (fun () ->
      Validate.bootstrap_bands ~replicates:1 ~seed:1 ~cores ~report xs);
  check_invalid "bad level" (fun () ->
      Validate.bootstrap_bands ~level:1.5 ~seed:1 ~cores ~report xs)

let test_bands_normal_family_has_no_curve () =
  (* Gaussian support dips below zero: parameter bands exist, the
     speed-up curve does not (the multi-walk transform is undefined). *)
  let rng = Rng.create ~seed:21 in
  let xs = Array.init 80 (fun _ -> 50. +. (4. *. Rng.normal rng)) in
  let report = Fit.fit ~candidates:[ Fit.Normal ] xs in
  let b = Validate.bootstrap_bands ~replicates:30 ~seed:2 ~cores ~report xs in
  Alcotest.(check (list int)) "no curve bands" []
    (List.map (fun (c : Validate.curve_band) -> c.Validate.cores)
       b.Validate.curve);
  Alcotest.(check bool) "parameter bands survive" true
    (List.length b.Validate.params >= 2)

(* ------------------------------------------------------------------ *)
(* Held-out cross-validation                                           *)
(* ------------------------------------------------------------------ *)

let test_holdout_shape_and_sizes () =
  let xs = exp_sample ~seed:13 ~rate:0.2 101 in
  let h =
    Validate.holdout ~candidates:[ Fit.Exponential ] ~folds:4 ~seed:5 ~cores
      xs
  in
  Alcotest.(check int) "4 folds" 4 (List.length h.Validate.folds);
  List.iter
    (fun (f : Validate.fold_report) ->
      Alcotest.(check int) "train + test = n" 101
        (f.Validate.train_size + f.Validate.test_size);
      Alcotest.(check int) "ks ran on the held-out split" f.Validate.test_size
        f.Validate.ks.Kolmogorov.n;
      Alcotest.(check string) "family" "exponential" f.Validate.family)
    h.Validate.folds;
  (* Round-robin deal over a permutation: fold sizes differ by <= 1. *)
  let sizes =
    List.map (fun f -> f.Validate.test_size) h.Validate.folds
  in
  let mn = List.fold_left min max_int sizes
  and mx = List.fold_left max 0 sizes in
  Alcotest.(check bool) "balanced folds" true (mx - mn <= 1);
  Alcotest.(check int) "sizes partition n" 101 (List.fold_left ( + ) 0 sizes)

let test_holdout_deterministic_split () =
  let xs = exp_sample ~seed:14 ~rate:2. 64 in
  let run () =
    Validate.holdout ~candidates:[ Fit.Exponential ] ~seed:9 ~cores xs
  in
  Alcotest.(check bool) "same seed, same folds" true
    (compare (run ()) (run ()) = 0);
  let other =
    Validate.holdout ~candidates:[ Fit.Exponential ] ~seed:10 ~cores xs
  in
  Alcotest.(check bool) "different seed, different split" true
    (compare (run ()) other <> 0)

let test_holdout_accepts_own_law () =
  (* Data genuinely exponential, exponential candidate: the held-out KS
     should accept and the predicted speed-up should track the plug-in
     empirical one.  Seeded, so this is a regression check, not a flake. *)
  let xs = exp_sample ~seed:15 ~rate:0.05 200 in
  let h =
    Validate.holdout ~candidates:[ Fit.Exponential ] ~alpha:0.01 ~seed:1
      ~cores xs
  in
  Alcotest.(check int) "no rejections" 0 h.Validate.rejections;
  Alcotest.(check bool) "speed-up error bounded" true
    (h.Validate.max_speedup_err < 0.5);
  Alcotest.(check bool) "mean statistic sane" true
    (h.Validate.mean_statistic > 0. && h.Validate.mean_statistic < 0.2)

let test_holdout_validation () =
  let xs = exp_sample ~seed:16 ~rate:1. 40 in
  check_invalid "folds < 2" (fun () ->
      Validate.holdout ~folds:1 ~seed:1 ~cores xs);
  check_invalid "too few observations" (fun () ->
      Validate.holdout ~folds:4 ~seed:1 ~cores (Array.sub xs 0 7))

(* ------------------------------------------------------------------ *)
(* Calibration oracle                                                  *)
(* ------------------------------------------------------------------ *)

let test_oracle_exponential_calibration () =
  (* The acceptance bar: over >= 200 seeded synthetic-exponential trials,
     empirical coverage of the 95% bands lands in [0.90, 0.99] and the
     held-out KS false-rejection rate stays within 2x alpha. *)
  let truth = Exponential.create ~rate:0.01 in
  let o =
    Lv_exec.Pool.with_pool ~domains:4 @@ fun pool ->
    Validate.oracle ~pool ~alpha:0.05 ~replicates:200 ~level:0.95 ~trials:200
      ~seed:77 ~cores ~runs:100 ~candidate:Fit.Exponential ~truth ()
  in
  Alcotest.(check int) "no pipeline failures" 0 o.Validate.failures;
  let coverage = List.assoc "lambda" o.Validate.param_coverage in
  if not (coverage >= 0.90 && coverage <= 0.99) then
    Alcotest.failf "lambda coverage %.3f outside [0.90, 0.99]" coverage;
  (* The plain exponential's curve is G_n = n whatever lambda is, so its
     curve bands are degenerate and cover the truth exactly: coverage may
     legitimately be 1.0 here, unlike the parameter bands above. *)
  if not (o.Validate.curve_coverage >= 0.90) then
    Alcotest.failf "curve coverage %.3f below 0.90" o.Validate.curve_coverage;
  let false_rejection_rate =
    float_of_int o.Validate.ks_rejections /. float_of_int o.Validate.trials
  in
  if not (false_rejection_rate <= 2. *. 0.05) then
    Alcotest.failf "KS false-rejection rate %.3f above 2x alpha"
      false_rejection_rate;
  let recovery = List.assoc "lambda" o.Validate.mean_abs_rel_error in
  Alcotest.(check bool) "lambda recovered" true (recovery < 0.25)

let truth_of_candidate = function
  | Fit.Exponential -> Exponential.create ~rate:0.5
  | Fit.Shifted_exponential -> Exponential.shifted ~x0:10. ~rate:0.5
  | Fit.Lognormal -> Lognormal.create ~mu:2. ~sigma:0.6
  | Fit.Shifted_lognormal -> Lognormal.shifted ~x0:15. ~mu:2. ~sigma:0.6
  | Fit.Normal -> Normal.create ~mu:40. ~sigma:5.
  | Fit.Weibull -> Weibull.create ~shape:1.6 ~scale:30.
  | Fit.Gamma -> Gamma_dist.create ~shape:2.5 ~rate:0.2
  | Fit.Levy -> Levy.create ~scale:4.

let test_oracle_recovers_every_family () =
  (* Every candidate family the fitter knows must survive its own oracle:
     synthetic data from the family, fit_one recovers parameters with
     bounded error and nonzero band coverage.  Looser than the
     exponential calibration test — some estimators (Levy's median
     match, the shifted families' profile likelihood) are noisier. *)
  List.iter
    (fun candidate ->
      let name = Fit.candidate_name candidate in
      let truth = truth_of_candidate candidate in
      let o =
        Validate.oracle ~alpha:0.05 ~replicates:60 ~level:0.95 ~trials:30
          ~seed:101 ~cores ~runs:150 ~candidate ~truth ()
      in
      if o.Validate.failures > 5 then
        Alcotest.failf "%s: %d/%d oracle trials failed" name
          o.Validate.failures o.Validate.trials;
      List.iter
        (fun (param, cov) ->
          if not (cov >= 0.5 && cov <= 1.0) then
            Alcotest.failf "%s: band coverage for %s is %.2f" name param cov)
        o.Validate.param_coverage;
      List.iter
        (fun (param, err) ->
          if not (Float.is_finite err && err < 0.6) then
            Alcotest.failf "%s: recovery error for %s is %.3f" name param err)
        o.Validate.mean_abs_rel_error;
      (* Laws with negative support or no finite mean have no curve. *)
      match candidate with
      | Fit.Normal | Fit.Levy ->
        Alcotest.(check bool)
          (name ^ ": no curve coverage")
          true
          (Float.is_nan o.Validate.curve_coverage)
      | _ ->
        if not (o.Validate.curve_coverage >= 0.5) then
          Alcotest.failf "%s: curve coverage %.2f" name
            o.Validate.curve_coverage)
    Fit.all_candidates

let test_oracle_pool_invariant () =
  let truth = Exponential.create ~rate:1. in
  let run pool =
    Validate.oracle ~pool ~replicates:30 ~trials:12 ~seed:31 ~cores ~runs:50
      ~candidate:Fit.Exponential ~truth ()
  in
  let serial = run Lv_exec.Pool.serial in
  Lv_exec.Pool.with_pool ~domains:8 (fun pool ->
      Alcotest.(check bool) "pool of 8 = serial" true
        (compare (run pool) serial = 0))

let test_oracle_validation () =
  let truth = Exponential.create ~rate:1. in
  check_invalid "trials 0" (fun () ->
      Validate.oracle ~trials:0 ~seed:1 ~cores ~runs:50
        ~candidate:Fit.Exponential ~truth ());
  check_invalid "runs too small" (fun () ->
      Validate.oracle ~trials:5 ~seed:1 ~cores ~runs:3
        ~candidate:Fit.Exponential ~truth ())

(* ------------------------------------------------------------------ *)
(* Combined run + serialization                                        *)
(* ------------------------------------------------------------------ *)

let small_config =
  { Validate.replicates = 40; folds = 2; level = 0.95; trials = 0 }

let run_report ?(config = small_config) ?(seed = 19) () =
  let xs = exp_sample ~seed:18 ~rate:0.02 80 in
  let report = fit_exponential xs in
  Validate.run ~candidates:[ Fit.Exponential ] ~config ~seed ~cores
    ~label:"unit" ~report xs

let test_run_combines_sections () =
  let r = run_report () in
  Alcotest.(check string) "label" "unit" r.Validate.label;
  Alcotest.(check int) "sample size" 80 r.Validate.sample_size;
  Alcotest.(check int) "folds" 2 (List.length r.Validate.cross_validation.Validate.folds);
  Alcotest.(check bool) "no oracle when trials = 0" true
    (r.Validate.calibration = None);
  let with_oracle =
    run_report ~config:{ small_config with Validate.trials = 5 } ()
  in
  Alcotest.(check bool) "oracle when trials > 0" true
    (with_oracle.Validate.calibration <> None)

let test_json_roundtrip () =
  let r = run_report ~config:{ small_config with Validate.trials = 4 } () in
  let recovered = Validate.of_json (Json.of_string (render r)) in
  check_same_report "value -> text -> value" r recovered

let test_json_roundtrip_with_nan_fields () =
  (* A Normal fit has no speed-up curve: speedup_err and curve_coverage
     are NaN, which JSON spells null — the artifact must still load. *)
  let rng = Rng.create ~seed:23 in
  let xs = Array.init 60 (fun _ -> 100. +. (9. *. Rng.normal rng)) in
  let report = Fit.fit ~candidates:[ Fit.Normal ] xs in
  let r =
    Validate.run ~candidates:[ Fit.Normal ]
      ~config:{ small_config with Validate.trials = 3 }
      ~seed:2 ~cores ~label:"gauss" ~report xs
  in
  let recovered = Validate.of_json (Json.of_string (render r)) in
  check_same_report "nan fields survive the round-trip" r recovered;
  (match recovered.Validate.calibration with
  | Some o ->
    Alcotest.(check bool) "curve coverage read back as nan" true
      (Float.is_nan o.Validate.curve_coverage)
  | None -> Alcotest.fail "calibration lost")

let test_of_json_rejects_malformed () =
  let r = run_report () in
  let mangled =
    match Validate.to_json r with
    | Json.Obj kvs -> Json.Obj (List.remove_assoc "bootstrap" kvs)
    | _ -> Alcotest.fail "report did not serialize to an object"
  in
  match Validate.of_json mangled with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected Failure on a truncated artifact"

let tmp_dir () = Filename.temp_file "lv_validate" "" |> fun f ->
  Sys.remove f;
  Unix.mkdir f 0o755;
  f

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_save_json_and_csv () =
  let r = run_report ~config:{ small_config with Validate.trials = 3 } () in
  let dir = tmp_dir () in
  let json_path = Filename.concat dir "r.json"
  and csv_path = Filename.concat dir "r.csv" in
  Validate.save_json r json_path;
  Validate.save_csv r csv_path;
  let text = read_file json_path in
  Alcotest.(check bool) "json ends with newline" true
    (String.length text > 0 && text.[String.length text - 1] = '\n');
  check_same_report "saved json loads back" r
    (Validate.of_json (Json.of_string text));
  let csv = read_file csv_path in
  let lines =
    String.split_on_char '\n' csv |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check string) "csv header" "kind,name,cores,estimate,lo,hi,level"
    (List.hd lines);
  (* params (1) + curve (3) + folds (2) + oracle rows (1 coverage + 1
     curve-coverage + 1 recovery + rejections + failures). *)
  Alcotest.(check int) "csv rows" 11 (List.length lines - 1);
  Validate.save_csv r (Filename.concat dir "r2.csv");
  Alcotest.(check string) "csv deterministic" csv
    (read_file (Filename.concat dir "r2.csv"))

(* ------------------------------------------------------------------ *)
(* Scenario + engine wiring                                            *)
(* ------------------------------------------------------------------ *)

let test_scenario_validate_key () =
  let base = "[scenario]\nproblem = queens\nsize = 30\n" in
  let sc = Scenario.of_string (base ^ "validate = on\n") in
  Alcotest.(check bool) "key implies stage" true
    (Scenario.has_stage sc Scenario.Validate);
  Alcotest.(check bool) "default config filled" true
    (sc.Scenario.validate = Some Validate.default_config);
  let off = Scenario.of_string (base ^ "validate = off\n") in
  Alcotest.(check bool) "off means absent" true
    ((not (Scenario.has_stage off Scenario.Validate))
    && off.Scenario.validate = None);
  let tuned =
    Scenario.of_string (base ^ "validate = replicates=50, trials=7\n")
  in
  (match tuned.Scenario.validate with
  | Some c ->
    Alcotest.(check int) "replicates override" 50 c.Validate.replicates;
    Alcotest.(check int) "trials override" 7 c.Validate.trials;
    Alcotest.(check int) "folds default" 2 c.Validate.folds
  | None -> Alcotest.fail "validate key ignored");
  (* The stage without the key fills in the default config. *)
  let staged =
    Scenario.of_string
      (base ^ "stages = campaign,fit,validate\n")
  in
  Alcotest.(check bool) "stage implies config" true
    (staged.Scenario.validate = Some Validate.default_config)

let expect_failure ~substring f =
  match f () with
  | exception Failure msg ->
    let contains s sub =
      let n = String.length sub in
      String.length s >= n
      && List.exists
           (fun i -> String.sub s i n = sub)
           (List.init (String.length s - n + 1) Fun.id)
    in
    if not (contains msg substring) then
      Alcotest.failf "error %S does not mention %S" msg substring
  | _ -> Alcotest.fail "expected Failure"

let test_scenario_validate_key_errors () =
  let base = "[scenario]\nproblem = queens\nsize = 30\n" in
  expect_failure ~substring:"4" (fun () ->
      Scenario.of_string (base ^ "validate = sideways\n"));
  expect_failure ~substring:"unknown sub-key" (fun () ->
      Scenario.of_string (base ^ "validate = bogus=3\n"));
  expect_failure ~substring:"not an integer" (fun () ->
      Scenario.of_string (base ^ "validate = replicates=many\n"));
  expect_failure ~substring:"replicates" (fun () ->
      Scenario.of_string (base ^ "validate = replicates=1\n"));
  expect_failure ~substring:"requires stage fit" (fun () ->
      Scenario.of_string
        (base ^ "stages = campaign\nvalidate = on\n"))

let test_scenario_validate_roundtrip () =
  let sc =
    Scenario.make ~problem:"n-queens" ~size:25
      ~validate:{ Validate.replicates = 64; folds = 3; level = 0.9; trials = 5 }
      ()
  in
  Alcotest.(check bool) "make adds the stage" true
    (Scenario.has_stage sc Scenario.Validate);
  let reparsed = Scenario.of_string (Scenario.to_string sc) in
  Alcotest.(check bool) "canonical text round-trips" true (reparsed = sc)

let small_scenario ?output_dir ?(trials = 0) () =
  Scenario.make ~problem:"n-queens" ~size:20 ~runs:12 ~seed:3 ~cores:[ 2; 4 ]
    ~candidates:[ Fit.Exponential; Fit.Shifted_exponential ]
    ~validate:{ Validate.replicates = 24; folds = 2; level = 0.9; trials }
    ?output_dir ()

let test_engine_validate_stage () =
  let o = Engine.run (small_scenario ()) in
  match o.Engine.validation with
  | None -> Alcotest.fail "validate stage produced no report"
  | Some v ->
    Alcotest.(check int) "validated the scenario's dataset" 12
      v.Validate.sample_size;
    Alcotest.(check int) "scenario seed" 3 v.Validate.seed;
    Alcotest.(check bool) "no oracle unless trials > 0" true
      (v.Validate.calibration = None)

let test_engine_validate_cached () =
  let cache = tmp_dir () in
  let ctx = Ctx.make ~cache_dir:cache () in
  let o1 = Engine.run ~ctx (small_scenario ()) in
  Alcotest.(check int) "first run: campaign + fit + validate misses" 3
    o1.Engine.cache_misses;
  let o2 = Engine.run ~ctx (small_scenario ()) in
  Alcotest.(check int) "second run: pure cache hit" 3 o2.Engine.cache_hits;
  Alcotest.(check int) "second run: zero misses" 0 o2.Engine.cache_misses;
  (match (o1.Engine.validation, o2.Engine.validation) with
  | Some a, Some b -> check_same_report "identical restored report" a b
  | _ -> Alcotest.fail "validation report missing");
  (* Tightening the validation config recomputes only the validate stage. *)
  let tuned =
    Scenario.make ~problem:"n-queens" ~size:20 ~runs:12 ~seed:3
      ~cores:[ 2; 4 ]
      ~candidates:[ Fit.Exponential; Fit.Shifted_exponential ]
      ~validate:{ Validate.replicates = 32; folds = 2; level = 0.9; trials = 0 }
      ()
  in
  let o3 = Engine.run ~ctx tuned in
  Alcotest.(check int) "campaign + fit reused" 2 o3.Engine.cache_hits;
  Alcotest.(check int) "validate recomputed" 1 o3.Engine.cache_misses

let test_engine_validate_pool_invariant () =
  (* Same scenario through pools of 1 and 8: byte-identical reports,
     the engine-level acceptance bar. *)
  let sc = small_scenario ~trials:4 () in
  let report pool =
    let ctx = Ctx.make ~pool () in
    match (Engine.run ~ctx sc).Engine.validation with
    | Some v -> render v
    | None -> Alcotest.fail "no validation report"
  in
  let on domains = Lv_exec.Pool.with_pool ~domains report in
  let r1 = on 1 in
  Alcotest.(check string) "pool 1 = pool 8" r1 (on 8);
  Alcotest.(check string) "pool 1 = serial" r1 (report Lv_exec.Pool.serial)

let test_engine_validate_output_csv () =
  let out = tmp_dir () in
  let o = Engine.run (small_scenario ~output_dir:out ()) in
  match List.assoc_opt "validation" o.Engine.outputs with
  | None -> Alcotest.fail "no validation output written"
  | Some path ->
    let csv = read_file path in
    Alcotest.(check bool) "csv has the band header" true
      (String.length csv > 0
      && String.sub csv 0 (String.index csv '\n')
         = "kind,name,cores,estimate,lo,hi,level")

(* ------------------------------------------------------------------ *)
(* qcheck properties                                                   *)
(* ------------------------------------------------------------------ *)

let qcheck_props =
  let open QCheck in
  [
    Test.make ~name:"bands: lo <= estimate-quantile <= hi ordering" ~count:25
      (pair (int_range 0 1000) (int_range 20 80))
      (fun (seed, n) ->
        let xs = exp_sample ~seed:(seed + 9000) ~rate:0.3 n in
        let b =
          Validate.bootstrap_bands ~replicates:30 ~seed ~cores:[ 2 ]
            ~report:(fit_exponential xs) xs
        in
        List.for_all
          (fun (p : Validate.param_band) ->
            p.Validate.interval.Bootstrap.lo
            <= p.Validate.interval.Bootstrap.hi)
          b.Validate.params
        && List.for_all
             (fun (c : Validate.curve_band) ->
               Bootstrap.covers c.Validate.interval
                 c.Validate.interval.Bootstrap.estimate)
             b.Validate.curve);
    Test.make ~name:"holdout: folds always partition the sample" ~count:25
      (pair (int_range 0 1000) (int_range 2 5))
      (fun (seed, folds) ->
        let n = (2 * folds) + (seed mod 37) in
        let xs = exp_sample ~seed:(seed + 500) ~rate:1. n in
        let h =
          Validate.holdout ~candidates:[ Fit.Exponential ] ~folds ~seed ~cores:[ 2 ]
            xs
        in
        List.length h.Validate.folds = folds
        && List.fold_left
             (fun acc f -> acc + f.Validate.test_size)
             0 h.Validate.folds
           = n
        && List.for_all
             (fun f -> f.Validate.train_size + f.Validate.test_size = n)
             h.Validate.folds);
    Test.make ~name:"report json round-trips for any seed" ~count:10
      (int_range 0 100)
      (fun seed ->
        let xs = exp_sample ~seed:(seed + 77) ~rate:0.7 40 in
        let r =
          Validate.run ~candidates:[ Fit.Exponential ] ~config:small_config
            ~seed ~cores:[ 2; 4 ] ~label:"prop" ~report:(fit_exponential xs)
            xs
        in
        render (Validate.of_json (Json.of_string (render r))) = render r);
  ]

let () =
  Alcotest.run "lv_validate"
    [
      ( "config",
        [
          Alcotest.test_case "defaults" `Quick test_default_config;
          Alcotest.test_case "validation" `Quick test_config_validation;
        ] );
      ( "bootstrap_bands",
        [
          Alcotest.test_case "shape" `Quick test_bands_shape;
          Alcotest.test_case "estimate matches base fit" `Quick
            test_bands_estimate_matches_base_fit;
          Alcotest.test_case "deterministic" `Quick test_bands_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick
            test_bands_seed_sensitivity;
          Alcotest.test_case "pool-size invariant" `Slow
            test_bands_pool_size_invariant;
          Alcotest.test_case "input validation" `Quick
            test_bands_reject_degenerate_input;
          Alcotest.test_case "no curve for gaussian" `Quick
            test_bands_normal_family_has_no_curve;
        ] );
      ( "holdout",
        [
          Alcotest.test_case "shape and sizes" `Quick test_holdout_shape_and_sizes;
          Alcotest.test_case "deterministic split" `Quick
            test_holdout_deterministic_split;
          Alcotest.test_case "accepts own law" `Quick test_holdout_accepts_own_law;
          Alcotest.test_case "validation" `Quick test_holdout_validation;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "exponential calibration" `Slow
            test_oracle_exponential_calibration;
          Alcotest.test_case "recovers every family" `Slow
            test_oracle_recovers_every_family;
          Alcotest.test_case "pool invariant" `Slow test_oracle_pool_invariant;
          Alcotest.test_case "validation" `Quick test_oracle_validation;
        ] );
      ( "report",
        [
          Alcotest.test_case "run combines sections" `Quick
            test_run_combines_sections;
          Alcotest.test_case "json round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "json round-trip with nan" `Quick
            test_json_roundtrip_with_nan_fields;
          Alcotest.test_case "malformed json rejected" `Quick
            test_of_json_rejects_malformed;
          Alcotest.test_case "save json/csv" `Quick test_save_json_and_csv;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "scenario validate key" `Quick
            test_scenario_validate_key;
          Alcotest.test_case "scenario key errors" `Quick
            test_scenario_validate_key_errors;
          Alcotest.test_case "scenario round-trip" `Quick
            test_scenario_validate_roundtrip;
          Alcotest.test_case "engine validate stage" `Quick
            test_engine_validate_stage;
          Alcotest.test_case "engine cache" `Quick test_engine_validate_cached;
          Alcotest.test_case "engine pool invariant" `Slow
            test_engine_validate_pool_invariant;
          Alcotest.test_case "engine csv output" `Quick
            test_engine_validate_output_csv;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_props);
    ]
