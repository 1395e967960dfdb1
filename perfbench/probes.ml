(* Per-layer probes of the traced run: each one times calls into a single
   layer's public functions on inputs made from the benchmark seed, and
   counts the allocation they cause with process-wide [Gc.quick_stat]
   deltas. *)

open Lv_core
module Pool = Lv_exec.Pool
module Clock = Lv_telemetry.Clock
module Rng = Lv_stats.Rng
module Mle = Lv_stats.Mle
module Kolmogorov = Lv_stats.Kolmogorov
module Empirical = Lv_stats.Empirical
module Campaign = Lv_multiwalk.Campaign
module Checkpoint = Lv_multiwalk.Checkpoint

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }
let now = Clock.elapsed

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Process-wide minor words.  [Gc.quick_stat] only sees a domain's
   allocation up to its last minor collection, so force one first. *)
let minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* Median seconds per call of [f] over [reps] calls after one warm-up call,
   and minor words per call. *)
let measure ?(reps = 5) f =
  ignore (Sys.opaque_identity (f ()));
  let w0 = minor_words () in
  let times =
    List.init reps (fun _ ->
        let t0 = now () in
        ignore (Sys.opaque_identity (f ()));
        now () -. t0)
  in
  (median times, (minor_words () -. w0) /. float_of_int reps)

let make_instance (name, size) =
  match Lv_problems.Registry.find name with
  | Some f -> f size
  | None -> failwith ("perfbench: unknown problem " ^ name)

(* lv_search: [runs] solves of the problem at the campaign's per-run seeds
   [seed + r], so the iteration total is fixed by the seed. *)
let search ~problem ~seed ~runs =
  let inst = make_instance problem in
  let params = Lv_problems.Defaults.params (fst problem) (snd problem) in
  let w0 = minor_words () in
  let t0 = now () in
  let iters = ref 0 and swaps = ref 0 and restarts = ref 0 in
  for r = 0 to runs - 1 do
    let res =
      Lv_search.Adaptive_search.solve_packed ~params
        ~rng:(Rng.create ~seed:(seed + r))
        inst
    in
    let s = res.Lv_search.Adaptive_search.stats in
    iters := !iters + s.Lv_search.Adaptive_search.iterations;
    swaps := !swaps + s.Lv_search.Adaptive_search.swaps;
    restarts := !restarts + s.Lv_search.Adaptive_search.restarts
  done;
  let dt = now () -. t0 in
  let words = minor_words () -. w0 in
  let it = float_of_int !iters in
  [
    m "search.ns_per_iter" "ns" (dt *. 1e9 /. it);
    m "search.minor_words_per_iter" "words" (words /. it);
    m "search.iters" "count" it;
    m "search.swaps_per_iter" "ratio" (float_of_int !swaps /. it);
    m "search.restarts_per_run" "ratio"
      (float_of_int !restarts /. float_of_int runs);
  ]

(* lv_problems: building one instance. *)
let problems ~problem =
  let t, _ = measure ~reps:21 (fun () -> make_instance problem) in
  [ m "problems.make_instance_ms" "ms" (t *. 1e3) ]

let mle_of = function
  | Fit.Exponential -> Mle.exponential
  | Fit.Shifted_exponential -> Mle.shifted_exponential ?bias_correct:None
  | Fit.Lognormal -> Mle.lognormal
  | Fit.Shifted_lognormal -> Mle.shifted_lognormal ?shift_fraction:None
  | Fit.Normal -> Mle.normal
  | Fit.Weibull -> Mle.weibull ?tol:None ?max_iter:None
  | Fit.Gamma -> Mle.gamma
  | Fit.Levy -> Mle.levy

let reps_for = function Fit.Shifted_lognormal -> 5 | _ -> 20

(* lv_stats and lv_core on one fit-validate dataset, with the per-family
   fit table: [Mle.*] with [Kolmogorov.test], and [Fit.fit_one]. *)
let stats_and_core ~pool ~cores ~law xs =
  let sort_t, _ = measure ~reps:200 (fun () -> Empirical.of_array xs) in
  let ks_t, _ =
    measure ~reps:50 (fun () -> Kolmogorov.test xs law.Lv_stats.Distribution.cdf)
  in
  let args = Array.init 1000 (fun i -> -5. +. (10. *. float_of_int i /. 1000.)) in
  let erfc_t, _ =
    measure ~reps:20 (fun () ->
        Array.fold_left (fun acc x -> acc +. Lv_stats.Special.erfc x) 0. args)
  in
  let npoints = float_of_int (List.length cores) in
  let quad_t, _ =
    measure ~reps:3 (fun () ->
        List.iter (fun n -> ignore (Speedup.at law ~cores:n)) cores)
  in
  let emp = Empirical.of_array xs in
  let plugin_t, _ =
    measure ~reps:20 (fun () ->
        List.iter (fun n -> ignore (Empirical.expected_min_exact emp n)) cores)
  in
  let fit_t, _ = measure ~reps:5 (fun () -> Fit.fit ~pool xs) in
  let report = Fit.fit ~pool xs in
  let predict_t, _ =
    measure ~reps:5 (fun () ->
        Predict.of_report ~pool ~label:"probe" ~cores report)
  in
  let families =
    List.map
      (fun c ->
        let reps = reps_for c in
        let mle_t, mle_w = measure ~reps (fun () -> mle_of c xs) in
        let ks =
          match mle_of c xs with
          | d -> (
            try
              let t, _ =
                measure ~reps (fun () ->
                    Kolmogorov.test xs d.Lv_stats.Distribution.cdf)
              in
              Some t
            with Invalid_argument _ -> None)
          | exception Invalid_argument _ -> None
        in
        let one_t, one_w = measure ~reps (fun () -> Fit.fit_one c xs) in
        (c, mle_t, mle_w, ks, one_t, one_w))
      Fit.all_candidates
  in
  Printf.printf
    "\nper-family fit on the fit-validate dataset (n=%d; minor words are \
     process-wide Gc.quick_stat deltas per call)\n"
    (Array.length xs);
  Printf.printf "  %-20s %12s %14s %10s %12s %14s\n" "family" "Mle.* us"
    "Mle.* words" "KS us" "fit_one ms" "fit_one words";
  List.iter
    (fun (c, mle_t, mle_w, ks, one_t, one_w) ->
      Printf.printf "  %-20s %12.1f %14.0f %10s %12.3f %14.0f\n"
        (Fit.candidate_name c) (mle_t *. 1e6) mle_w
        (match ks with Some t -> Printf.sprintf "%.1f" (t *. 1e6) | None -> "n/a")
        (one_t *. 1e3) one_w)
    families;
  [
    m "stats.sort_us" "us" (sort_t *. 1e6);
    m "stats.ks_us" "us" (ks_t *. 1e6);
    m "stats.erfc_ns" "ns" (erfc_t *. 1e9 /. float_of_int (Array.length args));
  ]
  @ List.map
      (fun (c, mle_t, _, _, _, _) ->
        m ("stats.mle_us." ^ Fit.candidate_name c) "us" (mle_t *. 1e6))
      families
  @ [
      m "stats.quad_us_per_point" "us" (quad_t *. 1e6 /. npoints);
      m "stats.plugin_min_us" "us" (plugin_t *. 1e6 /. npoints);
      m "core.fit_ms" "ms" (fit_t *. 1e3);
    ]
  @ List.map
      (fun (c, _, _, _, one_t, _) ->
        m ("core.fit_candidate_ms." ^ Fit.candidate_name c) "ms" (one_t *. 1e3))
      families
  @ [ m "core.predict_ms" "ms" (predict_t *. 1e3) ]

(* lv_multiwalk around one campaign: its run-log written with
   [Checkpoint.append] and read back with [Checkpoint.load], and the
   plug-in speed-up table. *)
let multiwalk ~workdir ~seed ~cores (c : Campaign.result) =
  let path = Filename.concat workdir "probe-runlog.jsonl" in
  Checkpoint.with_writer path (fun w ->
      List.iteri
        (fun r o ->
          Checkpoint.append w
            (Checkpoint.entry_of_observation ~run:r ~seed:(seed + r) o))
        c.Campaign.observations);
  let bytes = In_channel.with_open_bin path In_channel.length in
  let load_t, _ = measure ~reps:3 (fun () -> Checkpoint.load path) in
  Sys.remove path;
  let sim_t, _ =
    measure ~reps:5 (fun () -> Lv_multiwalk.Sim.table c.Campaign.iterations ~cores)
  in
  [
    m "multiwalk.checkpoint_load_ms" "ms" (load_t *. 1e3);
    m "multiwalk.checkpoint_bytes" "bytes" (Int64.to_float bytes);
    m "multiwalk.sim_table_ms" "ms" (sim_t *. 1e3);
    m "multiwalk.censored" "count" (float_of_int c.Campaign.n_censored);
  ]

(* [per_run_overhead_us] = (domains x campaign_s - sum of run seconds) / runs. *)
let campaign_metrics ~domains ~campaign_s (c : Campaign.result) =
  let runs = List.length c.Campaign.observations in
  let solve_s =
    List.fold_left
      (fun acc o -> acc +. o.Lv_multiwalk.Run.seconds)
      0. c.Campaign.observations
  in
  [
    m "multiwalk.campaign_s" "s" campaign_s;
    m "multiwalk.per_run_overhead_us" "us"
      ((float_of_int domains *. campaign_s -. solve_s)
      *. 1e6 /. float_of_int runs);
  ]
