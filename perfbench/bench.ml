(* The repository benchmark.

     bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   Workloads, each a closed loop (one caller waits for every pass before
   starting the next) in one process, on one pool of at most
   [Domain.recommended_domain_count ()] domains:

     solve-long         Engine.run on all-interval 13, 1000 runs, default
                        stages, no cache: the solver inner loop and the
                        pool's makespan.
     fit-validate       25 datasets of 650 draws from the paper's MS 200 law
                        per pass, each through Fit.fit (all candidates) and
                        Predict.of_report, then Validate.run (50 bootstrap
                        replicates, 5 folds) of the shifted-lognormal fit of
                        one of them: the stats path.
     short-runs-cached  n-queens 30 (about 20 iterations per run), 10000
                        runs, stages campaign,simulate, run cold into a fresh
                        artifact cache and again warm: per-run campaign, pool
                        and checkpoint overhead, and the artifact store.

   With [--trace 0] the last line of standard output is a JSON object with
   the end-to-end metrics, the same three on every workload:

     setup_s       median of 15 set-ups: pool, instances and datasets ready
     wall_s        median wall time of a pass (fit-validate: the fit batch
                   and the validation; short-runs-cached: cold plus warm)
     work_per_s    median per pass of the workload's unit of work per
                   second: solver iterations per second of the pass
                   (solve-long), datasets fitted and predicted per second
                   of the fit batch (fit-validate), campaign runs per second
                   of the cold pass (short-runs-cached)

   The lines before it print these, peak_heap_mb (Gc.quick_stat
   top_heap_words after the warm-up pass and a fixed number of timed
   passes), the workload's own metrics (iters_per_s and runs_per_s;
   fit_p50_ms, fit_p90_ms and validate_s; cold_s, warm_s and runs_per_s)
   with their units, and error_frac, the share of failed output checks,
   which the JSON carries as [failed] over [attempted].  The peak heap is
   not in the JSON: over ten seeds of solve-long its interquartile range
   was 23% of its median (a 7 MB heap whose peak depends on when major
   slices run), too wide to gate on.
   With [--trace 1] the same passes run traced (spans recorded around each
   library call, see trace.ml), and the JSON carries the per-layer metrics
   (probes.ml), with the per-family fit table, the pool-scaling table and
   the layer self times printed above it.  Every run checks its outputs;
   failed checks make [correct] false. *)

open Lv_core
module Pool = Lv_exec.Pool
module Clock = Lv_telemetry.Clock
module Sink = Lv_telemetry.Sink
module Json = Lv_telemetry.Json
module Ctx = Lv_context.Context
module Engine = Lv_engine.Engine
module Scenario = Lv_engine.Scenario
module Campaign = Lv_multiwalk.Campaign
module Dataset = Lv_multiwalk.Dataset
module Validate = Lv_validate.Validate
module Rng = Lv_stats.Rng

let now = Clock.elapsed
let median = Probes.median

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Type-7 quantile of a nonempty list. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let h = q *. float_of_int (Array.length a - 1) in
  let i = int_of_float h in
  if i + 1 >= Array.length a then a.(i)
  else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let nproc = Domain.recommended_domain_count ()

(* Timed runs use one worker domain.  On a shared two-core machine the
   wall time of a two-domain pass is bimodal: OCaml 5 stops every domain
   for each minor collection, so a pass runs at one-core speed whenever
   the second core is busy elsewhere (identical all-interval passes took
   0.9 s to 2.1 s at two domains, 1.6 s to 1.8 s at one).  The traced run
   uses [nproc] domains and prints the pool-scaling table. *)
let timed_domains = 1
let default_seed = 1

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0

let check name ok =
  incr attempted;
  if not ok then begin
    incr failed;
    Printf.eprintf "perfbench: check failed: %s\n%!" name
  end

(* Numbers within [rtol] relative, everything else exactly equal: the
   tolerance tools/compare_validation applies to validation reports. *)
let rec json_close ~rtol (a : Json.t) (b : Json.t) =
  match (a, b) with
  | (Json.Float _ | Json.Int _), (Json.Float _ | Json.Int _) ->
    let x = Option.get (Json.to_float a) and y = Option.get (Json.to_float b) in
    x = y
    || Float.abs (x -. y)
       <= rtol *. Float.max 1. (Float.max (Float.abs x) (Float.abs y))
  | Json.List xs, Json.List ys ->
    List.length xs = List.length ys && List.for_all2 (json_close ~rtol) xs ys
  | Json.Obj xs, Json.Obj ys ->
    List.map fst xs = List.map fst ys
    && List.for_all2 (fun (_, x) (_, y) -> json_close ~rtol x y) xs ys
  | _ -> a = b

(* ------------------------------------------------------------------ *)
(* Rendering of outputs: [exact] keeps every bit, [rounded] keeps six  *)
(* significant digits for the digest committed with the benchmark.     *)
(* ------------------------------------------------------------------ *)

let exact = Printf.sprintf "%h"
let rounded = Printf.sprintf "%.6g"
let floats fmt a = String.concat " " (Array.to_list (Array.map fmt a))

let render_dataset fmt (d : Dataset.t) =
  Printf.sprintf "dataset %s [%s] censored [%s]\n" d.Dataset.label
    (floats fmt d.Dataset.values)
    (floats fmt d.Dataset.censored)

let render_params fmt (d : Lv_stats.Distribution.t) =
  String.concat ","
    (List.map (fun (k, v) -> k ^ "=" ^ fmt v) d.Lv_stats.Distribution.params)

let render_fit fmt (r : Fit.report) =
  String.concat ""
    (List.map
       (fun (f : Fit.fitted) ->
         Printf.sprintf "fit %s(%s) D=%s p=%s accept=%b\n"
           (Fit.candidate_name f.Fit.candidate)
           (render_params fmt f.Fit.dist)
           (fmt f.Fit.ks.Lv_stats.Kolmogorov.statistic)
           (fmt f.Fit.ks.Lv_stats.Kolmogorov.p_value)
           f.Fit.ks.Lv_stats.Kolmogorov.accept)
       r.Fit.fits)
  ^ Printf.sprintf "best %s\n"
      (match r.Fit.best with
      | Some b -> Fit.candidate_name b.Fit.candidate
      | None -> "none")

let render_prediction fmt (p : Predict.prediction) =
  Printf.sprintf "law %s(%s) limit=%s curve [%s]\n"
    p.Predict.law.Lv_stats.Distribution.name
    (render_params fmt p.Predict.law)
    (fmt p.Predict.limit)
    (String.concat " "
       (List.map
          (fun (pt : Speedup.point) ->
            Printf.sprintf "%d:%s" pt.Speedup.cores (fmt pt.Speedup.speedup))
          p.Predict.curve))

let render_sim fmt rows =
  String.concat " "
    (List.map
       (fun (r : Lv_multiwalk.Sim.row) ->
         Printf.sprintf "%d:%s:%s" r.Lv_multiwalk.Sim.cores
           (fmt r.Lv_multiwalk.Sim.expected_runtime)
           (fmt r.Lv_multiwalk.Sim.speedup))
       rows)
  ^ "\n"

let render_outcome fmt (o : Engine.outcome) =
  render_dataset fmt o.Engine.dataset
  ^ (match o.Engine.fit with Some r -> render_fit fmt r | None -> "")
  ^ (match o.Engine.prediction with
    | Some p -> render_prediction fmt p
    | None -> "")
  ^ render_sim fmt o.Engine.simulated

(* ------------------------------------------------------------------ *)
(* Files: everything the benchmark writes lives under .perfbench_work  *)
(* in the directory it runs from.                                      *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

type pass = {
  wall : float;  (** seconds of the timed pass *)
  rate : float;  (** the workload's unit of work per second *)
  parts : (string * float) list;  (** named sub-timings, seconds *)
  latencies : float list;  (** per-dataset fit+predict seconds *)
  stable : string;  (** outputs every pass must reproduce exactly *)
  exact_out : string;  (** all outputs of this pass, every bit *)
  rounded_out : string;  (** all outputs at six significant digits *)
  validation : Json.t option;
  campaign : Campaign.result option;
  cache : (int * int) list;  (** (hits, misses) per Engine.run *)
}

type instance = {
  run : Pool.t -> int -> pass;  (** pass [k] on the given pool *)
  final_checks : pass -> unit;
}

type workload = {
  name : string;
  problem : string * int;  (** for the search and instance probes *)
  search_runs : int;  (** solves in the search probe *)
  min_passes : int;
  scaling : bool;  (** pool-scaling table in the traced run *)
  setup : seed:int -> workdir:string -> instance;
}

let ai13 = ("all-interval", 13)
let queens30 = ("n-queens", 30)
let solve_runs = 1000
let short_runs = 10000
let fv_sample = 650
let fv_datasets = 200
let fv_batch = 25
let fv_cores = [ 2; 4; 8; 16; 32; 64; 128; 256 ]

let fv_config =
  { Validate.default_config with Validate.replicates = 50; folds = 5 }

let ms200 = Paper_data.fitted_law Paper_data.MS200

(* Validation conditions on the generating family, the shifted lognormal:
   with every candidate the base fit of some seeds selects a cheaper
   family, and the bootstrap, which refits the selected family, costs a
   tenth as much. *)
let fv_validate_family = [ Fit.Shifted_lognormal ]

let fv_draw rng =
  Lv_stats.Distribution.sample_array ms200 rng fv_sample

(* The first fit-validate dataset of a seed: the stats probes' input. *)
let fv_dataset0 ~seed = fv_draw (Rng.create ~seed)

(* Engine stages map to the layer that does their work. *)
let stage_layer (ev : Lv_telemetry.Event.t) =
  if Lv_telemetry.Event.name ev <> "engine.stage" then None
  else
    match Lv_telemetry.Event.field "stage" ev with
    | Some (Json.String s) ->
      let layer =
        match s with
        | "campaign" | "simulate" -> "lv_multiwalk"
        | "validate" -> "lv_validate"
        | _ -> "lv_core"
      in
      Some (layer, s)
    | _ -> None

let engine_run ?(name = "Engine.run") ?cache_dir pool sc =
  let sink = if !Trace.enabled then Sink.memory () else Sink.null in
  let ctx = Ctx.make ~pool ~telemetry:sink ?cache_dir () in
  Trace.span ~layer:"lv_engine" name (fun () ->
      let o = Engine.run ~ctx sc in
      Trace.adopt sink ~classify:stage_layer;
      o)

let total_iterations (c : Campaign.result) =
  List.fold_left
    (fun acc o -> acc + o.Lv_multiwalk.Run.iterations)
    0 c.Campaign.observations

(* Re-solve a sample of the campaign's runs serially, each with its
   per-run seed [seed + r] on a fresh instance: same iteration counts. *)
let resolve_sample ~problem ~params ~seed (c : Campaign.result) =
  let obs = Array.of_list c.Campaign.observations in
  let rng = Rng.create ~seed in
  let inst = Probes.make_instance problem in
  for _ = 1 to 8 do
    let r = Rng.int rng (Array.length obs) in
    let o =
      Lv_multiwalk.Run.once ~params ~rng:(Rng.create ~seed:(seed + r)) inst
    in
    check
      (Printf.sprintf "run %d re-solved serially gives the campaign's result" r)
      (o.Lv_multiwalk.Run.iterations = obs.(r).Lv_multiwalk.Run.iterations
      && o.Lv_multiwalk.Run.solved = obs.(r).Lv_multiwalk.Run.solved)
  done

let solve_long ~seed ~workdir:_ =
  let sc =
    Scenario.make ~problem:(fst ai13) ~size:(snd ai13) ~runs:solve_runs ~seed
      ()
  in
  ignore (Probes.make_instance ai13);
  let run pool _k =
    let o, wall = time (fun () -> engine_run pool sc) in
    let c = o.Engine.campaign in
    check "solve-long: no censored run" (c.Campaign.n_censored = 0);
    let out = render_outcome exact o in
    {
      wall;
      rate = float_of_int (total_iterations c) /. wall;
      parts = [];
      latencies = [];
      stable = out;
      exact_out = out;
      rounded_out = render_outcome rounded o;
      validation = None;
      campaign = Some c;
      cache = [ (o.Engine.cache_hits, o.Engine.cache_misses) ];
    }
  in
  let final_checks p =
    Option.iter
      (resolve_sample ~problem:ai13 ~params:(Scenario.params sc) ~seed)
      p.campaign
  in
  { run; final_checks }

let short_runs_cached ~seed ~workdir =
  let sc =
    Scenario.make ~problem:(fst queens30) ~size:(snd queens30) ~runs:short_runs
      ~seed ~stages:[ Scenario.Campaign; Scenario.Simulate ] ()
  in
  ignore (Probes.make_instance queens30);
  let run pool k =
    let dir = Filename.concat workdir (Printf.sprintf "cache-%d" k) in
    rm_rf dir;
    let engine name = time (fun () -> engine_run ~name ~cache_dir:dir pool sc) in
    let cold, cold_s = engine "Engine.run cold" in
    let warm, warm_s = engine "Engine.run warm" in
    check "short-runs-cached: cold pass misses only"
      (cold.Engine.cache_hits = 0 && cold.Engine.cache_misses > 0);
    check "short-runs-cached: warm pass hits only"
      (warm.Engine.cache_misses = 0 && warm.Engine.cache_hits > 0);
    let csv (o : Engine.outcome) file =
      let path = Filename.concat dir file in
      Dataset.save_csv o.Engine.dataset path;
      read_file path
    in
    check "short-runs-cached: warm dataset byte-identical to cold"
      (csv cold "cold.csv" = csv warm "warm.csv");
    check "short-runs-cached: warm simulated rows identical to cold"
      (render_sim exact cold.Engine.simulated
      = render_sim exact warm.Engine.simulated);
    rm_rf dir;
    let out = render_outcome exact cold in
    {
      wall = cold_s +. warm_s;
      rate = float_of_int short_runs /. cold_s;
      parts = [ ("cold_s", cold_s); ("warm_s", warm_s) ];
      latencies = [];
      stable = out;
      exact_out = out;
      rounded_out = render_outcome rounded cold;
      validation = None;
      campaign = Some cold.Engine.campaign;
      cache =
        [
          (cold.Engine.cache_hits, cold.Engine.cache_misses);
          (warm.Engine.cache_hits, warm.Engine.cache_misses);
        ];
    }
  in
  let final_checks p =
    Option.iter
      (resolve_sample ~problem:queens30 ~params:(Scenario.params sc) ~seed)
      p.campaign
  in
  { run; final_checks }

let validate_phase (ev : Lv_telemetry.Event.t) =
  match Lv_telemetry.Event.name ev with
  | ("validate.bootstrap" | "validate.holdout") as n -> Some ("lv_validate", n)
  | _ -> None

let sane_prediction (p : Predict.prediction) =
  let rec ok prev = function
    | [] -> true
    | (pt : Speedup.point) :: rest ->
      Float.is_finite pt.Speedup.speedup
      && pt.Speedup.speedup >= prev *. (1. -. 1e-9)
      && ok pt.Speedup.speedup rest
  in
  ok 1. p.Predict.curve

let fit_validate ~seed ~workdir:_ =
  let rng = Rng.create ~seed in
  let datasets = Array.init fv_datasets (fun _ -> fv_draw rng) in
  let fit ?candidates pool xs =
    Trace.span ~layer:"lv_core" "Fit.fit" (fun () ->
        Fit.fit ~pool ?candidates xs)
  in
  let run pool k =
    let t0 = now () in
    let exact_b = Buffer.create 4096 and rounded_b = Buffer.create 4096 in
    let latencies =
      List.init fv_batch (fun i ->
          let xs = datasets.(((k * fv_batch) + i) mod fv_datasets) in
          let (r, p), dt =
            time (fun () ->
                let r = fit pool xs in
                ( r,
                  Trace.span ~layer:"lv_core" "Predict.of_report" (fun () ->
                      Predict.of_report ~pool ~label:"fit-validate"
                        ~cores:fv_cores r) ))
          in
          check "fit-validate: prediction finite and nondecreasing"
            (sane_prediction p);
          Buffer.add_string exact_b
            (render_fit exact r ^ render_prediction exact p);
          Buffer.add_string rounded_b
            (render_fit rounded r ^ render_prediction rounded p);
          dt)
    in
    let fit_s = now () -. t0 in
    let x0 = datasets.(0) in
    let r0 = fit ~candidates:fv_validate_family pool x0 in
    let v, validate_s =
      time (fun () ->
          let sink = if !Trace.enabled then Sink.memory () else Sink.null in
          Trace.span ~layer:"lv_validate" "Validate.run" (fun () ->
              let v =
                Validate.run ~pool ~telemetry:sink
                  ~candidates:fv_validate_family ~config:fv_config ~seed
                  ~cores:fv_cores ~label:"fit-validate" ~report:r0 x0
              in
              Trace.adopt sink ~classify:validate_phase;
              v))
    in
    let vjson = Validate.to_json v in
    let validation = Json.to_string vjson in
    {
      wall = now () -. t0;
      rate = float_of_int fv_batch /. fit_s;
      parts = [ ("fit_s", fit_s); ("validate_s", validate_s) ];
      latencies;
      stable = render_fit exact r0;
      exact_out = Buffer.contents exact_b ^ validation;
      rounded_out = Buffer.contents rounded_b;
      validation = Some vjson;
      campaign = None;
      cache = [];
    }
  in
  { run; final_checks = (fun _ -> ()) }

let workloads =
  [
    {
      name = "solve-long";
      problem = ai13;
      search_runs = 64;
      min_passes = 3;
      scaling = true;
      setup = solve_long;
    };
    {
      name = "fit-validate";
      problem = ai13;
      search_runs = 64;
      min_passes = 4;
      scaling = true;
      setup = fit_validate;
    };
    {
      name = "short-runs-cached";
      problem = queens30;
      search_runs = 2000;
      min_passes = 3;
      scaling = false;
      setup = short_runs_cached;
    };
  ]

(* Every pass reproduces the first one's stable outputs; validation
   reports agree within the compare_validation tolerance. *)
let check_pass ~(first : pass) (p : pass) =
  check "pass outputs identical to the first pass" (p.stable = first.stable);
  match (first.validation, p.validation) with
  | Some a, Some b ->
    check "validation report within rtol 1e-6 of the first pass"
      (json_close ~rtol:1e-6 a b)
  | _ -> ()

(* At the default seed the first pass's outputs must match the digest
   committed in perfbench/digests.txt. *)
let check_digest ~name ~seed (p : pass) =
  let d = Digest.to_hex (Digest.string p.rounded_out) in
  Printf.printf "outputs digest: %s seed=%d %s\n" name seed d;
  if seed = default_seed then
    let committed =
      try
        List.find_map
          (fun line ->
            match String.split_on_char ' ' (String.trim line) with
            | [ w; h ] when w = name -> Some h
            | _ -> None)
          (String.split_on_char '\n' (read_file "perfbench/digests.txt"))
      with Sys_error _ -> None
    in
    check "outputs match the committed digest" (committed = Some d)

(* ------------------------------------------------------------------ *)
(* Runs                                                                *)
(* ------------------------------------------------------------------ *)

let metric = Probes.m

let print_metric (x : Probes.metric) =
  Printf.printf "  %-36s %16.6g %s\n" x.Probes.name x.Probes.value x.Probes.unit_

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

let part name p = List.assoc name p.parts

let timed_run (w : workload) ~seconds ~setup_s ~pool (inst : instance) =
  let first = inst.run pool 0 in
  let deadline = now () +. seconds in
  (* The peak heap is read after a fixed number of passes, so that it does
     not depend on how many passes fit in the run. *)
  let heap = ref nan in
  let rec loop k acc =
    if k > w.min_passes && now () >= deadline then List.rev acc
    else
      let p = inst.run pool k in
      check_pass ~first p;
      if k = w.min_passes then heap := heap_mb ();
      (* Keep the timings only: retained outputs would grow the heap. *)
      let timings =
        {
          p with
          stable = "";
          exact_out = "";
          rounded_out = "";
          validation = None;
          campaign = None;
        }
      in
      loop (k + 1) (timings :: acc)
  in
  let passes = loop 1 [] in
  inst.final_checks first;
  let med f = median (List.map f passes) in
  let heap = !heap in
  let e2e =
    [
      metric "setup_s" "s" setup_s;
      metric "wall_s" "s" (med (fun p -> p.wall));
      metric "work_per_s" "1/s" (med (fun p -> p.rate));
    ]
  in
  let lat = List.concat_map (fun p -> p.latencies) passes in
  let own =
    match w.name with
    | "solve-long" ->
      [
        metric "iters_per_s" "1/s" (med (fun p -> p.rate));
        metric "runs_per_s" "1/s"
          (med (fun p -> float_of_int solve_runs /. p.wall));
      ]
    | "fit-validate" ->
      [
        metric "fit_p50_ms" "ms" (quantile lat 0.5 *. 1e3);
        metric
          (Printf.sprintf "fit_p90_ms(n=%d)" (List.length lat))
          "ms"
          (quantile lat 0.9 *. 1e3);
        metric "validate_s" "s" (med (part "validate_s"));
      ]
    | _ ->
      [
        metric "cold_s" "s" (med (part "cold_s"));
        metric "warm_s" "s" (med (part "warm_s"));
        metric "runs_per_s" "1/s" (med (fun p -> p.rate));
      ]
  in
  Printf.printf
    "%s: %d timed passes after one warm-up pass, pool of %d domain(s)\n\
    \  pass wall_s: %s\n"
    w.name (List.length passes) (Pool.size pool)
    (String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" p.wall) passes));
  List.iter print_metric (e2e @ (metric "peak_heap_mb" "MB" heap :: own));
  (first, e2e)

(* Pool-scaling table: one untraced pass at 1..nproc domains, plus counts
   only at 2 x nproc (oversubscribed, so no timing is reported there). *)
let scaling_table (w : workload) (inst : instance) ~(first : pass) =
  Printf.printf
    "\npool scaling, %s (pass 0; identical = same outputs as the %d-domain \
     pass)\n"
    w.name nproc;
  Printf.printf "  %7s %9s %8s %10s %9s %8s %8s %9s\n" "domains" "wall_s"
    "speedup" "efficiency" "busy_frac" "tasks" "steals" "identical";
  let base = ref nan and fit_batch = ref [] in
  List.iter
    (fun d ->
      Pool.with_pool ~domains:d (fun pool ->
          let p = inst.run pool 0 in
          let st = Pool.stats pool in
          let same = p.exact_out = first.exact_out in
          check (Printf.sprintf "%s identical at %d domains" w.name d) same;
          if d = 1 then base := p.wall;
          if d <= nproc then
            Printf.printf "  %7d %9.3f %7.2fx %9.1f%% %9.3f %8d %8d %9b\n" d
              p.wall (!base /. p.wall)
              (100. *. !base /. p.wall /. float_of_int d)
              (Array.fold_left ( +. ) 0. st.Pool.busy_seconds
              /. (float_of_int d *. p.wall))
              st.Pool.tasks st.Pool.steals same
          else
            Printf.printf "  %7d %9s %8s %10s %9s %8d %8d %9b\n" d "-" "-" "-"
              "-" st.Pool.tasks st.Pool.steals same;
          match List.assoc_opt "fit_s" p.parts with
          | Some fit_s when d <= nproc -> fit_batch := (d, fit_s) :: !fit_batch
          | _ -> ()))
    (List.init nproc (fun i -> i + 1) @ [ 2 * nproc ]);
  (* Whether pooling Fit.fit and Predict.of_report pays off: the fit batch
     at [nproc] domains against one domain. *)
  match (List.assoc_opt 1 !fit_batch, List.assoc_opt nproc !fit_batch) with
  | Some serial, Some pooled when nproc > 1 ->
    Printf.printf
      "  pooled fit pays off: %s (fit+predict batch %.3f s at %d domains, \
       %.3f s at 1)\n"
      (if pooled < serial then "yes" else "no")
      pooled nproc serial
  | _ -> ()

let traced_run (w : workload) ~seed ~workdir ~setup_s ~pool (inst : instance) =
  let first = inst.run pool 0 in
  let untraced = ref [] and traced = ref [] in
  for _ = 1 to 2 do
    let u = inst.run pool 0 in
    check_pass ~first u;
    untraced := u :: !untraced;
    Trace.enabled := true;
    let t = inst.run pool 0 in
    Trace.enabled := false;
    check "traced pass outputs identical to the untraced pass"
      (t.exact_out = first.exact_out);
    traced := t :: !traced
  done;
  inst.final_checks first;
  let n_traced = float_of_int (List.length !traced) in
  let heap = heap_mb () in
  let untraced_wall = median (List.map (fun p -> p.wall) !untraced)
  and traced_wall = median (List.map (fun p -> p.wall) !traced) in
  let spans = Trace.spans () in
  let roots = List.filter (fun s -> s.Trace.parent < 0) spans in
  let sum f = List.fold_left (fun acc s -> acc +. f s) 0. roots /. n_traced in
  let span_wall = sum Trace.duration in
  let busy = sum (fun s -> Array.fold_left ( +. ) 0. s.Trace.busy) in
  let tail_idle =
    sum (fun s ->
        if Array.length s.Trace.busy = 0 then 0.
        else
          Array.fold_left Float.max neg_infinity s.Trace.busy
          -. Array.fold_left Float.min infinity s.Trace.busy)
  in
  let domains = Pool.size pool in
  (* The workload's own campaign and validate calls when it makes them;
     otherwise a probe call of that layer. *)
  let campaign_spans =
    List.filter
      (fun s ->
        s.Trace.name = "campaign"
        && List.exists
             (fun p ->
               p.Trace.id = s.Trace.parent && p.Trace.name <> "Engine.run warm")
             spans)
      spans
  in
  let last_traced = List.hd !traced in
  let campaign_s, campaign =
    match last_traced.campaign with
    | Some c ->
      (* The last campaign span belongs to the last traced pass, whose run
         seconds [per_run_overhead_us] subtracts. *)
      ( Trace.duration
          (List.nth campaign_spans (List.length campaign_spans - 1)),
        c )
    | None ->
      let c, dt =
        time (fun () ->
            Campaign.run ~pool
              ~params:(Lv_problems.Defaults.params (fst queens30) (snd queens30))
              ~label:"probe" ~seed ~runs:short_runs
              (fun () -> Probes.make_instance queens30))
      in
      (dt, c)
  in
  let phase name =
    List.fold_left
      (fun acc s -> if s.Trace.name = name then acc +. Trace.duration s else acc)
      0. spans
    /. n_traced
  in
  let xs0 = fv_dataset0 ~seed in
  let bootstrap_s, holdout_s, replicates, dropped =
    match last_traced.validation with
    | Some j ->
      let v = Validate.of_json j in
      ( phase "validate.bootstrap",
        phase "validate.holdout",
        v.Validate.bootstrap.Validate.replicates,
        v.Validate.bootstrap.Validate.dropped )
    | None ->
      let sink = Sink.memory () in
      let config = { fv_config with Validate.replicates = 20; folds = 2 } in
      let v =
        Validate.run ~pool ~telemetry:sink ~candidates:fv_validate_family
          ~config ~seed ~cores:fv_cores ~label:"probe"
          ~report:(Fit.fit ~pool ~candidates:fv_validate_family xs0)
          xs0
      in
      let dur name =
        List.fold_left
          (fun acc ev ->
            match Lv_telemetry.Event.duration ev with
            | Some d when Lv_telemetry.Event.name ev = name -> acc +. d
            | _ -> acc)
          0. (Sink.events sink)
      in
      ( dur "validate.bootstrap",
        dur "validate.holdout",
        config.Validate.replicates,
        v.Validate.bootstrap.Validate.dropped )
  in
  let cache_sum f =
    float_of_int
      (List.fold_left
         (fun acc p -> acc + List.fold_left (fun a c -> a + f c) 0 p.cache)
         0 !traced)
    /. n_traced
  in
  let layer_metrics =
    Probes.search ~problem:w.problem ~seed ~runs:w.search_runs
    @ Probes.problems ~problem:w.problem
    @ Probes.campaign_metrics ~domains ~campaign_s campaign
    @ Probes.multiwalk ~workdir ~seed ~cores:fv_cores campaign
    @ [
        metric "exec.busy_frac" "ratio"
          (busy /. (float_of_int domains *. span_wall));
        metric "exec.tail_idle_s" "s" tail_idle;
        metric "exec.tasks" "count" (sum (fun s -> float_of_int s.Trace.tasks));
        metric "exec.steals" "count" (sum (fun s -> float_of_int s.Trace.steals));
      ]
    @ Probes.stats_and_core ~pool ~cores:fv_cores ~law:ms200 xs0
    @ [
        metric "validate.bootstrap_s" "s" bootstrap_s;
        metric "validate.replicate_ms" "ms"
          (bootstrap_s *. 1e3 /. float_of_int replicates);
        metric "validate.holdout_s" "s" holdout_s;
        metric "validate.dropped" "count" (float_of_int dropped);
        metric "engine.cache_hits" "count" (cache_sum fst);
        metric "engine.cache_misses" "count" (cache_sum snd);
        metric "gc.minor_words" "words" (sum (fun s -> s.Trace.minor_words));
        metric "gc.minor_collections" "count"
          (sum (fun s -> float_of_int s.Trace.minor_collections));
        metric "gc.major_collections" "count"
          (sum (fun s -> float_of_int s.Trace.major_collections));
        metric "gc.top_heap_mb" "MB" heap;
        metric "telemetry.overhead_frac" "ratio"
          ((traced_wall -. untraced_wall) /. untraced_wall);
      ]
  in
  if w.scaling then scaling_table w inst ~first;
  let wall_per_pass =
    List.fold_left (fun acc p -> acc +. p.wall) 0. !traced /. n_traced
  in
  Printf.printf
    "\nlayer self time per traced pass (%s, %d traced passes, wall_s %.3f, \
     untraced wall_s %.3f)\n"
    w.name (List.length !traced) wall_per_pass untraced_wall;
  let layers = Trace.by_layer spans in
  List.iter
    (fun (layer, self) ->
      Printf.printf "  %-14s %9.4f s %6.1f%%\n" layer (self /. n_traced)
        (100. *. self /. n_traced /. wall_per_pass))
    layers;
  let covered =
    List.fold_left (fun acc (_, s) -> acc +. s) 0. layers /. n_traced
  in
  Printf.printf "  %-14s %9.4f s %6.1f%% of wall_s\n" "total" covered
    (100. *. covered /. wall_per_pass);
  let trace_file =
    Filename.concat ".perfbench_work"
      (Printf.sprintf "trace-%s-seed%d.jsonl" w.name seed)
  in
  Trace.write trace_file;
  Printf.printf "spans written to %s\n\nper-layer metrics (setup_s %.4f s)\n"
    trace_file setup_s;
  List.iter print_metric layer_metrics;
  (first, layer_metrics)

let json_of_result metrics =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (x : Probes.metric) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.Probes.name
              (num x.Probes.value) x.Probes.unit_)
          metrics))

let () =
  let workload = ref "" and seed = ref default_seed and seconds = ref 10
  and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_int seconds, "S seconds of timed passes (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 timed run, or traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  in
  let workdir =
    Filename.concat ".perfbench_work"
      (Printf.sprintf "%s-%d" w.name (Unix.getpid ()))
  in
  rm_rf workdir;
  mkdir_p workdir;
  Fun.protect ~finally:(fun () -> rm_rf workdir) @@ fun () ->
  (* Lv_multiwalk.Fault reads its environment knobs through lazy values
     that each pool worker forces on its first run; two workers forcing
     them at once raise CamlinternalLazy.Undefined.  Force them here, on
     the main domain, before any campaign starts. *)
  ignore (Lv_multiwalk.Fault.enabled ());
  (* Set-up: the pool, the instances and the datasets, 15 times over. *)
  let setups =
    List.init 15 (fun _ ->
        time (fun () ->
            let pool =
              Pool.create
                ~domains:(if !trace = 0 then timed_domains else nproc)
                ()
            in
            (pool, w.setup ~seed:!seed ~workdir)))
  in
  let setup_s = median (List.map snd setups) in
  let rec keep_last = function
    | [ ((pool, inst), _) ] -> (pool, inst)
    | ((pool, _), _) :: rest ->
      Pool.shutdown pool;
      keep_last rest
    | [] -> assert false
  in
  let pool, inst = keep_last setups in
  Trace.pool := Some pool;
  let first, metrics =
    Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
    if !trace = 0 then
      timed_run w ~seconds:(float_of_int !seconds) ~setup_s ~pool inst
    else traced_run w ~seed:!seed ~workdir ~setup_s ~pool inst
  in
  check_digest ~name:w.name ~seed:!seed first;
  List.iter
    (fun (x : Probes.metric) ->
      check
        (x.Probes.name ^ " is a finite number")
        (Float.is_finite x.Probes.value))
    metrics;
  Printf.printf "error_frac %d/%d = %g\n" !failed !attempted
    (float_of_int !failed /. float_of_int (max 1 !attempted));
  print_endline (json_of_result metrics)
