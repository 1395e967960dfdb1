(** The unified experiment engine: one {!Scenario.t} in, the whole paper
    pipeline out.

    [run ctx scenario] executes the scenario's stages in pipeline order —
    campaign (sequential runtime collection), fit (candidate laws +
    KS test), predict (multi-walk speed-up curve), simulate (plug-in
    minimum speed-ups), compare (predicted vs. measured) and validate
    (bootstrap bands, held-out cross-validation and the calibration
    oracle of {!Lv_validate.Validate}).  The scenario is the whole
    experiment (seed, alpha, candidates, budgets); the
    {!Lv_context.Context} only supplies the pool and telemetry sink every
    stage runs on, and the artifact cache.

    {2 Caching}

    With [ctx.cache_dir] set, the expensive stages are served from an
    {!Artifact} store.  The campaign stage is exactly
    [Campaign.run ~checkpoint:<artifact path>]: its artifact is the
    append-only {!Lv_multiwalk.Checkpoint} run-log, restored and extended
    by the campaign itself.  A log that restores every run is a hit; a
    partial one (a crashed engine run) is a miss that resumes where it
    stopped; a log {!Lv_multiwalk.Checkpoint.load} rejects is deleted and
    recomputed, also one miss.  The fit artifact is a JSON rendering of the
    report (laws are rebuilt with {!Lv_core.Fit.instantiate}), and the
    validation artifact is the {!Lv_validate.Validate.to_json} report
    (keyed on the fit key plus the validation config, cores and seed); both
    are written atomically (temp file + rename).  Cache keys hash the
    scenario fields each stage consumes, so changing any of them
    recomputes; the pool and sink never enter a key.  Lookups surface as
    ["engine.cache.hit"] / ["engine.cache.miss"] telemetry counters and in
    the outcome.

    {2 Telemetry}

    The whole run wraps in an ["engine"] span; each executed stage emits
    one ["engine/engine.stage"] span (field [stage]), timed whether it was
    computed or restored from cache.  The campaign's own ["campaign"] span
    is emitted on a cache hit too, with [restored = runs]. *)

type outcome = {
  scenario : Scenario.t;  (** as executed (problem name canonicalized) *)
  campaign : Lv_multiwalk.Campaign.result;
  dataset : Lv_multiwalk.Dataset.t;
      (** the scenario-metric projection everything downstream consumed *)
  fit : Lv_core.Fit.report option;  (** [None] unless stage [Fit] ran *)
  prediction : Lv_core.Predict.prediction option;
      (** [None] unless stage [Predict] ran *)
  simulated : Lv_multiwalk.Sim.row list;  (** [[]] unless stage [Simulate] *)
  comparison : Lv_core.Predict.comparison_row list;
      (** predicted vs. simulated, [[]] unless stage [Compare] *)
  validation : Lv_validate.Validate.report option;
      (** [None] unless stage [Validate] ran *)
  cache_hits : int;  (** artifact-store lookups served from disk *)
  cache_misses : int;  (** artifact-store lookups that recomputed *)
  outputs : (string * string) list;
      (** files written under the scenario's [output] dir, as
          [(kind, path)] — e.g. [("dataset", "results/x-dataset.csv")] *)
}

val run : ?ctx:Lv_context.Context.t -> Scenario.t -> outcome
(** Execute the scenario under the context (default
    {!Lv_context.Context.default}: the serial pool, so every stage runs on
    the calling domain; null telemetry; no cache).  Deterministic for a
    given scenario: datasets and predictions are byte-identical whatever
    the pool size and whether stages were computed or served from cache.
    Raises [Failure] / [Invalid_argument] on an invalid scenario, and
    lets stage exceptions propagate.  Nothing is left half-written: a
    later run resumes from whatever a crash left in the append-only
    campaign log, and the other artifact and output writes are atomic. *)

val pp_outcome : Format.formatter -> outcome -> unit
(** Human-readable digest: dataset summary, fit verdict, prediction curve,
    comparison table and cache counters — what [lvp run] prints. *)
