(** Declarative experiment scenarios.

    A scenario is the paper's whole workflow as one checked-in value:
    which problem and size, how many sequential runs under which solver
    parameters and budgets, which core counts to predict for, and which
    pipeline stages to execute.  {!Engine.run} turns a scenario into an
    {!Engine.outcome}; the scenario file replaces the ad-hoc chain of
    shell flags that Hoos & Stützle's {e Pitfalls and Remedies} warns
    makes evaluations irreproducible.

    {2 File format}

    A minimal, dependency-free [key = value] section file:

    {v
    # anything after '#' or ';' at line start is a comment
    [scenario]
    name       = costas-12          ; defaults to <problem>-<size>
    problem    = costas-array       ; required (registry name or prefix)
    size       = 12                 ; required
    runs       = 150
    seed       = 42
    cores      = 2,4,8,16,32,64
    metric     = iterations         ; or: seconds
    alpha      = 0.05
    candidates = paper              ; or: all, or a comma list of names
    walk       = 0.5                ; optional solver parameter
    timeout    = 30.0               ; per-run wall budget (censoring)
    max-iters  = 100000             ; per-run iteration budget (censoring)
    stages     = campaign,fit,predict,simulate,compare
    validate   = on                 ; or: off, or replicates=400,folds=5,
                                    ;     level=0.9,trials=100 (any subset)
    output     = results/costas-12  ; write dataset/prediction CSVs here
    v}

    A [validate] key implies the [validate] stage (and vice versa: listing
    the stage without the key uses {!Lv_validate.Validate.default_config});
    the stage requires [fit].

    Key spelling accepts ['-'] and ['_'] interchangeably.  Unknown keys,
    unknown sections and malformed values fail with the file and line
    number — a typo must not silently change an experiment. *)

type stage = Campaign | Fit | Predict | Simulate | Compare | Validate

type t = {
  name : string;  (** dataset label and artifact/output file stem *)
  problem : string;  (** canonical {!Lv_problems.Registry} name *)
  size : int;
  runs : int;
  seed : int;
  cores : int list;
  metric : [ `Iterations | `Seconds ];
  walk : float option;  (** [prob_select_loc_min] override *)
  timeout : float option;  (** per-run wall budget (censored beyond it) *)
  max_iters : int option;  (** per-run iteration budget (censored beyond it) *)
  alpha : float option;  (** KS level; [None] = 0.05 *)
  candidates : Lv_core.Fit.candidate list option;
      (** candidate pool; [None] = {!Lv_core.Fit.all_candidates} *)
  stages : stage list;  (** in pipeline order, deduplicated *)
  validate : Lv_validate.Validate.config option;
      (** present iff {!stage.Validate} is among [stages] (the
          constructor maintains the invariant in both directions) *)
  output_dir : string option;
}

val all_stages : stage list
(** Every stage, in pipeline order (ends with [Validate]). *)

val default_stages : stage list
(** [[Campaign; Fit; Predict; Simulate; Compare]] — {!make}'s default;
    validation is opt-in. *)

val stage_name : stage -> string
val stage_of_string : string -> stage option

val make :
  ?name:string ->
  ?runs:int ->
  ?seed:int ->
  ?cores:int list ->
  ?metric:[ `Iterations | `Seconds ] ->
  ?walk:float ->
  ?timeout:float ->
  ?max_iters:int ->
  ?alpha:float ->
  ?candidates:Lv_core.Fit.candidate list ->
  ?stages:stage list ->
  ?validate:Lv_validate.Validate.config ->
  ?output_dir:string ->
  problem:string ->
  size:int ->
  unit ->
  t
(** Programmatic constructor with the same defaults and validation as the
    file parser (runs 200, seed 1, cores 16..256, iteration metric,
    {!default_stages}).  Raises [Failure] on an invalid scenario —
    unknown problem, empty candidate pool, nonpositive size/runs/cores,
    an invalid validation config, or a stage whose prerequisite stage is
    missing ([Fit] needs [Campaign], [Predict] needs [Fit], [Simulate]
    needs [Campaign], [Compare] needs [Predict] and [Simulate],
    [Validate] needs [Fit]). *)

val of_string : ?path:string -> string -> t
(** Parse scenario text.  [path] only decorates error messages.  Raises
    [Failure] with file and line number on any malformed or unknown
    construct, and applies {!make}'s validation. *)

val of_file : string -> t
(** {!of_string} on the file's contents; raises [Sys_error] on IO. *)

val to_string : t -> string
(** Canonical scenario text: parses back ({!of_string}) to an equal [t],
    with every field explicit — the normal form used in cache-key
    derivation and for writing scenario files. *)

val params : t -> Lv_search.Params.t
(** The resolved solver parameters: the problem's tuned defaults with
    [walk] applied.  The iteration cap is [max_iters], applied per run as
    a {!Lv_multiwalk.Run.budget}. *)

val has_stage : t -> stage -> bool
val pp : Format.formatter -> t -> unit
