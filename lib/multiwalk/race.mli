(** Real multi-walk execution on OCaml 5 domains — Definition 2 of the paper
    run on actual parallel hardware: [walkers] independent solver instances
    race and the first to find a solution stops the others.

    Two variants:

    - {!wall_clock}: a true first-finisher-wins race, walkers multiplexed
      over an {!Lv_exec.Pool}.  Faithful to the cluster setup but only
      meaningful for [walkers <= pool workers <= physical cores].
    - {!iteration_metric}: runs every walker to completion (work spread over
      the pool's workers) and reports the minimum iteration count.
      This is *exactly* the multi-walk outcome in the paper's preferred
      machine-independent metric, for any number of walkers — it is how the
      reproduction measures "speed-up on k cores" for k beyond the local
      machine. *)

type outcome = {
  walkers : int;
  winner : int option;        (** index of the winning walker, if any solved *)
  seconds : float;            (** wall-clock of the whole race *)
  min_iterations : int;       (** iterations of the winning walker *)
  solved : bool;
}

val wall_clock :
  ?params:Lv_search.Params.t ->
  ?pool:Lv_exec.Pool.t ->
  ?telemetry:Lv_telemetry.Sink.t ->
  seed:int ->
  walkers:int ->
  (unit -> Lv_search.Csp.packed) ->
  outcome
(** Race the walkers on [pool] instead of one domain each.  The first
    solver to finish flips a shared flag: walkers already running poll it
    and abandon; walkers not yet started are skipped via the pool's
    cancellation token and report no iterations.  [make_instance] is
    called once per walker that runs.  On the default
    {!Lv_exec.Pool.serial} the walkers run one after another on the
    calling domain, so the first walker that solves wins and the rest
    never start.

    With a live [telemetry] sink each walker emits one ["race.walker"]
    span (walker index, iterations, solved flag, own wall time) and the
    race itself one ["race"] span carrying the outcome. *)

val iteration_metric :
  ?params:Lv_search.Params.t ->
  ?pool:Lv_exec.Pool.t ->
  ?telemetry:Lv_telemetry.Sink.t ->
  seed:int ->
  walkers:int ->
  (unit -> Lv_search.Csp.packed) ->
  outcome
(** Run all [walkers] to completion and take the minimum iteration count
    ([seconds] is the wall-clock of collecting them all).  [pool] (default
    {!Lv_exec.Pool.serial}) and [telemetry] are forwarded to the
    underlying {!Campaign.run}, plus one ["race"] span with the
    outcome. *)

val pp_outcome : Format.formatter -> outcome -> unit
