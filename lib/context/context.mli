(** The machinery {!Lv_engine.Engine.run} executes a scenario on: the
    executor, the telemetry sink and the artifact cache.

    The experiment itself (runs, seed, alpha, candidate laws, budgets)
    lives in the scenario; a context only says where and how it runs, so
    the same scenario under any context yields the same datasets and
    predictions.  Library entry points below the engine take these as
    plain [?pool] / [?telemetry] arguments. *)

type t = {
  pool : Lv_exec.Pool.t;
      (** executor shared by every parallel phase; default
          {!Lv_exec.Pool.serial}: every stage runs on the calling domain *)
  telemetry : Lv_telemetry.Sink.t;  (** default: the null sink *)
  cache_dir : string option;
      (** directory for the content-addressed artifact store
          ({!Lv_engine.Artifact}); [None] = no caching *)
}

val default : t
(** The serial pool, null telemetry, no cache. *)

val make :
  ?pool:Lv_exec.Pool.t ->
  ?telemetry:Lv_telemetry.Sink.t ->
  ?cache_dir:string ->
  unit ->
  t
(** {!default} with the given fields set. *)
