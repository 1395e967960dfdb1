type t = {
  pool : Lv_exec.Pool.t option;
  telemetry : Lv_telemetry.Sink.t;
  cache_dir : string option;
}

let make ?pool ?(telemetry = Lv_telemetry.Sink.null) ?cache_dir () =
  { pool; telemetry; cache_dir }

let default = make ()
