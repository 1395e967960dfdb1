type t = {
  pool : Lv_exec.Pool.t;
  telemetry : Lv_telemetry.Sink.t;
  cache_dir : string option;
}

let make ?(pool = Lv_exec.Pool.serial) ?(telemetry = Lv_telemetry.Sink.null)
    ?cache_dir () =
  { pool; telemetry; cache_dir }

let default = make ()
